package gogen

import (
	"fmt"
	"strings"

	"prophet/internal/profile"
	"prophet/internal/uml"
)

// goFlow renders the regions that uml.Flows.WalkRegions visits as Go
// control flow, mirroring the C++ generator's structured walk.
type goFlow struct {
	model   *uml.Model
	w       *goWriter
	flows   uml.Flows
	indent  int
	loopSeq int
	wgSeq   int
}

func (f *goFlow) line(format string, args ...interface{}) {
	f.w.line(strings.Repeat("\t", f.indent)+format, args...)
}

// emitDiagram emits a whole diagram, from its initial node to its finals.
func (f *goFlow) emitDiagram(d *uml.Diagram) error { return f.flows.WalkRegions(d, f) }

// Element emits an action, activity or loop node.
func (f *goFlow) Element(n uml.Node) error {
	switch n := n.(type) {
	case *uml.ActivityNode:
		return f.emitActivity(n)
	case *uml.LoopNode:
		return f.emitLoop(n)
	}
	return f.emitAction(n.(*uml.ActionNode))
}

// Defect words a structural flow defect.
func (f *goFlow) Defect(def uml.Defect) error { return fmt.Errorf("gogen: %v", def) }

func (f *goFlow) emitAction(n *uml.ActionNode) error {
	switch n.Stereotype() {
	case "":
		return nil
	case profile.ActionPlus, profile.OMPCritical:
		f.line("%s()", funcName(n.Name()))
		return nil
	}
	shim, ok := goShims[n.Stereotype()]
	if !ok {
		return fmt.Errorf("gogen: element %q: unsupported stereotype <<%s>>", n.Name(), n.Stereotype())
	}
	args := make([]string, len(shim.tags))
	for i, tag := range shim.tags {
		args[i] = "0" // an unset tag passes 0
		if raw, ok := n.Tag(tag); ok {
			s, err := renderGo(raw)
			if err != nil {
				return fmt.Errorf("gogen: %q %s: %w", n.Name(), tag, err)
			}
			args[i] = s
		}
	}
	f.line("%s(%s)", shim.fn, strings.Join(args, ", "))
	return nil
}

// goShims maps each communication stereotype to the runtime shim its
// elements call and the tagged values they pass to it, in order.
var goShims = map[string]struct {
	fn   string
	tags []string
}{
	profile.MPISend:      {"mpiSend", []string{profile.TagDest, profile.TagSize}},
	profile.MPIRecv:      {"mpiRecv", []string{profile.TagSrc}},
	profile.MPISendrecv:  {"mpiSendrecv", []string{profile.TagDest, profile.TagSrc, profile.TagSize}},
	profile.MPIBarrier:   {"mpiBarrier", nil},
	profile.MPIBroadcast: {"mpiBcast", []string{profile.TagRoot, profile.TagSize}},
	profile.MPIReduce:    {"mpiReduce", []string{profile.TagRoot, profile.TagSize}},
}

func (f *goFlow) emitActivity(n *uml.ActivityNode) error {
	f.line("// activity %s", n.Name())
	body := f.model.DiagramByName(n.Body)
	if body == nil {
		return fmt.Errorf("gogen: activity %q references unknown diagram %q", n.Name(), n.Body)
	}
	if n.Stereotype() == profile.OMPParallel {
		count := "int(1)"
		if raw, ok := n.Tag(profile.TagCount); ok {
			c, err := renderGo(raw)
			if err != nil {
				return fmt.Errorf("gogen: parallel region %q count: %w", n.Name(), err)
			}
			count = "int(" + c + ")"
		}
		f.wgSeq++
		wg := fmt.Sprintf("wg%d", f.wgSeq)
		f.line("var %s sync.WaitGroup", wg)
		f.line("for t := 0; t < %s; t++ {", count)
		f.indent++
		f.line("%s.Add(1)", wg)
		f.line("go func(tid int) {")
		f.indent++
		f.line("defer %s.Done()", wg)
		f.line("_ = tid")
		if err := f.emitDiagram(body); err != nil {
			return err
		}
		f.indent--
		f.line("}(t)")
		f.indent--
		f.line("}")
		f.line("%s.Wait()", wg)
		return nil
	}
	return f.emitDiagram(body)
}

func (f *goFlow) emitLoop(n *uml.LoopNode) error {
	count, err := renderGo(n.Count)
	if err != nil {
		return fmt.Errorf("gogen: loop %q count: %w", n.Name(), err)
	}
	v := n.Var
	if v == "" {
		f.loopSeq++
		v = fmt.Sprintf("it%d", f.loopSeq)
	}
	body := f.model.DiagramByName(n.Body)
	if body == nil {
		return fmt.Errorf("gogen: loop %q references unknown diagram %q", n.Name(), n.Body)
	}
	f.line("for %s := 0; %s < int(%s); %s++ { // loop %s", v, v, count, v, n.Name())
	f.indent++
	f.line("_ = %s", v)
	if err := f.emitDiagram(body); err != nil {
		return err
	}
	f.indent--
	f.line("}")
	return nil
}

// Decision renders a guarded decision as an if/else-if chain and a
// weighted one as a switch over prophetRand(). Of several else arms the
// last one wins.
func (f *goFlow) Decision(n uml.Node, dec *uml.Decision, arm func(*uml.Edge) error) error {
	if dec.Defect != uml.DefectNone {
		return f.Defect(uml.Defect{Kind: dec.Defect, Diagram: n.Diagram(), Node: n})
	}
	branch := func(e *uml.Edge) error {
		f.indent++
		defer func() { f.indent-- }()
		return arm(e)
	}
	if dec.Weighted {
		f.line("switch pmpR := prophetRand() * %g; { // weighted branch", dec.Total)
		acc := 0.0
		for i, e := range dec.Arms {
			acc += e.Weight
			if i == len(dec.Arms)-1 {
				f.line("default:")
			} else {
				f.line("case pmpR < %g:", acc)
			}
			if err := branch(e); err != nil {
				return err
			}
		}
		f.line("}")
		return nil
	}
	for i, e := range dec.Arms {
		guard, err := renderGo(e.Guard)
		if err != nil {
			return fmt.Errorf("gogen: guard %q: %w", e.Guard, err)
		}
		if i == 0 {
			f.line("if %s {", guard)
		} else {
			f.line("} else if %s {", guard)
		}
		if err := branch(e); err != nil {
			return err
		}
	}
	if len(dec.Else) > 0 {
		f.line("} else {")
		if err := branch(dec.Else[len(dec.Else)-1]); err != nil {
			return err
		}
	}
	f.line("}")
	return nil
}

// Fork runs each branch in a goroutine and waits for all of them.
func (f *goFlow) Fork(n uml.Node, heads []uml.Node, branch func(uml.Node) error) error {
	f.wgSeq++
	wg := fmt.Sprintf("wg%d", f.wgSeq)
	f.line("var %s sync.WaitGroup // fork", wg)
	for _, h := range heads {
		f.line("%s.Add(1)", wg)
		f.line("go func() {")
		f.indent++
		f.line("defer %s.Done()", wg)
		if err := branch(h); err != nil {
			return err
		}
		f.indent--
		f.line("}()")
	}
	f.line("%s.Wait() // join", wg)
	return nil
}

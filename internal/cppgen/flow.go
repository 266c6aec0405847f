package cppgen

import (
	"fmt"

	"prophet/internal/profile"
	"prophet/internal/uml"
)

// emitFlow is phase 6 of the Figure 5 algorithm (lines 29-35): it walks
// the main diagram's control flow and emits, for each performance modeling
// element, the C++ code that invokes its execute() method, in the order
// specified by the UML model. Branch control flow maps to if/else-if
// statements (paper, Figure 8b) and the content of activities and loops is
// nested in place.
func (g *Generator) emitFlow(w *writer, m *uml.Model, names map[string]string) error {
	w.line("// -- Execution flow --")
	if m.Main() == nil {
		return nil
	}
	f := &flowEmitter{model: m, names: names, w: w}
	return f.emitDiagram(m.Main())
}

// flowEmitter carries the state of one flow walk. It renders the regions
// that uml.Flows.WalkRegions visits as C++ statements.
type flowEmitter struct {
	model *uml.Model
	names map[string]string
	w     *writer
	flows uml.Flows
	// loopSeq numbers synthetic loop variables.
	loopSeq int
}

// emitDiagram emits the statements of a whole diagram, from its initial
// node to its final node(s).
func (f *flowEmitter) emitDiagram(d *uml.Diagram) error { return f.flows.WalkRegions(d, f) }

// Element emits an action, activity or loop node.
func (f *flowEmitter) Element(n uml.Node) error {
	switch n := n.(type) {
	case *uml.ActivityNode:
		return f.emitActivity(n)
	case *uml.LoopNode:
		return f.emitLoop(n)
	}
	return f.emitAction(n.(*uml.ActionNode))
}

// Defect words a structural flow defect; a cycle gets modeling advice.
func (f *flowEmitter) Defect(def uml.Defect) error {
	if def.Kind == uml.DefectCycle {
		return fmt.Errorf("cppgen: %v; model loops with <<loop+>> elements", def)
	}
	return fmt.Errorf("cppgen: %v", def)
}

// emitAction emits one element execution: the associated code fragment
// (paper, Figure 7b) followed by the execute() invocation with the
// element's cost function as argument (paper, Figure 8b line 76).
func (f *flowEmitter) emitAction(n *uml.ActionNode) error {
	if n.Stereotype() == "" {
		// Unstereotyped actions carry no performance semantics; the
		// checker reports them at Info severity and the generator skips
		// them (Figure 5 only includes selected perf_elements).
		return nil
	}
	if n.Code != "" {
		f.w.line("// code associated with %s", n.Name())
		f.w.lines(n.Code)
	}
	ident, ok := f.names[n.ID()]
	if !ok {
		return fmt.Errorf("cppgen: element %q was not declared", n.Name())
	}
	args, err := f.executeArgs(n)
	if err != nil {
		return err
	}
	f.w.line("%s.execute(%s);", ident, args)
	return nil
}

// executeArgs builds the execute() argument list for an action-like
// element. All variants start with the context triple (uid, pid, tid); the
// remaining arguments depend on the stereotype.
func (f *flowEmitter) executeArgs(n *uml.ActionNode) (string, error) {
	switch n.Stereotype() {
	case profile.ActionPlus, profile.OMPCritical:
		// The cost function wins; the `time` tagged value is the
		// fallback (Figure 1b's measured execution time).
		src := n.CostFunc
		if src == "" {
			if raw, ok := n.Tag(profile.TagTime); ok {
				src = raw
			}
		}
		cost := "0"
		if src != "" {
			c, err := RenderExpr(src)
			if err != nil {
				return "", fmt.Errorf("cppgen: element %q cost function: %w", n.Name(), err)
			}
			cost = c
		}
		return "uid, pid, tid, " + cost, nil
	}
	tags, ok := mpiTags[n.Stereotype()]
	if !ok {
		return "", fmt.Errorf("cppgen: element %q: unsupported stereotype <<%s>>", n.Name(), n.Stereotype())
	}
	args := "uid, pid, tid"
	for _, tag := range tags {
		raw, ok := n.Tag(tag)
		if !ok {
			return "", fmt.Errorf("cppgen: element %q: required tag %q unset", n.Name(), tag)
		}
		cpp, err := RenderExpr(raw)
		if err != nil {
			return "", fmt.Errorf("cppgen: element %q tag %q: %w", n.Name(), tag, err)
		}
		args += fmt.Sprintf(", /*%s*/ %s", tag, cpp)
	}
	return args, nil
}

// mpiTags lists, per communication stereotype, the tagged values its
// execute() call passes after the context triple, in order.
var mpiTags = map[string][]string{
	profile.MPISend:      {profile.TagDest, profile.TagSize},
	profile.MPIRecv:      {profile.TagSrc},
	profile.MPISendrecv:  {profile.TagDest, profile.TagSrc, profile.TagSize},
	profile.MPIBarrier:   nil,
	profile.MPIBroadcast: {profile.TagRoot, profile.TagSize},
	profile.MPIReduce:    {profile.TagRoot, profile.TagSize},
}

// emitActivity nests the activity's content in place (paper: "the C++ code
// that represents activity SA is nested within the C++ code of the main
// activity"). If the activity carries its own cost function, an execute()
// call models that aggregate cost before the content.
func (f *flowEmitter) emitActivity(n *uml.ActivityNode) error {
	f.w.line("// activity %s", n.Name())
	if n.Code != "" {
		f.w.line("// code associated with %s", n.Name())
		f.w.lines(n.Code)
	}
	if n.CostFunc != "" {
		ident, ok := f.names[n.ID()]
		if !ok {
			return fmt.Errorf("cppgen: activity %q was not declared", n.Name())
		}
		cost, err := RenderExpr(n.CostFunc)
		if err != nil {
			return fmt.Errorf("cppgen: activity %q cost function: %w", n.Name(), err)
		}
		f.w.line("%s.execute(uid, pid, tid, %s);", ident, cost)
	}
	if n.Stereotype() == profile.OMPParallel {
		return f.emitParallelRegion(n)
	}
	body := f.model.DiagramByName(n.Body)
	if body == nil {
		return fmt.Errorf("cppgen: activity %q references unknown diagram %q", n.Name(), n.Body)
	}
	return f.emitDiagram(body)
}

// emitParallelRegion emits an OpenMP-style fork/join region: the body runs
// once per team thread, with the thread id rebound.
func (f *flowEmitter) emitParallelRegion(n *uml.ActivityNode) error {
	count := "threads"
	if raw, ok := n.Tag(profile.TagCount); ok {
		c, err := RenderExpr(raw)
		if err != nil {
			return fmt.Errorf("cppgen: parallel region %q count: %w", n.Name(), err)
		}
		count = c
	}
	body := f.model.DiagramByName(n.Body)
	if body == nil {
		return fmt.Errorf("cppgen: parallel region %q references unknown diagram %q", n.Name(), n.Body)
	}
	f.w.line("PARALLEL_FOR_THREADS(tid, (int)(%s)) {", count)
	f.w.in()
	if err := f.emitDiagram(body); err != nil {
		return err
	}
	f.w.out()
	f.w.line("} // join %s", n.Name())
	return nil
}

// emitLoop emits a counted for statement around the loop body diagram.
func (f *flowEmitter) emitLoop(n *uml.LoopNode) error {
	count, err := RenderExpr(n.Count)
	if err != nil {
		return fmt.Errorf("cppgen: loop %q count: %w", n.Name(), err)
	}
	v := n.Var
	if v == "" {
		f.loopSeq++
		v = fmt.Sprintf("it%d", f.loopSeq)
	}
	body := f.model.DiagramByName(n.Body)
	if body == nil {
		return fmt.Errorf("cppgen: loop %q references unknown diagram %q", n.Name(), n.Body)
	}
	f.w.line("for (int %s = 0; %s < (int)(%s); ++%s) { // loop %s", v, v, count, v, n.Name())
	f.w.in()
	if err := f.emitDiagram(body); err != nil {
		return err
	}
	f.w.out()
	f.w.line("}")
	return nil
}

// Decision maps a decision node's arms onto an if/else-if chain (paper,
// Figure 8b lines 77-87). Probabilistic decisions (weighted, unguarded
// arms) draw from the runtime's pmp_rand(). A second else arm is refused.
func (f *flowEmitter) Decision(n uml.Node, dec *uml.Decision, arm func(*uml.Edge) error) error {
	d := n.Diagram().Name()
	if out := len(n.Diagram().Outgoing(n.ID())); out < 2 {
		return fmt.Errorf("cppgen: diagram %q: decision %q has %d branch(es)", d, n.Name(), out)
	}
	switch {
	case dec.Defect == uml.DefectMixedArms:
		return fmt.Errorf("cppgen: diagram %q: decision %q mixes weighted and guarded branches", d, n.Name())
	case len(dec.Else) > 1:
		return fmt.Errorf("cppgen: diagram %q: decision %q has two else branches", d, n.Name())
	case dec.Defect == uml.DefectUnguardedArm:
		return fmt.Errorf("cppgen: diagram %q: unguarded branch out of decision %q", d, n.Name())
	case dec.Defect == uml.DefectNoGuardedArm:
		return fmt.Errorf("cppgen: diagram %q: decision %q has only an else branch", d, n.Name())
	}
	branch := func(e *uml.Edge) error {
		f.w.in()
		defer f.w.out()
		return arm(e)
	}
	if dec.Weighted {
		// One draw, compared against the cumulative arm weights.
		f.w.line("{")
		f.w.in()
		f.w.line("double pmp_r = pmp_rand() * %g; // weighted branch", dec.Total)
		acc := 0.0
		for i, e := range dec.Arms {
			acc += e.Weight
			switch {
			case i == 0:
				f.w.line("if (pmp_r < %g) {", acc)
			case i == len(dec.Arms)-1:
				f.w.line("} else {")
			default:
				f.w.line("} else if (pmp_r < %g) {", acc)
			}
			if err := branch(e); err != nil {
				return err
			}
		}
		f.w.line("}")
		f.w.out()
		f.w.line("}")
		return nil
	}
	for i, e := range dec.Arms {
		guard, err := RenderExpr(e.Guard)
		if err != nil {
			return fmt.Errorf("cppgen: diagram %q: guard %q: %w", d, e.Guard, err)
		}
		if i == 0 {
			f.w.line("if (%s) {", guard)
		} else {
			f.w.line("} else if (%s) {", guard)
		}
		if err := branch(e); err != nil {
			return err
		}
	}
	if len(dec.Else) > 0 {
		f.w.line("} else {")
		if err := branch(dec.Else[0]); err != nil {
			return err
		}
	}
	f.w.line("}")
	return nil
}

// Fork emits a fork/join parallel section; each branch is a parallel
// activity that runs until the common join node.
func (f *flowEmitter) Fork(n uml.Node, heads []uml.Node, branch func(uml.Node) error) error {
	f.w.line("PAR_BEGIN // fork")
	for _, h := range heads {
		f.w.line("PAR_BRANCH {")
		f.w.in()
		if err := branch(h); err != nil {
			return err
		}
		f.w.out()
		f.w.line("}")
	}
	f.w.line("PAR_END // join")
	return nil
}

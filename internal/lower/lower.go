// Package lower transforms a checked, compiled interp.Program into a flat
// executable program: the model's activity diagrams become contiguous op
// arrays whose successor and branch targets are integer indices, every
// cost/guard/count/tag expression is re-lowered against a slot layout
// (expr.Slotted), and model variables live in slot-indexed frames resolved
// here, ahead of time. The simulation inner loop (exec.go) therefore does
// zero map lookups and zero string keying per executed element — it is the
// in-process analogue of the paper's generated C++: a fixed program,
// produced once from the model, driven by the CSIM-style engine.
//
// Lowering is semantics-preserving by construction and verified by
// differential testing: the conformance corpus requires bit-identical
// traces, summaries and metrics between the lowered and tree-walking
// backends, and FuzzLoweredEquivalence extends that to generated models.
package lower

import (
	"fmt"

	"prophet/internal/expr"
	"prophet/internal/interp"
	"prophet/internal/profile"
	"prophet/internal/uml"
)

// opKind discriminates the flat program's instruction set.
type opKind uint8

const (
	opError opKind = iota // baked static error: executing it fails the flow
	opAction
	opActivity
	opParallel // <<omp_parallel>> activity
	opLoop
	opBranch   // guarded decision
	opWeighted // probabilistic decision
	opFork
	opNop // unconditional jump: closes a cycle through a merge/join
)

// actKind discriminates action stereotypes (opAction.act).
type actKind uint8

const (
	actPlain    actKind = iota // no stereotype: counts a step, nothing else
	actCompute                 // <<action+>>
	actCritical                // <<omp_critical>>
	actSend
	actRecv
	actSendrecv
	actBarrier
	actBroadcast
	actReduce
)

// actKinds maps each supported action stereotype to its actKind.
var actKinds = map[string]actKind{
	"":                   actPlain,
	profile.ActionPlus:   actCompute,
	profile.OMPCritical:  actCritical,
	profile.MPISend:      actSend,
	profile.MPIRecv:      actRecv,
	profile.MPISendrecv:  actSendrecv,
	profile.MPIBarrier:   actBarrier,
	profile.MPIBroadcast: actBroadcast,
	profile.MPIReduce:    actReduce,
}

// assignKind classifies a code-fragment assignment target.
type assignKind uint8

const (
	asgGlobal   assignKind = iota // declared global: Globals[slot]
	asgLocal                      // static local slot (pid/tid/uid/declared local)
	asgLocalDyn                   // dynamic local slot, tracks Defined
)

// assign is one pre-resolved code-fragment statement. Targets that are not
// declared globals still check the run's extras map (config-injected
// globals with no declaration) first, mirroring the interpreter's
// globals-if-present assignment rule.
type assign struct {
	name  string
	kind  assignKind
	slot  int
	value *expr.Slotted
}

// guardArm is one guarded edge out of a decision. err is set for an
// unguarded non-else edge: the error fires only if evaluation reaches the
// arm, exactly like the interpreter's in-order guard walk.
type guardArm struct {
	guard  *expr.Slotted
	src    string // guard source text, for error messages
	target int
	err    error
}

// lvar is a loop's iteration variable, pre-resolved to its slot.
type lvar struct {
	name string
	slot int
	dyn  bool // SlotLocalDyn: maintain the Defined bit
}

// op is one flat instruction. A single struct covers all kinds; unused
// fields stay zero. pc -1 always means "flow ends here".
type op struct {
	kind opKind
	act  actKind
	next int // pc after this op

	id, name string // element identity for traces, process names, errors

	code []assign
	cost *expr.Slotted // <<action+>>/<<omp_critical>>/activity cost (nil = none)

	// Stochastic forms: a distribution-literal cost/count samples one
	// draw from the run's seed stream instead of evaluating cost/count.
	costDist  *expr.SlotDist
	countDist *expr.SlotDist

	dest, src, size, count *expr.Slotted // stereotype tag expressions

	// opBranch
	arms    []guardArm
	elsePC  int
	hasElse bool
	noMatch error // "no guard ... is true and there is no else branch"
	// opWeighted
	weights []float64
	targets []int
	total   float64

	// opFork
	branches  []int // branch body segments
	forkTotal int   // total outgoing edges (join counter size)

	// opLoop / opActivity / opParallel
	body    int   // body segment (-1 when bodyErr is set)
	bodyErr error // static body-resolution error
	loopVar lvar

	// opError / opFork dangling edge
	err error
}

// segment is one linearized flow region: a whole diagram, or a fork branch
// (entry up to, exclusive, the convergence node). entry -1 is the empty
// flow.
type segment struct {
	entry int
	ops   []op
}

// layout assigns every model variable a slot. Local slot order: pid, tid,
// uid, then declared scope-local variables (always defined), then dynamic
// locals (loop variables and code-assignment targets, defined only once
// written). Global slots follow declaration order.
type layout struct {
	localNames []string
	localIdx   map[string]int
	numStatic  int // slots < numStatic are always defined

	globalNames []string
	globalIdx   map[string]int

	rules map[string]expr.SlotRule

	pidSlot, tidSlot, uidSlot int
}

// rule is the resolver handed to expr.Resolve.
func (l *layout) rule(name string) expr.SlotRule {
	if r, ok := l.rules[name]; ok {
		return r
	}
	return expr.SlotRule{Kind: expr.SlotDynamic, Local: -1, Global: -1}
}

// Program is the flat, executable form of a compiled model. Create with
// Lower, run with Run. A Program is immutable and safe for concurrent runs.
type Program struct {
	parts interp.Parts
	lay   *layout
	segs  []segment

	mainSeg int // segment of the main diagram (-1 with mainErr set)
	mainErr error

	// globalInits parallels lay.globalNames (nil = no initializer).
	globalInits []*expr.Compiled

	// engineOnly marks programs whose ops need the event engine even for a
	// single process (fork, omp_parallel, MPI point-to-point).
	engineOnly bool
}

// lowerer is the whole-program lowering state.
type lowerer struct {
	parts   interp.Parts
	lay     *layout
	prog    *Program
	diagSeg map[string]int // diagram name -> segment index
	regions map[regionKey]int

	// resolved memoizes Compiled→Slotted re-lowering. The layout is fixed
	// for the whole program and both forms are immutable, so every op
	// holding the same compiled expression can share one slotted instance
	// (interp.Compile already dedupes identical sources).
	resolved map[*expr.Compiled]*expr.Slotted

	// resolvedDist is the same memo for distribution literals.
	resolvedDist map[*expr.Dist]*expr.SlotDist

	// flows holds each diagram's derived flow structure.
	flows uml.Flows
}

// regionKey memoizes fork-branch segments so cyclic flows that re-reach a
// fork re-use the already-reserved segment instead of recursing forever.
type regionKey struct {
	diagram string
	head    string
	stop    string
}

// Lower flattens a compiled program. It never fails: model defects the
// interpreter would report at run time are baked in as error ops that fire
// if (and only if) execution reaches them, preserving the interpreter's
// error-visibility semantics.
func Lower(pr *interp.Program) *Program {
	parts := pr.Parts()
	l := &lowerer{
		parts:        parts,
		lay:          buildLayout(parts),
		prog:         &Program{parts: parts},
		diagSeg:      map[string]int{},
		regions:      map[regionKey]int{},
		resolved:     map[*expr.Compiled]*expr.Slotted{},
		resolvedDist: map[*expr.Dist]*expr.SlotDist{},
	}
	l.prog.lay = l.lay

	diagrams := parts.Model.Diagrams()
	l.prog.segs = make([]segment, len(diagrams))
	for i, d := range diagrams {
		l.diagSeg[d.Name()] = i
	}
	for i, d := range diagrams {
		l.prog.segs[i] = l.lowerDiagram(d)
	}

	l.prog.mainSeg = -1
	if main := parts.Model.Main(); main != nil {
		l.prog.mainSeg = l.diagSeg[main.Name()]
	} else {
		l.prog.mainErr = fmt.Errorf("lower: model %q has no main diagram", parts.Model.Name())
	}

	l.prog.globalInits = make([]*expr.Compiled, len(l.lay.globalNames))
	for i, name := range l.lay.globalNames {
		l.prog.globalInits[i] = parts.Inits[name]
	}

	for _, seg := range l.prog.segs {
		for _, o := range seg.ops {
			switch o.kind {
			case opFork, opParallel:
				l.prog.engineOnly = true
			case opAction:
				switch o.act {
				case actSend, actRecv, actSendrecv:
					l.prog.engineOnly = true
				}
			}
		}
	}
	return l.prog
}

// buildLayout computes the slot layout from the model's declarations plus
// every name the flows can write (loop variables, assignment targets).
func buildLayout(parts interp.Parts) *layout {
	m := parts.Model
	l := &layout{
		localIdx:  map[string]int{},
		globalIdx: map[string]int{},
		rules:     map[string]expr.SlotRule{},
	}
	addLocal := func(name string) int {
		if i, ok := l.localIdx[name]; ok {
			return i
		}
		i := len(l.localNames)
		l.localNames = append(l.localNames, name)
		l.localIdx[name] = i
		return i
	}
	l.pidSlot = addLocal("pid")
	l.tidSlot = addLocal("tid")
	l.uidSlot = addLocal("uid")
	for _, v := range m.VariablesIn(uml.ScopeLocal) {
		addLocal(v.Name)
	}
	l.numStatic = len(l.localNames)

	for _, v := range m.VariablesIn(uml.ScopeGlobal) {
		if _, ok := l.globalIdx[v.Name]; ok {
			continue
		}
		l.globalIdx[v.Name] = len(l.globalNames)
		l.globalNames = append(l.globalNames, v.Name)
	}

	// Dynamic locals: names the flows write that are not static locals.
	// Loop variables shadow even declared globals (the interpreter writes
	// them straight into the locals frame); assignment targets only become
	// locals when the name is not a declared global.
	addDyn := func(name string) {
		if i, ok := l.localIdx[name]; ok && i < l.numStatic {
			return
		}
		addLocal(name)
	}
	for _, d := range m.Diagrams() {
		for _, n := range d.Nodes() {
			if ln, ok := n.(*uml.LoopNode); ok && ln.Var != "" {
				addDyn(ln.Var)
			}
		}
	}
	for _, as := range parts.Code {
		for _, a := range as {
			if _, ok := l.globalIdx[a.Name]; ok {
				continue
			}
			addDyn(a.Name)
		}
	}

	for i, name := range l.localNames {
		if i < l.numStatic {
			l.rules[name] = expr.SlotRule{Kind: expr.SlotLocal, Local: i, Global: -1}
			continue
		}
		gi := -1
		if g, ok := l.globalIdx[name]; ok {
			gi = g
		}
		l.rules[name] = expr.SlotRule{Kind: expr.SlotLocalDyn, Local: i, Global: gi}
	}
	for i, name := range l.globalNames {
		if _, ok := l.rules[name]; ok {
			continue // shadowed by a local slot
		}
		l.rules[name] = expr.SlotRule{Kind: expr.SlotGlobal, Local: -1, Global: i}
	}
	return l
}

// resolve re-lowers a compiled expression against the layout (nil-safe,
// memoized per compiled instance).
func (l *lowerer) resolve(c *expr.Compiled) *expr.Slotted {
	if c == nil {
		return nil
	}
	if s, ok := l.resolved[c]; ok {
		return s
	}
	s := c.Resolve(l.lay.rule)
	l.resolved[c] = s
	return s
}

// resolveDist re-lowers a distribution literal's argument expressions
// against the layout (nil-safe, memoized per instance).
func (l *lowerer) resolveDist(d *expr.Dist) *expr.SlotDist {
	if d == nil {
		return nil
	}
	if s, ok := l.resolvedDist[d]; ok {
		return s
	}
	s := d.Resolve(l.lay.rule)
	l.resolvedDist[d] = s
	return s
}

// lowerCode pre-resolves a node's code fragment.
func (l *lowerer) lowerCode(nodeID string) []assign {
	stmts := l.parts.Code[nodeID]
	if len(stmts) == 0 {
		return nil
	}
	out := make([]assign, len(stmts))
	for i, a := range stmts {
		r := l.lay.rule(a.Name)
		as := assign{name: a.Name, value: l.resolve(a.Value)}
		switch {
		case r.Kind == expr.SlotGlobal:
			as.kind, as.slot = asgGlobal, r.Global
		case r.Kind == expr.SlotLocal:
			as.kind, as.slot = asgLocal, r.Local
		case r.Kind == expr.SlotLocalDyn && r.Global >= 0:
			// Declared global shadowed by a loop-variable slot: assignment
			// still writes the global, as the interpreter's assign does.
			as.kind, as.slot = asgGlobal, r.Global
		default:
			as.kind, as.slot = asgLocalDyn, r.Local
		}
		out[i] = as
	}
	return out
}

// lowerDiagram flattens a whole diagram with runDiagram semantics.
func (l *lowerer) lowerDiagram(d *uml.Diagram) segment {
	b := &segBuilder{l: l, d: d, v: l.flows.View(d),
		pcs: make(map[string]int, len(d.Nodes())),
		ops: make([]op, 0, len(d.Nodes()))}
	start, def := b.v.Start()
	if def != nil {
		return segment{entry: b.errOp(flowError(*def)), ops: b.ops}
	}
	return segment{entry: b.pcFor(start), ops: b.ops}
}

// lowerRegion flattens a fork branch: from head up to (exclusive) stop.
func (l *lowerer) lowerRegion(d *uml.Diagram, head uml.Node, stop string) int {
	key := regionKey{diagram: d.Name(), head: head.ID(), stop: stop}
	if idx, ok := l.regions[key]; ok {
		return idx
	}
	idx := len(l.prog.segs)
	l.prog.segs = append(l.prog.segs, segment{})
	l.regions[key] = idx
	// Branch regions are typically a handful of nodes; do not pre-size to
	// the diagram, it would multiply across every fork branch.
	b := &segBuilder{l: l, d: d, v: l.flows.View(d), stop: stop, pcs: map[string]int{}}
	entry := b.pcFor(head)
	l.prog.segs[idx] = segment{entry: entry, ops: b.ops}
	return idx
}

// flowError words a structural flow defect the way the interpreter does.
func flowError(def uml.Defect) error { return fmt.Errorf("lower: %v", def) }

// segBuilder linearizes one region of one diagram.
type segBuilder struct {
	l    *lowerer
	d    *uml.Diagram
	v    *uml.FlowView
	stop string // node ID execution halts at ("" = none)
	pcs  map[string]int
	ops  []op
}

// inProgress marks a pass-through node currently being resolved; hitting
// it again means a control-flow cycle back into the node, which closes
// through a reserved jump slot patched once resolution completes.
const inProgress = -2

// reserve allocates the node's pc before lowering its successors, so
// cyclic flows resolve to the already-reserved index.
func (b *segBuilder) reserve(id string) int {
	pc := len(b.ops)
	b.ops = append(b.ops, op{})
	b.pcs[id] = pc
	return pc
}

// errOp appends a baked error instruction.
func (b *segBuilder) errOp(err error) int {
	pc := len(b.ops)
	b.ops = append(b.ops, op{kind: opError, err: err, next: -1})
	return pc
}

// pcFor returns the pc where execution of node n begins, lowering on first
// visit. nil or the region's stop node end the flow (-1).
func (b *segBuilder) pcFor(n uml.Node) int {
	if n == nil {
		return -1
	}
	if b.stop != "" && n.ID() == b.stop {
		return -1
	}
	if pc, ok := b.pcs[n.ID()]; ok {
		if pc == inProgress {
			// A cycle re-entered a merge/join while it is being
			// flattened away: reserve a jump slot the in-progress
			// resolution will patch with the real target.
			return b.reserve(n.ID())
		}
		return pc
	}
	switch n.Kind() {
	case uml.KindFinal:
		return -1
	case uml.KindMerge, uml.KindJoin:
		// Pure pass-through: flattened away entirely when acyclic.
		b.pcs[n.ID()] = inProgress
		pc := b.succPC(n)
		if slot := b.pcs[n.ID()]; slot != inProgress {
			// A cycle reserved a jump slot for this node while its
			// successor lowered; close the loop through it.
			b.ops[slot] = op{kind: opNop, next: pc}
			return pc
		}
		b.pcs[n.ID()] = pc
		return pc
	case uml.KindDecision:
		return b.lowerDecision(n)
	case uml.KindFork:
		return b.lowerFork(n)
	case uml.KindAction:
		return b.lowerAction(n.(*uml.ActionNode))
	case uml.KindActivity:
		return b.lowerActivity(n.(*uml.ActivityNode))
	case uml.KindLoop:
		return b.lowerLoop(n.(*uml.LoopNode))
	}
	return b.errOp(flowError(*b.v.Defect(uml.DefectControl, n)))
}

// succPC resolves a node's single successor with the interpreter's
// successor() rules: none ends the flow, a dangling or ambiguous edge is
// an error.
func (b *segBuilder) succPC(n uml.Node) int {
	next, def := b.v.Successor(n)
	if def != nil {
		return b.errOp(flowError(*def))
	}
	return b.pcFor(next)
}

// branchTarget resolves a decision edge's target: a dangling target
// silently ends the flow, as the interpreter's d.Node(e.To()) == nil does.
func (b *segBuilder) branchTarget(e *uml.Edge) int {
	return b.pcFor(b.d.Node(e.To()))
}

func (b *segBuilder) lowerDecision(n uml.Node) int {
	dec := b.v.Decision(n)
	pc := b.reserve(n.ID())
	if dec.Defect == uml.DefectMixedArms {
		b.ops[pc] = op{kind: opError, next: -1, err: flowError(*b.v.Defect(dec.Defect, n))}
		return pc
	}
	if dec.Weighted {
		o := op{kind: opWeighted, id: n.ID(), name: n.Name(), next: -1, total: dec.Total}
		for _, e := range dec.Arms {
			o.weights = append(o.weights, e.Weight)
			o.targets = append(o.targets, b.branchTarget(e))
		}
		b.ops[pc] = o
		return pc
	}
	o := op{kind: opBranch, id: n.ID(), name: n.Name(), next: -1, elsePC: -1}
	o.noMatch = fmt.Errorf("lower: diagram %q: no guard of decision %q is true and there is no else branch",
		b.d.Name(), n.Name())
	for _, e := range dec.Arms {
		o.arms = append(o.arms, guardArm{
			guard:  b.l.resolve(b.l.parts.Guards[e.ID()]),
			src:    e.Guard,
			target: b.branchTarget(e),
		})
	}
	switch {
	case dec.Defect == uml.DefectUnguardedArm:
		// Fires only when every guard before it is false.
		o.arms = append(o.arms, guardArm{err: flowError(*b.v.Defect(dec.Defect, n))})
	case len(dec.Else) > 0:
		// The interpreter keeps the last else edge it sees.
		o.elsePC = b.branchTarget(dec.Else[len(dec.Else)-1])
		o.hasElse = true
	}
	b.ops[pc] = o
	return pc
}

func (b *segBuilder) lowerFork(n uml.Node) int {
	heads, def := b.v.Fork(n)
	pc := b.reserve(n.ID())
	if def != nil && def.Kind == uml.DefectForkBranches {
		b.ops[pc] = op{kind: opError, next: -1, err: flowError(*def)}
		return pc
	}
	conv := b.v.Convergence(n)
	stop := ""
	if conv != nil {
		stop = conv.ID()
	}
	o := op{kind: opFork, id: n.ID(), name: n.Name(), forkTotal: len(b.d.Outgoing(n.ID())), next: -1}
	for _, h := range heads {
		o.branches = append(o.branches, b.l.lowerRegion(b.d, h, stop))
	}
	if def != nil {
		// The interpreter spawns the earlier branches, then fails
		// without waiting on the join.
		o.err = flowError(*def)
	}
	b.ops[pc] = o
	if o.err == nil {
		// Continuation after the branches rejoin.
		next, def := b.v.After(n)
		if def != nil {
			b.ops[pc].next = b.errOp(flowError(*def))
		} else {
			b.ops[pc].next = b.pcFor(next)
		}
	}
	return pc
}

func (b *segBuilder) lowerAction(n *uml.ActionNode) int {
	pc := b.reserve(n.ID())
	o := op{kind: opAction, id: n.ID(), name: n.Name(), next: -1}
	act, ok := actKinds[n.Stereotype()]
	if !ok {
		// Unsupported stereotypes still run their code fragment and emit
		// Enter before failing, like execAction; since the whole run is
		// discarded on error, a bare error op preserves observable
		// behavior.
		b.ops[pc] = op{kind: opError, next: -1, err: fmt.Errorf(
			"lower: element %q: unsupported stereotype <<%s>>", n.Name(), n.Stereotype())}
		return pc
	}
	o.act = act
	o.code = b.l.lowerCode(n.ID())
	o.cost = b.l.resolve(b.l.parts.Costs[n.ID()])
	o.costDist = b.l.resolveDist(b.l.parts.DistCosts[n.ID()])
	tags := b.l.parts.Tags[n.ID()]
	o.dest = b.l.resolve(tags[profile.TagDest])
	o.src = b.l.resolve(tags[profile.TagSrc])
	o.size = b.l.resolve(tags[profile.TagSize])
	b.ops[pc] = o
	b.ops[pc].next = b.succPC(n)
	return pc
}

func (b *segBuilder) lowerActivity(n *uml.ActivityNode) int {
	pc := b.reserve(n.ID())
	o := op{kind: opActivity, id: n.ID(), name: n.Name(), next: -1, body: -1}
	o.code = b.l.lowerCode(n.ID())
	o.cost = b.l.resolve(b.l.parts.Costs[n.ID()])
	o.costDist = b.l.resolveDist(b.l.parts.DistCosts[n.ID()])
	what := "activity"
	if n.Stereotype() == profile.OMPParallel {
		o.kind, what = opParallel, "parallel region"
		o.count = b.l.resolve(b.l.parts.Tags[n.ID()][profile.TagCount])
	}
	if idx, ok := b.l.diagSeg[n.Body]; ok && b.l.parts.Model.DiagramByName(n.Body) != nil {
		o.body = idx
	} else {
		o.bodyErr = fmt.Errorf("lower: %s %q references unknown diagram %q", what, n.Name(), n.Body)
	}
	b.ops[pc] = o
	b.ops[pc].next = b.succPC(n)
	return pc
}

func (b *segBuilder) lowerLoop(n *uml.LoopNode) int {
	pc := b.reserve(n.ID())
	o := op{kind: opLoop, id: n.ID(), name: n.Name(), next: -1, body: -1}
	o.count = b.l.resolve(b.l.parts.Counts[n.ID()])
	o.countDist = b.l.resolveDist(b.l.parts.DistCounts[n.ID()])
	if idx, ok := b.l.diagSeg[n.Body]; ok {
		o.body = idx
	} else {
		o.bodyErr = fmt.Errorf("lower: loop %q references unknown diagram %q", n.Name(), n.Body)
	}
	if n.Var != "" {
		r := b.l.lay.rule(n.Var)
		o.loopVar = lvar{name: n.Var, slot: r.Local, dyn: r.Kind == expr.SlotLocalDyn}
	}
	b.ops[pc] = o
	b.ops[pc].next = b.succPC(n)
	return pc
}

package uml

import "fmt"

// DefectKind classifies a structural defect of a diagram's flow.
type DefectKind uint8

const (
	DefectNone         DefectKind = iota
	DefectNoInitial               // the diagram has nodes but no initial node
	DefectDangling                // a node's single outgoing edge targets no node
	DefectSuccessors              // a node that does not branch has several outgoing edges
	DefectControl                 // an initial node is reached mid-flow
	DefectMixedArms               // a weighted first arm, but another arm guarded or unweighted
	DefectUnguardedArm            // a guarded decision's arm has neither guard nor else
	DefectNoGuardedArm            // a guarded decision has no guarded arm
	DefectDanglingArm             // a decision arm targets no node
	DefectForkBranches            // a fork has fewer than two branches
	DefectDanglingFork            // a fork branch targets no node
	DefectCycle                   // a region walk met a node already on its path
	DefectNesting                 // a region walk re-entered a diagram through its own bodies
)

// Defect is one structural defect: its kind, the diagram and the node it
// sits at (nil for the diagram-level DefectNoInitial and DefectNesting).
// It carries no message; String gives the wording the consumers share.
type Defect struct {
	Kind    DefectKind
	Diagram *Diagram
	Node    Node
}

// String words the defect as the flow consumers report it after their
// own "package: " prefix; a consumer words differently whatever kinds it
// needs to.
func (d Defect) String() string {
	name := d.Diagram.Name()
	n := d.Node
	var what string
	switch d.Kind {
	case DefectNoInitial:
		return fmt.Sprintf("diagram %q has no initial node", name)
	case DefectNesting:
		return fmt.Sprintf("cyclic activity nesting through diagram %q", name)
	case DefectDangling:
		what = fmt.Sprintf("dangling edge from %q", n.Name())
	case DefectSuccessors:
		what = fmt.Sprintf("%v %q has %d successors", n.Kind(), n.Name(), len(d.Diagram.Outgoing(n.ID())))
	case DefectControl:
		what = fmt.Sprintf("unexpected %v mid-flow", n.Kind())
	case DefectMixedArms:
		what = fmt.Sprintf("decision %q mixes weighted and guarded branches", n.Name())
	case DefectUnguardedArm:
		what = "unguarded branch out of decision"
	case DefectNoGuardedArm:
		what = fmt.Sprintf("decision %q needs at least one guarded branch", n.Name())
	case DefectDanglingArm:
		what = "dangling branch edge"
	case DefectForkBranches:
		what = fmt.Sprintf("fork %q has %d branch(es)", n.Name(), len(d.Diagram.Outgoing(n.ID())))
	case DefectDanglingFork:
		what = "dangling fork edge"
	case DefectCycle:
		what = fmt.Sprintf("unstructured cycle through node %q", n.Name())
	default:
		what = fmt.Sprintf("flow defect %d", d.Kind)
	}
	return fmt.Sprintf("diagram %q: %s", name, what)
}

// Decision is a decision node's arms, classified once.
type Decision struct {
	// Weighted marks a probabilistic decision (its first arm has no
	// guard and a positive weight). Arms then holds every arm in model
	// order and Total the sum of their weights.
	Weighted bool
	Total    float64
	// Arms holds, for a guarded decision, the guarded arms in model
	// order, and Else the else arms, both up to the first unguarded arm.
	Arms []*Edge
	Else []*Edge
	// Defect is DefectMixedArms, DefectUnguardedArm, DefectNoGuardedArm
	// or DefectNone. An unguarded arm ends Arms and Else, so a consumer
	// that follows guards in order meets the defect where it sits.
	Defect DefectKind
}

// FlowView is the checked flow structure of one diagram, derived once:
// each node's single successor, each decision's arms, each fork's branch
// heads, and where arms and branches converge. It is the one derivation
// behind phase 6 of the paper's Figure 5 (emitFlow), shared by the code
// generators, the lowerer and the analytic solver.
//
// The view indexes the flow graph densely, so convergence search from
// every decision and fork is integer BFS, memoized per node, rather than
// a quadratic string-keyed re-walk. It is a snapshot: mutating the
// diagram afterwards leaves the view describing the old shape. It reuses
// scratch across queries and is therefore not safe for concurrent use.
type FlowView struct {
	d   *Diagram
	idx map[string]int32
	// nodes[i] is the node at dense position i; positions past the
	// diagram's real nodes are "virtual" targets of dangling edges (nil
	// node), kept so convergence matches the string-keyed search exactly.
	nodes []Node
	adj   [][]int32
	info  []nodeFlow // by dense position of the diagram's real nodes
	path  []int32    // region walk: undo log of on-path positions

	// Convergence BFS scratch: seen holds the visit id of the last head
	// BFS that reached a position, hits counts distinct heads of the
	// current query that reached it.
	seen    []int64
	hits    []int32
	queue   []int32
	counter int64
}

// nodeFlow memoizes the derived structure of one node.
type nodeFlow struct {
	dec    *Decision
	conv   Node
	convOK bool
	onPath bool // region walk: the node is on the current path
}

// NewFlowView indexes d's current nodes and edges.
func NewFlowView(d *Diagram) *FlowView {
	nodes := d.Nodes()
	v := &FlowView{
		d:     d,
		idx:   make(map[string]int32, len(nodes)),
		nodes: append(make([]Node, 0, len(nodes)+4), nodes...),
		adj:   make([][]int32, len(nodes), len(nodes)+4),
		info:  make([]nodeFlow, len(nodes)),
	}
	for i, n := range nodes {
		v.idx[n.ID()] = int32(i)
	}
	for _, e := range d.Edges() {
		// An edge from a node the diagram does not contain is unreachable
		// through any flow walk, matching d.Outgoing of real nodes.
		if fi, ok := v.idx[e.From()]; ok {
			to, ok := v.idx[e.To()]
			if !ok {
				to = int32(len(v.nodes))
				v.idx[e.To()] = to
				v.nodes = append(v.nodes, nil)
				v.adj = append(v.adj, nil)
			}
			v.adj[fi] = append(v.adj[fi], to)
		}
	}
	v.seen = make([]int64, len(v.nodes))
	v.hits = make([]int32, len(v.nodes))
	return v
}

// Diagram returns the diagram the view describes.
func (v *FlowView) Diagram() *Diagram { return v.d }

func (v *FlowView) pos(n Node) int32 { return v.idx[n.ID()] }

// Defect returns the defect of kind k at node n of the view's diagram.
func (v *FlowView) Defect(k DefectKind, n Node) *Defect {
	return &Defect{Kind: k, Diagram: v.d, Node: n}
}

// Start returns the node the flow begins at: the initial node's
// successor. An empty diagram starts nowhere (nil, nil); a diagram with
// nodes but no initial node is DefectNoInitial.
func (v *FlowView) Start() (Node, *Defect) {
	if ini := v.d.Initial(); ini != nil {
		return v.Successor(ini)
	}
	if len(v.d.Nodes()) == 0 {
		return nil, nil
	}
	return nil, v.Defect(DefectNoInitial, nil)
}

// Successor returns n's single successor, nil at the end of the flow, or
// DefectDangling / DefectSuccessors.
func (v *FlowView) Successor(n Node) (Node, *Defect) {
	switch out := v.adj[v.pos(n)]; {
	case len(out) == 0:
		return nil, nil
	case len(out) > 1:
		return nil, v.Defect(DefectSuccessors, n)
	case v.nodes[out[0]] == nil:
		return nil, v.Defect(DefectDangling, n)
	default:
		return v.nodes[out[0]], nil
	}
}

// Decision returns the classified arms of decision n.
func (v *FlowView) Decision(n Node) *Decision {
	f := &v.info[v.pos(n)]
	if f.dec == nil {
		f.dec = classifyArms(v.d.Outgoing(n.ID()))
	}
	return f.dec
}

// classifyArms sorts a decision's outgoing edges into weighted arms, or
// guarded and else arms.
func classifyArms(out []*Edge) *Decision {
	dec := &Decision{}
	if len(out) > 0 && out[0].Guard == "" && out[0].Weight > 0 {
		dec.Weighted, dec.Arms = true, out
		for _, e := range out {
			if e.Guard != "" || e.Weight <= 0 {
				dec.Defect = DefectMixedArms
			}
			dec.Total += e.Weight
		}
		return dec
	}
	for _, e := range out {
		switch {
		case e.IsElse():
			dec.Else = append(dec.Else, e)
		case e.Guard == "":
			dec.Defect = DefectUnguardedArm
			return dec
		default:
			dec.Arms = append(dec.Arms, e)
		}
	}
	if len(dec.Arms) == 0 {
		dec.Defect = DefectNoGuardedArm
	}
	return dec
}

// Fork returns fork n's branch heads in model order. DefectForkBranches
// comes with no heads; DefectDanglingFork with the heads before the
// dangling edge, so a consumer can handle those first.
func (v *FlowView) Fork(n Node) (heads []Node, def *Defect) {
	out := v.adj[v.pos(n)]
	if len(out) < 2 {
		return nil, v.Defect(DefectForkBranches, n)
	}
	for _, p := range out {
		if v.nodes[p] == nil {
			return heads, v.Defect(DefectDanglingFork, n)
		}
		heads = append(heads, v.nodes[p])
	}
	return heads, nil
}

// Convergence returns where the arms or branches out of n meet again
// (uml.Convergence over n's edge targets), nil when they never do.
func (v *FlowView) Convergence(n Node) Node {
	p := v.pos(n)
	if f := &v.info[p]; !f.convOK {
		f.conv, f.convOK = v.converge(v.adj[p]), true
	}
	return v.info[p].conv
}

// converge finds the node where the forward paths from the heads at
// positions hp meet again: the first node, in breadth-first order from
// the first head, that is reachable from every head. Identical to the
// package-level Convergence but without per-query map traffic.
func (v *FlowView) converge(hp []int32) Node {
	if len(hp) == 0 {
		return nil
	}
	// base separates this query from everything earlier: seen[p] >= base
	// means an earlier head of THIS query reached p; seen[p] == vid means
	// the current head already did.
	base := v.counter + 1
	var order []int32
	for i, h := range hp {
		v.counter++
		vid := v.counter
		v.queue = append(v.queue[:0], h)
		for len(v.queue) > 0 {
			p := v.queue[0]
			v.queue = v.queue[1:]
			if v.seen[p] == vid {
				continue
			}
			if v.seen[p] >= base {
				v.hits[p]++
			} else {
				v.hits[p] = 1
			}
			v.seen[p] = vid
			if i == 0 {
				order = append(order, p)
			}
			v.queue = append(v.queue, v.adj[p]...)
		}
	}
	want := int32(len(hp))
	for _, p := range order {
		if v.hits[p] == want {
			// A virtual position common to all heads returns nil, exactly
			// as the string-keyed search's d.Node(id) does.
			return v.nodes[p]
		}
	}
	return nil
}

// After returns where the flow goes on once fork n's branches have met:
// past the join node, or at the convergence node when it is no join.
func (v *FlowView) After(n Node) (Node, *Defect) {
	conv := v.Convergence(n)
	if conv != nil && conv.Kind() == KindJoin {
		return v.Successor(conv)
	}
	return conv, nil
}

// Flows hands out one FlowView per diagram of a model, built on first
// use. The zero value is ready to use; it is not safe for concurrent use.
type Flows struct {
	views  map[*Diagram]*FlowView
	active []*Diagram // diagrams whose region walk is in progress
}

// View returns d's flow view.
func (fl *Flows) View(d *Diagram) *FlowView {
	if fl.views[d] == nil {
		if fl.views == nil {
			fl.views = map[*Diagram]*FlowView{}
		}
		fl.views[d] = NewFlowView(d)
	}
	return fl.views[d]
}

// RegionEmitter renders the structured regions a region walk visits.
type RegionEmitter interface {
	// Element renders an action, activity or loop node.
	Element(n Node) error
	// Decision renders decision n: it applies its own policy to
	// dec.Defect, then calls arm once per arm it renders, in order; arm
	// walks the arm's region up to the decision's convergence node.
	Decision(n Node, dec *Decision, arm func(*Edge) error) error
	// Fork renders fork n; branch walks one branch's region up to the
	// fork's convergence node.
	Fork(n Node, heads []Node, branch func(Node) error) error
	// Defect turns a structural defect the walk met into an error.
	Defect(Defect) error
}

// WalkRegions walks d's flow from its initial node as structured
// regions: a sequence, decision arms up to their merge, fork branches up
// to their join. It reports a node reached again on the same path as
// DefectCycle there, and a walk that re-enters d from its own activity or
// loop bodies (Element calling WalkRegions) as DefectNesting.
func (fl *Flows) WalkRegions(d *Diagram, em RegionEmitter) error {
	for _, a := range fl.active {
		if a == d {
			return em.Defect(Defect{Kind: DefectNesting, Diagram: d})
		}
	}
	fl.active = append(fl.active, d)
	defer func() { fl.active = fl.active[:len(fl.active)-1] }()
	v := fl.View(d)
	start, def := v.Start()
	if def != nil {
		return em.Defect(*def)
	}
	defer v.unmark(0)
	return (&regionWalk{v: v, em: em}).seq(start, nil)
}

type regionWalk struct {
	v  *FlowView
	em RegionEmitter
}

// unmark takes every position logged after mark off the path.
func (v *FlowView) unmark(mark int) {
	for _, p := range v.path[mark:] {
		v.info[p].onPath = false
	}
	v.path = v.path[:mark]
}

// seq walks from cur until stop (exclusive), a final node or the end of
// the flow.
func (w *regionWalk) seq(cur, stop Node) error {
	v := w.v
	for cur != nil && cur != stop {
		p := v.pos(cur)
		if v.info[p].onPath {
			return w.em.Defect(*v.Defect(DefectCycle, cur))
		}
		v.info[p].onPath = true
		v.path = append(v.path, p)

		var def *Defect
		var err error
		switch cur.Kind() {
		case KindFinal:
			return nil
		case KindMerge, KindJoin:
			cur, def = v.Successor(cur)
		case KindDecision:
			cur, err = w.decision(cur)
		case KindFork:
			cur, err = w.fork(cur)
		case KindAction, KindActivity, KindLoop:
			if err = w.em.Element(cur); err == nil {
				cur, def = v.Successor(cur)
			}
		default:
			def = v.Defect(DefectControl, cur)
		}
		if def != nil {
			err = w.em.Defect(*def)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// region walks one arm or branch; the path it adds is undone afterwards,
// since the same node may legally sit on several alternative arms.
func (w *regionWalk) region(head, stop Node) error {
	mark := len(w.v.path)
	err := w.seq(head, stop)
	w.v.unmark(mark)
	return err
}

func (w *regionWalk) decision(n Node) (Node, error) {
	conv := w.v.Convergence(n)
	err := w.em.Decision(n, w.v.Decision(n), func(e *Edge) error {
		head := w.v.d.Node(e.To())
		if head == nil {
			return w.em.Defect(*w.v.Defect(DefectDanglingArm, n))
		}
		return w.region(head, conv)
	})
	return conv, err
}

func (w *regionWalk) fork(n Node) (Node, error) {
	heads, def := w.v.Fork(n)
	if def != nil && def.Kind == DefectForkBranches {
		return nil, w.em.Defect(*def)
	}
	conv := w.v.Convergence(n)
	if err := w.em.Fork(n, heads, func(h Node) error { return w.region(h, conv) }); err != nil {
		return nil, err
	}
	if def != nil {
		return nil, w.em.Defect(*def)
	}
	next, def := w.v.After(n)
	if def != nil {
		return nil, w.em.Defect(*def)
	}
	return next, nil
}

package uml_test

import (
	"errors"
	"fmt"
	"testing"

	"prophet/internal/conformance"
	"prophet/internal/modelgen"
	"prophet/internal/uml"
)

// checkView compares a diagram's flow view with the string-keyed
// derivations it replaces: every node's successor against d.Outgoing,
// and every decision's and fork's convergence against uml.Convergence.
// It returns the number of convergence queries made.
func checkView(t *testing.T, d *uml.Diagram) int {
	t.Helper()
	v := uml.NewFlowView(d)
	queries := 0
	for _, n := range d.Nodes() {
		out := d.Outgoing(n.ID())
		next, def := v.Successor(n)
		switch {
		case len(out) > 1:
			if def == nil || def.Kind != uml.DefectSuccessors || next != nil {
				t.Fatalf("diagram %s node %s: %d successors not reported: %v %v", d.Name(), n.ID(), len(out), id(next), def)
			}
		case len(out) == 1 && d.Node(out[0].To()) == nil:
			if def == nil || def.Kind != uml.DefectDangling || next != nil {
				t.Fatalf("diagram %s node %s: dangling edge not reported: %v %v", d.Name(), n.ID(), id(next), def)
			}
		case len(out) == 1:
			if def != nil || next != d.Node(out[0].To()) {
				t.Fatalf("diagram %s node %s: successor %v %v, want %s", d.Name(), n.ID(), id(next), def, out[0].To())
			}
		default:
			if def != nil || next != nil {
				t.Fatalf("diagram %s node %s: no successor expected, got %v %v", d.Name(), n.ID(), id(next), def)
			}
		}
		if k := n.Kind(); k != uml.KindDecision && k != uml.KindFork {
			continue
		}
		want := uml.Convergence(d, targets(d, n))
		// Twice: the second answer comes from the memo.
		for i := 0; i < 2; i++ {
			if got := v.Convergence(n); got != want {
				t.Fatalf("diagram %s node %s: view convergence %v, uml.Convergence %v", d.Name(), n.ID(), id(got), id(want))
			}
		}
		queries++
	}
	return queries
}

// TestFlowViewMatchesConvergence is the differential test of the flow
// view against uml.Convergence, which the interpreter keeps as the
// independent reference: generated models from 10^2 to 10^4 nodes over
// several seeds, plus every conformance corpus model.
func TestFlowViewMatchesConvergence(t *testing.T) {
	for _, nodes := range []int{100, 1000, 10000} {
		for seed := int64(1); seed <= 3; seed++ {
			if testing.Short() && nodes > 1000 {
				continue
			}
			m := modelgen.MustGenerate(modelgen.Params{Seed: seed, Nodes: nodes})
			queries := 0
			for _, d := range m.Diagrams() {
				queries += checkView(t, d)
			}
			if queries == 0 {
				t.Fatalf("nodes %d seed %d: no decisions or forks generated", nodes, seed)
			}
		}
	}
	corpusDir, _, err := conformance.DefaultDirs()
	if err != nil {
		t.Fatal(err)
	}
	entries, err := conformance.Corpus(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		for _, d := range e.Model.Diagrams() {
			checkView(t, d)
		}
	}
}

// TestFlowViewConvergenceEdgeCases pins the corner semantics the
// string-keyed search defines: no arms, a single arm, converging and
// non-converging arms, and dangling arm targets.
func TestFlowViewConvergenceEdgeCases(t *testing.T) {
	m := uml.NewModel("m")
	d, _ := m.AddDiagram("main")
	node := func(k uml.Kind) uml.Node {
		n, err := m.AddControl(d, "", k)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	connect := func(from, to uml.Node) {
		if _, err := d.Connect(from.ID(), to.ID(), ""); err != nil {
			t.Fatal(err)
		}
	}
	a, b, j := node(uml.KindMerge), node(uml.KindMerge), node(uml.KindMerge)
	connect(a, j)
	connect(b, j)
	none, single, both, apart, ghost := node(uml.KindFork), node(uml.KindFork), node(uml.KindFork),
		node(uml.KindFork), node(uml.KindFork)
	fin := node(uml.KindFinal)
	connect(single, a)
	connect(both, a)
	connect(both, b)
	connect(apart, j)
	connect(apart, fin)
	connect(ghost, a)
	uml.ConnectDangling(d, ghost.ID(), "ghost")

	v := uml.NewFlowView(d)
	for _, tc := range []struct {
		name string
		n    uml.Node
		want uml.Node
	}{
		{"no arms", none, nil},
		{"single arm", single, a},
		{"two arms", both, j},
		{"never converging", apart, nil},
		{"dangling arm", ghost, nil},
		{"re-query after a dangling arm", both, j},
	} {
		if got := v.Convergence(tc.n); got != tc.want {
			t.Errorf("%s: got %v, want %v", tc.name, id(got), id(tc.want))
		}
		if got, want := v.Convergence(tc.n), uml.Convergence(d, targets(d, tc.n)); got != want {
			t.Errorf("%s: view %v, uml.Convergence %v", tc.name, id(got), id(want))
		}
	}
}

func targets(d *uml.Diagram, n uml.Node) []string {
	var out []string
	for _, e := range d.Outgoing(n.ID()) {
		out = append(out, e.To())
	}
	return out
}

func id(n uml.Node) string {
	if n == nil {
		return "<nil>"
	}
	return n.ID()
}

// fuzzDiagram decodes bytes into one small, arbitrarily shaped diagram:
// any node kinds, any edges, guards, weights and dangling targets.
func fuzzDiagram(data []byte) *uml.Diagram {
	m := uml.NewModel("fuzz")
	d, _ := m.AddDiagram("main")
	if len(data) == 0 {
		return d
	}
	n := 2 + int(data[0])%14
	data = data[1:]
	kinds := []uml.Kind{uml.KindAction, uml.KindDecision, uml.KindMerge, uml.KindFork,
		uml.KindJoin, uml.KindFinal, uml.KindAction, uml.KindInitial}
	var nodes []uml.Node
	for i := 0; i < n; i++ {
		k := uml.KindInitial
		if i > 0 && i-1 < len(data) {
			k = kinds[data[i-1]%byte(len(kinds))]
		} else if i > 0 {
			k = uml.KindAction
		}
		var node uml.Node
		if k == uml.KindAction {
			node, _ = m.AddAction(d, "", fmt.Sprintf("A%d", i))
		} else {
			node, _ = m.AddControl(d, "", k)
		}
		nodes = append(nodes, node)
	}
	if n-1 < len(data) {
		data = data[n-1:]
	} else {
		data = nil
	}
	guards := []string{"", "else", "g > 0"}
	// At most 4n edges: convergence queries grow with the edge count.
	for k := 0; k < 4*n && len(data) >= 3; k, data = k+1, data[3:] {
		from := nodes[int(data[0])%n]
		var e *uml.Edge
		if to := int(data[1]) % (n + 1); to == n {
			e = uml.ConnectDangling(d, from.ID(), "ghost")
		} else {
			e, _ = d.Connect(from.ID(), nodes[to].ID(), "")
		}
		e.Guard = guards[data[2]%3]
		e.Weight = float64(data[2]/3%3) * 0.5
	}
	return d
}

// errBudget stops a walk whose event log outgrows walkBudget: arms that
// never converge re-walk what follows them, so a small diagram with
// repeated arms can have exponentially many paths.
var errBudget = errors.New("walk budget exhausted")

const walkBudget = 2000

// record appends one walk event, failing once the budget is spent.
func record(log *[]string, event string) error {
	if len(*log) >= walkBudget {
		return errBudget
	}
	*log = append(*log, event)
	return nil
}

// refWalk is the string-keyed structured walk the generators used before
// the region walk: it copies the on-path set for every arm and branch.
// It renders into the same event log as logEmitter, so both walks can be
// compared event for event.
type refWalk struct {
	d   *uml.Diagram
	log *[]string
}

func (r refWalk) defect(kind uml.DefectKind, n uml.Node) error {
	return fmt.Errorf("defect %d at %s", kind, id(n))
}

func (r refWalk) successor(n uml.Node) (uml.Node, error) {
	out := r.d.Outgoing(n.ID())
	switch {
	case len(out) == 0:
		return nil, nil
	case len(out) > 1:
		return nil, r.defect(uml.DefectSuccessors, n)
	case r.d.Node(out[0].To()) == nil:
		return nil, r.defect(uml.DefectDangling, n)
	}
	return r.d.Node(out[0].To()), nil
}

func (r refWalk) walk() error {
	ini := r.d.Initial()
	if ini == nil {
		if len(r.d.Nodes()) == 0 {
			return nil
		}
		return r.defect(uml.DefectNoInitial, nil)
	}
	start, err := r.successor(ini)
	if err != nil {
		return err
	}
	return r.seq(start, nil, map[string]bool{})
}

func (r refWalk) branch(head, stop uml.Node, onPath map[string]bool) error {
	cp := make(map[string]bool, len(onPath))
	for k := range onPath {
		cp[k] = true
	}
	if err := record(r.log, "arm "+id(head)); err != nil {
		return err
	}
	return r.seq(head, stop, cp)
}

func (r refWalk) seq(cur, stop uml.Node, onPath map[string]bool) error {
	for cur != nil && cur != stop {
		if onPath[cur.ID()] {
			return r.defect(uml.DefectCycle, cur)
		}
		onPath[cur.ID()] = true
		out := r.d.Outgoing(cur.ID())
		heads := make([]string, len(out))
		for i, e := range out {
			heads[i] = e.To()
		}
		var err error
		switch cur.Kind() {
		case uml.KindFinal:
			return nil
		case uml.KindMerge, uml.KindJoin:
			cur, err = r.successor(cur)
		case uml.KindAction:
			if err = record(r.log, "element "+cur.ID()); err == nil {
				cur, err = r.successor(cur)
			}
		case uml.KindDecision:
			n, conv := cur, uml.Convergence(r.d, heads)
			if err := record(r.log, "decision "+n.ID()); err != nil {
				return err
			}
			for _, e := range out {
				head := r.d.Node(e.To())
				if head == nil {
					return r.defect(uml.DefectDanglingArm, n)
				}
				if err := r.branch(head, conv, onPath); err != nil {
					return err
				}
			}
			cur = conv
		case uml.KindFork:
			n, conv := cur, uml.Convergence(r.d, heads)
			if len(out) < 2 {
				return r.defect(uml.DefectForkBranches, n)
			}
			if err := record(r.log, "fork "+n.ID()); err != nil {
				return err
			}
			for _, e := range out {
				head := r.d.Node(e.To())
				if head == nil {
					return r.defect(uml.DefectDanglingFork, n)
				}
				if err := r.branch(head, conv, onPath); err != nil {
					return err
				}
			}
			cur = conv
			if conv != nil && conv.Kind() == uml.KindJoin {
				cur, err = r.successor(conv)
			}
		default:
			return r.defect(uml.DefectControl, cur)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// logEmitter renders a region walk into an event log; its Decision walks
// every outgoing arm in model order, whatever the arms' classification.
type logEmitter struct {
	log *[]string
}

func (l logEmitter) Element(n uml.Node) error {
	return record(l.log, "element "+n.ID())
}

func (l logEmitter) Decision(n uml.Node, _ *uml.Decision, arm func(*uml.Edge) error) error {
	if err := record(l.log, "decision "+n.ID()); err != nil {
		return err
	}
	for _, e := range n.Diagram().Outgoing(n.ID()) {
		if head := n.Diagram().Node(e.To()); head != nil {
			if err := record(l.log, "arm "+head.ID()); err != nil {
				return err
			}
		}
		if err := arm(e); err != nil {
			return err
		}
	}
	return nil
}

func (l logEmitter) Fork(n uml.Node, heads []uml.Node, branch func(uml.Node) error) error {
	if err := record(l.log, "fork "+n.ID()); err != nil {
		return err
	}
	for _, h := range heads {
		if err := record(l.log, "arm "+h.ID()); err != nil {
			return err
		}
		if err := branch(h); err != nil {
			return err
		}
	}
	return nil
}

func (l logEmitter) Defect(def uml.Defect) error {
	return fmt.Errorf("defect %d at %s", def.Kind, id(def.Node))
}

// FuzzFlowView checks the flow view and the region walk on arbitrary
// small diagrams: the view's successors and convergences agree with the
// string-keyed derivations, decision classification never panics, and
// the region walk (on-path undo log) visits exactly what the reference
// walk (on-path map copy per arm) visits and fails with the same defect.
func FuzzFlowView(f *testing.F) {
	for _, seed := range [][]byte{
		{},
		{0},
		// initial -> action -> final
		{1, 0, 5, 0, 1, 0, 1, 2, 0},
		// diamond: initial -> decision -> a | b -> merge -> final
		{5, 1, 0, 0, 2, 5, 0, 1, 0, 1, 2, 2, 1, 3, 1, 2, 4, 0, 3, 4, 0, 4, 5, 0},
		// fork/join with a dangling branch
		{4, 3, 0, 4, 0, 1, 0, 1, 2, 0, 1, 5, 0, 2, 3, 0},
		// unstructured cycle a -> b -> a
		{2, 0, 0, 0, 1, 0, 1, 2, 0, 2, 1, 0},
		// else arms, weights and guards mixed on one decision
		{6, 1, 0, 0, 0, 5, 2, 0, 1, 0, 1, 2, 1, 1, 3, 4, 1, 4, 8, 2, 5, 0, 3, 5, 0, 4, 5, 0},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d := fuzzDiagram(data)
		checkView(t, d)
		v := uml.NewFlowView(d)
		for _, n := range d.Nodes() {
			switch n.Kind() {
			case uml.KindDecision:
				dec := v.Decision(n)
				if dec.Weighted && len(dec.Arms) != len(d.Outgoing(n.ID())) {
					t.Fatalf("weighted decision %s lost arms", n.ID())
				}
			case uml.KindFork:
				heads, def := v.Fork(n)
				if def == nil && len(heads) != len(d.Outgoing(n.ID())) {
					t.Fatalf("fork %s lost branches", n.ID())
				}
			}
		}
		var want, got []string
		werr := refWalk{d: d, log: &want}.walk()
		var fl uml.Flows
		gerr := fl.WalkRegions(d, logEmitter{log: &got})
		if fmt.Sprint(werr) != fmt.Sprint(gerr) {
			t.Fatalf("walk error: region walk %v, reference %v", gerr, werr)
		}
		if fmt.Sprint(want) != fmt.Sprint(got) {
			t.Fatalf("walk events differ:\n  region walk %v\n  reference   %v", got, want)
		}
		// A second walk over the same view starts from a clean path.
		var again []string
		if err := fl.WalkRegions(d, logEmitter{log: &again}); fmt.Sprint(err) != fmt.Sprint(gerr) || fmt.Sprint(again) != fmt.Sprint(got) {
			t.Fatalf("second walk differs: %v %v", err, again)
		}
	})
}

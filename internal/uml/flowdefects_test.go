package uml_test

import (
	"testing"

	"prophet/internal/analytic"
	"prophet/internal/builder"
	"prophet/internal/cppgen"
	"prophet/internal/gogen"
	"prophet/internal/interp"
	"prophet/internal/lower"
	"prophet/internal/uml"
)

// flowDefectSteps bounds the runaway guard of the two consumers that run
// cyclic flows (lower and analytic), so the cycle cases fail fast.
const flowDefectSteps = 100

// dangle adds an edge from the named node of the main diagram to a node
// ID the diagram does not contain.
func dangle(m *uml.Model, from string) *uml.Edge {
	d := m.Main()
	return uml.ConnectDangling(d, d.NodeByName(from).ID(), "ghost")
}

// TestFlowDefectMessages pins, for every flow defect, the exact error
// each flow consumer reports: the C++ and Go generators, the analytic
// solver and the lowered executor (through Run, since lowering bakes
// defects into error ops). An empty string means the consumer accepts the
// model. Each consumer keeps its own wording and its own policy, such as
// cppgen refusing a second else arm that the others accept.
func TestFlowDefectMessages(t *testing.T) {
	cases := []struct {
		name                          string
		model                         func() *uml.Model
		cpp, gogen, analytic, lowered string
	}{
		{
			name: "no initial node",
			model: func() *uml.Model {
				b := builder.New("m")
				d := b.Diagram("main")
				d.Action("A").Cost("1")
				return builder.MustBuild(b)
			},
			cpp:      `cppgen: diagram "main" has no initial node`,
			gogen:    `gogen: diagram "main" has no initial node`,
			analytic: `analytic: diagram "main" has no initial node`,
			lowered:  `lower: sim: process "p0" failed: lower: diagram "main" has no initial node`,
		},
		{
			name: "dangling edge",
			model: func() *uml.Model {
				b := builder.New("m")
				d := b.Diagram("main")
				d.Initial()
				d.Action("A").Cost("1")
				d.Chain("initial", "A")
				m := builder.MustBuild(b)
				dangle(m, "A")
				return m
			},
			cpp:      `cppgen: diagram "main": dangling edge from "A"`,
			gogen:    `gogen: diagram "main": dangling edge from "A"`,
			analytic: `analytic: diagram "main": dangling edge from "A"`,
			lowered:  `lower: sim: process "p0" failed: lower: diagram "main": dangling edge from "A"`,
		},
		{
			name: "multiple successors",
			model: func() *uml.Model {
				b := builder.New("m")
				d := b.Diagram("main")
				d.Initial()
				d.Action("A").Cost("1")
				d.Action("B").Cost("1")
				d.Action("C").Cost("1")
				d.Final()
				d.Flow("initial", "A").Flow("A", "B").Flow("A", "C").
					Flow("B", "final").Flow("C", "final")
				return builder.MustBuild(b)
			},
			cpp:      `cppgen: diagram "main": Action "A" has 2 successors`,
			gogen:    `gogen: diagram "main": Action "A" has 2 successors`,
			analytic: `analytic: diagram "main": Action "A" has 2 successors`,
			lowered:  `lower: sim: process "p0" failed: lower: diagram "main": Action "A" has 2 successors`,
		},
		{
			name: "unexpected control kind mid-flow",
			model: func() *uml.Model {
				b := builder.New("m")
				d := b.Diagram("main")
				d.Initial()
				d.Action("A").Cost("1")
				d.Chain("initial", "A", "initial")
				return builder.MustBuild(b)
			},
			cpp:      `cppgen: diagram "main": unexpected InitialNode mid-flow`,
			gogen:    `gogen: diagram "main": unexpected InitialNode mid-flow`,
			analytic: `analytic: diagram "main": unexpected InitialNode mid-flow`,
			lowered:  `lower: sim: process "p0" failed: lower: diagram "main": unexpected InitialNode mid-flow`,
		},
		{
			name: "unguarded arm",
			model: func() *uml.Model {
				b := builder.New("m")
				d := b.Diagram("main")
				d.Initial()
				d.Decision("pick")
				d.Action("A").Cost("1")
				d.Action("B").Cost("2")
				d.Merge("m")
				d.Final()
				d.Flow("initial", "pick").Flow("pick", "A").FlowIf("pick", "B", "1 > 0").
					Flow("A", "m").Flow("B", "m").Flow("m", "final")
				return builder.MustBuild(b)
			},
			cpp:      `cppgen: diagram "main": unguarded branch out of decision "pick"`,
			gogen:    `gogen: diagram "main": unguarded branch out of decision`,
			analytic: `analytic: diagram "main": decision "pick" mixes weighted and guarded branches`,
			lowered:  `lower: sim: process "p0" failed: lower: diagram "main": unguarded branch out of decision`,
		},
		{
			name: "mixed weighted and guarded arms",
			model: func() *uml.Model {
				b := builder.New("m")
				d := b.Diagram("main")
				d.Initial()
				d.Decision("pick")
				d.Action("A").Cost("1")
				d.Action("B").Cost("2")
				d.Merge("m")
				d.Final()
				d.Flow("initial", "pick").FlowWeighted("pick", "A", 1).FlowIf("pick", "B", "1 > 0").
					Flow("A", "m").Flow("B", "m").Flow("m", "final")
				return builder.MustBuild(b)
			},
			cpp:      `cppgen: diagram "main": decision "pick" mixes weighted and guarded branches`,
			gogen:    `gogen: diagram "main": decision "pick" mixes weighted and guarded branches`,
			analytic: `analytic: diagram "main": decision "pick" mixes weighted and guarded branches`,
			lowered:  `lower: sim: process "p0" failed: lower: diagram "main": decision "pick" mixes weighted and guarded branches`,
		},
		{
			name: "only an else arm",
			model: func() *uml.Model {
				b := builder.New("m")
				d := b.Diagram("main")
				d.Initial()
				d.Decision("pick")
				d.Action("A").Cost("1")
				d.Final()
				d.Flow("initial", "pick").FlowIf("pick", "A", "else").Flow("A", "final")
				return builder.MustBuild(b)
			},
			cpp:   `cppgen: diagram "main": decision "pick" has 1 branch(es)`,
			gogen: `gogen: diagram "main": decision "pick" needs at least one guarded branch`,
		},
		{
			name: "two else arms",
			model: func() *uml.Model {
				b := builder.New("m")
				d := b.Diagram("main")
				d.Initial()
				d.Decision("pick")
				d.Action("A").Cost("1")
				d.Action("B").Cost("2")
				d.Action("C").Cost("4")
				d.Merge("m")
				d.Final()
				d.Flow("initial", "pick").FlowIf("pick", "A", "0 > 1").
					FlowIf("pick", "B", "else").FlowIf("pick", "C", "else").
					Flow("A", "m").Flow("B", "m").Flow("C", "m").Flow("m", "final")
				return builder.MustBuild(b)
			},
			cpp: `cppgen: diagram "main": decision "pick" has two else branches`,
		},
		{
			name: "dangling decision arm",
			model: func() *uml.Model {
				b := builder.New("m")
				d := b.Diagram("main")
				d.Initial()
				d.Decision("pick")
				d.Action("A").Cost("1")
				d.Final()
				d.Flow("initial", "pick").FlowIf("pick", "A", "0 > 1").Flow("A", "final")
				m := builder.MustBuild(b)
				dangle(m, "pick").Guard = "else"
				return m
			},
			cpp:   `cppgen: diagram "main": dangling branch edge`,
			gogen: `gogen: diagram "main": dangling branch edge`,
		},
		{
			name: "unguarded arm after a true guard",
			model: func() *uml.Model {
				b := builder.New("m")
				d := b.Diagram("main")
				d.Initial()
				d.Decision("pick")
				d.Action("A").Cost("1")
				d.Action("B").Cost("2")
				d.Merge("m")
				d.Final()
				d.Flow("initial", "pick").FlowIf("pick", "A", "1 > 0").Flow("pick", "B").
					Flow("A", "m").Flow("B", "m").Flow("m", "final")
				return builder.MustBuild(b)
			},
			cpp:   `cppgen: diagram "main": unguarded branch out of decision "pick"`,
			gogen: `gogen: diagram "main": unguarded branch out of decision`,
		},
		{
			name: "dangling weighted arm",
			model: func() *uml.Model {
				b := builder.New("m")
				d := b.Diagram("main")
				d.Initial()
				d.Decision("pick")
				d.Action("A").Cost("1")
				d.Final()
				d.Flow("initial", "pick").FlowWeighted("pick", "A", 1).Flow("A", "final")
				m := builder.MustBuild(b)
				dangle(m, "pick").Weight = 1
				return m
			},
			cpp:      `cppgen: diagram "main": dangling branch edge`,
			gogen:    `gogen: diagram "main": dangling branch edge`,
			analytic: `analytic: diagram "main": dangling decision edge`,
		},
		{
			name: "fork with one branch",
			model: func() *uml.Model {
				b := builder.New("m")
				d := b.Diagram("main")
				d.Initial()
				d.Fork("split")
				d.Action("A").Cost("1")
				d.Final()
				d.Chain("initial", "split", "A", "final")
				return builder.MustBuild(b)
			},
			cpp:      `cppgen: diagram "main": fork "split" has 1 branch(es)`,
			gogen:    `gogen: diagram "main": fork "split" has 1 branch(es)`,
			analytic: `analytic: diagram "main": fork "split" has 1 branch(es)`,
			lowered:  `lower: sim: process "p0" failed: lower: diagram "main": fork "split" has 1 branch(es)`,
		},
		{
			name: "dangling fork edge",
			model: func() *uml.Model {
				b := builder.New("m")
				d := b.Diagram("main")
				d.Initial()
				d.Fork("split")
				d.Action("A").Cost("1")
				d.Join("join")
				d.Final()
				d.Chain("initial", "split", "A", "join", "final")
				m := builder.MustBuild(b)
				dangle(m, "split")
				return m
			},
			cpp:      `cppgen: diagram "main": dangling fork edge`,
			gogen:    `gogen: diagram "main": dangling fork edge`,
			analytic: `analytic: diagram "main": dangling fork edge`,
			lowered:  `lower: sim: process "p0" failed: lower: diagram "main": dangling fork edge`,
		},
		{
			name: "unstructured cycle",
			model: func() *uml.Model {
				b := builder.New("m")
				d := b.Diagram("main")
				d.Initial()
				d.Action("A").Cost("1")
				d.Action("B").Cost("1")
				d.Chain("initial", "A", "B", "A")
				return builder.MustBuild(b)
			},
			cpp:      `cppgen: diagram "main": unstructured cycle through node "A"; model loops with <<loop+>> elements`,
			gogen:    `gogen: diagram "main": unstructured cycle through node "A"`,
			analytic: `analytic: exceeded 100 element executions at "A" (unbounded loop?)`,
			lowered:  `lower: sim: process "p0" failed: lower: process 0 exceeded 100 element executions at "A" (unbounded loop?)`,
		},
		{
			name: "cyclic activity nesting",
			model: func() *uml.Model {
				b := builder.New("m")
				d := b.Diagram("main")
				d.Initial()
				d.Activity("Outer", "sub")
				d.Final()
				d.Chain("initial", "Outer", "final")
				s := b.Diagram("sub")
				s.Initial()
				s.Activity("Inner", "main")
				s.Final()
				s.Chain("initial", "Inner", "final")
				return builder.MustBuild(b)
			},
			cpp:      `cppgen: cyclic activity nesting through diagram "main"`,
			gogen:    `gogen: cyclic activity nesting through diagram "main"`,
			analytic: `analytic: exceeded 100 element executions at "Outer" (unbounded loop?)`,
			lowered:  `lower: sim: process "p0" failed: lower: process 0 exceeded 100 element executions at "Outer" (unbounded loop?)`,
		},
	}
	errString := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			check := func(consumer, want string, err error) {
				t.Helper()
				if got := errString(err); got != want {
					t.Errorf("%s:\n  got  %q\n  want %q", consumer, got, want)
				}
			}
			_, err := cppgen.New().Generate(tc.model())
			check("cppgen", tc.cpp, err)
			_, err = gogen.New().Generate(tc.model())
			check("gogen", tc.gogen, err)
			_, err = analytic.Solve(tc.model(), analytic.Config{MaxSteps: flowDefectSteps})
			check("analytic", tc.analytic, err)
			pr, err := interp.Compile(tc.model(), nil)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			_, err = lower.Lower(pr).Run(interp.Config{MaxSteps: flowDefectSteps})
			check("lower", tc.lowered, err)
		})
	}
}

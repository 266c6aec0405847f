package lower

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"prophet/internal/builder"
	"prophet/internal/interp"
	"prophet/internal/machine"
	"prophet/internal/sim"
	"prophet/internal/trace"
	"prophet/internal/uml"
)

// renderTrace serializes a trace for exact comparison.
func renderTrace(t *testing.T, tr *trace.Trace) string {
	t.Helper()
	var sb strings.Builder
	if err := trace.Write(&sb, tr); err != nil {
		t.Fatalf("render trace: %v", err)
	}
	return sb.String()
}

// normalize maps backend error prefixes to a common form so messages can
// be compared verbatim across backends.
func normalize(err error) string {
	if err == nil {
		return ""
	}
	return strings.ReplaceAll(err.Error(), "lower:", "interp:")
}

// assertIdentical runs the model under both backends and requires
// bit-identical results: same error text (modulo prefix), same makespan
// bits, same trace bytes, same globals, same per-node CPU utilization.
func assertIdentical(t *testing.T, m *uml.Model, cfg interp.Config) {
	t.Helper()
	pr, err := interp.Compile(m, nil)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	want, werr := pr.Run(cfg)
	got, gerr := Lower(pr).Run(cfg)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("error mismatch:\n  interp:  %v\n  lowered: %v", werr, gerr)
	}
	if werr != nil {
		if normalize(werr) != normalize(gerr) {
			t.Fatalf("error text mismatch:\n  interp:  %v\n  lowered: %v", werr, gerr)
		}
		return
	}
	if w, g := want.Makespan, got.Makespan; w != g && !(math.IsNaN(w) && math.IsNaN(g)) {
		t.Errorf("makespan: interp %v, lowered %v", w, g)
	}
	if w, g := renderTrace(t, want.Trace), renderTrace(t, got.Trace); w != g {
		t.Errorf("trace mismatch:\n--- interp ---\n%s\n--- lowered ---\n%s", w, g)
	}
	if len(want.CPUUtilization) != len(got.CPUUtilization) {
		t.Fatalf("cpu utilization arity: %d vs %d", len(want.CPUUtilization), len(got.CPUUtilization))
	}
	for i := range want.CPUUtilization {
		if w, g := want.CPUUtilization[i], got.CPUUtilization[i]; w != g && !(math.IsNaN(w) && math.IsNaN(g)) {
			t.Errorf("cpu[%d]: interp %v, lowered %v", i, w, g)
		}
	}
	if len(want.Globals) != len(got.Globals) {
		t.Errorf("globals arity: interp %v, lowered %v", want.Globals, got.Globals)
	}
	for k, w := range want.Globals {
		g, ok := got.Globals[k]
		if !ok {
			t.Errorf("global %q missing from lowered result", k)
			continue
		}
		if w != g && !(math.IsNaN(w) && math.IsNaN(g)) {
			t.Errorf("global %q: interp %v, lowered %v", k, w, g)
		}
	}
}

// TestLowerNodeKinds covers every lowerable node kind against the
// interpreter, in both trivial and composed flows.
func TestLowerNodeKinds(t *testing.T) {
	cases := []struct {
		name  string
		model func() *uml.Model
		cfg   interp.Config
	}{
		{
			name: "plain-action-no-stereotype",
			model: func() *uml.Model {
				b := builder.New("plain")
				d := b.Diagram("main")
				d.Initial()
				n := d.Action("NotPerf")
				n.Node().SetStereotype("") // plain UML action: no cost, no trace
				d.Final()
				d.Chain("initial", "NotPerf", "final")
				return builder.MustBuild(b)
			},
		},
		{
			name: "action-cost",
			model: func() *uml.Model {
				b := builder.New("cost")
				d := b.Diagram("main")
				d.Initial()
				d.Action("Work").Cost("2.5")
				d.Final()
				d.Chain("initial", "Work", "final")
				return builder.MustBuild(b)
			},
		},
		{
			name: "action-code-assignments",
			model: func() *uml.Model {
				b := builder.New("code")
				b.Global("GV", "double").Local("LV", "double")
				d := b.Diagram("main")
				d.Initial()
				d.Action("Set").Code("GV = 10; LV = GV * 2; fresh = LV + 1").Cost("GV + LV + fresh")
				d.Final()
				d.Chain("initial", "Set", "final")
				return builder.MustBuild(b)
			},
		},
		{
			name: "activity-nesting-with-cost",
			model: func() *uml.Model {
				b := builder.New("nest")
				d := b.Diagram("main")
				d.Initial()
				d.Activity("Outer", "inner").Cost("1")
				d.Final()
				d.Chain("initial", "Outer", "final")
				in := b.Diagram("inner")
				in.Initial()
				in.Action("Leaf").Cost("0.5")
				in.Final()
				in.Chain("initial", "Leaf", "final")
				return builder.MustBuild(b)
			},
		},
		{
			name: "loop-with-iteration-variable",
			model: func() *uml.Model {
				b := builder.New("loop")
				b.Global("acc", "double")
				d := b.Diagram("main")
				d.Initial()
				d.Loop("Reps", "4", "body").Var("i")
				d.Final()
				d.Chain("initial", "Reps", "final")
				body := b.Diagram("body")
				body.Initial()
				body.Action("Step").Cost("i + 1").Code("acc = acc + i")
				body.Final()
				body.Chain("initial", "Step", "final")
				return builder.MustBuild(b)
			},
		},
		{
			name: "loop-var-shadows-global",
			model: func() *uml.Model {
				b := builder.New("shadow")
				b.GlobalInit("i", "double", "100")
				d := b.Diagram("main")
				d.Initial()
				d.Action("Before").Cost("i") // reads the global
				d.Loop("Reps", "3", "body").Var("i")
				d.Action("After").Cost("i") // global is restored after the loop
				d.Final()
				d.Chain("initial", "Before", "Reps", "After", "final")
				body := b.Diagram("body")
				body.Initial()
				body.Action("Step").Cost("i") // reads the iteration index
				body.Final()
				body.Chain("initial", "Step", "final")
				return builder.MustBuild(b)
			},
		},
		{
			name: "decision-guarded-with-else",
			model: func() *uml.Model {
				b := builder.New("guard")
				b.GlobalInit("x", "double", "5")
				d := b.Diagram("main")
				d.Initial()
				d.Decision("pick")
				d.Action("Low").Cost("1")
				d.Action("High").Cost("2")
				d.Merge("m")
				d.Final()
				d.Flow("initial", "pick").
					FlowIf("pick", "Low", "x < 3").
					FlowIf("pick", "High", "else").
					Flow("Low", "m").
					Flow("High", "m").
					Flow("m", "final")
				return builder.MustBuild(b)
			},
		},
		{
			name: "decision-weighted",
			model: func() *uml.Model {
				b := builder.New("weighted")
				d := b.Diagram("main")
				d.Initial()
				d.Loop("Draws", "20", "one")
				d.Final()
				d.Chain("initial", "Draws", "final")
				one := b.Diagram("one")
				one.Initial()
				one.Decision("coin")
				one.Action("Heads").Cost("1")
				one.Action("Tails").Cost("10")
				one.Merge("m")
				one.Final()
				one.Flow("initial", "coin").
					FlowWeighted("coin", "Heads", 0.7).
					FlowWeighted("coin", "Tails", 0.3).
					Flow("Heads", "m").
					Flow("Tails", "m").
					Flow("m", "final")
				return builder.MustBuild(b)
			},
			cfg: interp.Config{Seed: 42},
		},
		{
			name: "fork-join",
			model: func() *uml.Model {
				b := builder.New("forkjoin")
				d := b.Diagram("main")
				d.Initial()
				d.Fork("split")
				d.Action("A").Cost("1")
				d.Action("B").Cost("2")
				d.Join("meet")
				d.Action("After").Cost("0.5")
				d.Final()
				d.Flow("initial", "split").
					Flow("split", "A").
					Flow("split", "B").
					Flow("A", "meet").
					Flow("B", "meet").
					Flow("meet", "After").
					Flow("After", "final")
				return builder.MustBuild(b)
			},
		},
		{
			name: "parallel-region-with-critical",
			model: func() *uml.Model {
				b := builder.New("omp")
				d := b.Diagram("main")
				d.Initial()
				par := d.Activity("Par", "body")
				par.Node().SetStereotype("omp_parallel")
				d.Final()
				d.Chain("initial", "Par", "final")
				body := b.Diagram("body")
				body.Initial()
				body.Action("Work").Cost("tid + 1")
				crit := body.Action("Lock").Cost("0.25")
				crit.Node().SetStereotype("omp_critical")
				body.Final()
				body.Chain("initial", "Work", "Lock", "final")
				return builder.MustBuild(b)
			},
			cfg: interp.Config{Params: machine.SystemParams{Nodes: 1, ProcessorsPerNode: 4, Processes: 1, Threads: 4}},
		},
		{
			name: "mpi-ring-sendrecv",
			model: func() *uml.Model {
				b := builder.New("ring")
				d := b.Diagram("main")
				d.Initial()
				n := d.MPI("Shift", "mpi_sendrecv")
				n.Tag("dest", "(pid + 1) % processes").
					Tag("src", "(pid + processes - 1) % processes").
					Tag("size", "1024")
				d.Final()
				d.Chain("initial", "Shift", "final")
				return builder.MustBuild(b)
			},
			cfg: interp.Config{Params: machine.SystemParams{Nodes: 2, ProcessorsPerNode: 1, Processes: 4, Threads: 1}},
		},
		{
			name: "mpi-send-recv-pair",
			model: func() *uml.Model {
				b := builder.New("pair")
				d := b.Diagram("main")
				d.Initial()
				d.Decision("rank")
				s := d.MPI("Tx", "mpi_send")
				s.Tag("dest", "1").Tag("size", "4096")
				r := d.MPI("Rx", "mpi_recv")
				r.Tag("src", "0")
				d.Merge("m")
				d.Final()
				d.Flow("initial", "rank").
					FlowIf("rank", "Tx", "pid == 0").
					FlowIf("rank", "Rx", "else").
					Flow("Tx", "m").
					Flow("Rx", "m").
					Flow("m", "final")
				return builder.MustBuild(b)
			},
			cfg: interp.Config{Params: machine.SystemParams{Nodes: 1, ProcessorsPerNode: 2, Processes: 2, Threads: 1}},
		},
		{
			name: "mpi-collectives",
			model: func() *uml.Model {
				b := builder.New("coll")
				d := b.Diagram("main")
				d.Initial()
				d.Action("Work").Cost("pid + 1")
				bar := d.MPI("Sync", "mpi_barrier")
				_ = bar
				bc := d.MPI("Share", "mpi_bcast")
				bc.Tag("size", "512")
				rd := d.MPI("Sum", "mpi_reduce")
				rd.Tag("size", "512")
				d.Final()
				d.Chain("initial", "Work", "Sync", "Share", "Sum", "final")
				return builder.MustBuild(b)
			},
			cfg: interp.Config{Params: machine.SystemParams{Nodes: 2, ProcessorsPerNode: 1, Processes: 4, Threads: 1}},
		},
		{
			name: "collectives-single-process-direct",
			model: func() *uml.Model {
				b := builder.New("coll1")
				d := b.Diagram("main")
				d.Initial()
				d.Action("Work").Cost("3")
				d.MPI("Sync", "mpi_barrier")
				bc := d.MPI("Share", "mpi_bcast")
				bc.Tag("size", "512")
				d.Final()
				d.Chain("initial", "Work", "Sync", "Share", "final")
				return builder.MustBuild(b)
			},
		},
		{
			name: "functions-and-local-inits",
			model: func() *uml.Model {
				b := builder.New("funcs")
				b.Function("F", []string{"n"}, "n * base + offset").
					GlobalInit("base", "double", "2").
					LocalInit("offset", "double", "base + pid")
				d := b.Diagram("main")
				d.Initial()
				d.Action("Work").Cost("F(3)")
				d.Final()
				d.Chain("initial", "Work", "final")
				return builder.MustBuild(b)
			},
		},
		{
			name: "global-init-chain",
			model: func() *uml.Model {
				b := builder.New("chain")
				b.GlobalInit("a", "double", "2").
					GlobalInit("b", "double", "a * 3").
					GlobalInit("c", "double", "b + processes")
				d := b.Diagram("main")
				d.Initial()
				d.Action("Work").Cost("c")
				d.Final()
				d.Chain("initial", "Work", "final")
				return builder.MustBuild(b)
			},
		},
		{
			name: "config-extras-assignment",
			model: func() *uml.Model {
				b := builder.New("extras")
				d := b.Diagram("main")
				d.Initial()
				// "knob" is only provided via Config.Globals: assignments
				// must update the injected value, not create a local.
				d.Action("Bump").Code("knob = knob + 1").Cost("knob")
				d.Final()
				d.Chain("initial", "Bump", "final")
				return builder.MustBuild(b)
			},
			cfg: interp.Config{Globals: map[string]float64{"knob": 10}},
		},
		{
			name: "cyclic-flow-with-merge",
			model: func() *uml.Model {
				b := builder.New("cycle")
				b.Global("n", "double")
				d := b.Diagram("main")
				d.Initial()
				d.Merge("top")
				d.Action("Tick").Cost("1").Code("n = n + 1")
				d.Decision("check")
				d.Final()
				d.Flow("initial", "top").
					Flow("top", "Tick").
					Flow("Tick", "check").
					FlowIf("check", "top", "n < 5").
					FlowIf("check", "final", "else")
				return builder.MustBuild(b)
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			assertIdentical(t, tc.model(), tc.cfg)
		})
	}
}

// TestLowerStaticErrors: malformed flows must fail with the interpreter's
// message, and only when execution actually reaches the defect.
func TestLowerStaticErrors(t *testing.T) {
	cases := []struct {
		name  string
		model func() *uml.Model
	}{
		{
			name: "no-initial-node",
			model: func() *uml.Model {
				b := builder.New("noinit")
				d := b.Diagram("main")
				d.Action("Orphan").Cost("1")
				return builder.MustBuild(b)
			},
		},
		{
			name: "multiple-successors",
			model: func() *uml.Model {
				b := builder.New("multi")
				d := b.Diagram("main")
				d.Initial()
				d.Action("A").Cost("1")
				d.Action("B").Cost("1")
				d.Action("C").Cost("1")
				d.Final()
				d.Flow("initial", "A").
					Flow("A", "B").
					Flow("A", "C").
					Flow("B", "final").
					Flow("C", "final")
				return builder.MustBuild(b)
			},
		},
		{
			name: "fork-single-branch",
			model: func() *uml.Model {
				b := builder.New("fork1")
				d := b.Diagram("main")
				d.Initial()
				d.Fork("split")
				d.Action("A").Cost("1")
				d.Final()
				d.Flow("initial", "split").
					Flow("split", "A").
					Flow("A", "final")
				return builder.MustBuild(b)
			},
		},
		{
			name: "unsupported-stereotype",
			model: func() *uml.Model {
				b := builder.New("stereo")
				d := b.Diagram("main")
				d.Initial()
				n := d.Action("Odd")
				n.Node().SetStereotype("mystery")
				d.Final()
				d.Chain("initial", "Odd", "final")
				return builder.MustBuild(b)
			},
		},
		{
			name: "unexpected-control-kind",
			model: func() *uml.Model {
				b := builder.New("midinit")
				d := b.Diagram("main")
				d.Initial()
				d.Action("A").Cost("1")
				d.Chain("initial", "A", "initial")
				return builder.MustBuild(b)
			},
		},
		{
			name: "unguarded-arm",
			model: func() *uml.Model {
				b := builder.New("unguarded")
				d := b.Diagram("main")
				d.Initial()
				d.Decision("pick")
				d.Action("A").Cost("1")
				d.Action("B").Cost("2")
				d.Merge("m")
				d.Final()
				d.Flow("initial", "pick").FlowIf("pick", "A", "0 > 1").Flow("pick", "B").
					Flow("A", "m").Flow("B", "m").Flow("m", "final")
				return builder.MustBuild(b)
			},
		},
		{
			name: "mixed-weighted-and-guarded",
			model: func() *uml.Model {
				b := builder.New("mixed")
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
		},
		{
			name: "only-else-arm",
			model: func() *uml.Model {
				b := builder.New("onlyelse")
				d := b.Diagram("main")
				d.Initial()
				d.Decision("pick")
				d.Action("A").Cost("1")
				d.Final()
				d.Flow("initial", "pick").FlowIf("pick", "A", "else").Flow("A", "final")
				return builder.MustBuild(b)
			},
		},
		{
			name: "two-else-arms-last-wins",
			model: func() *uml.Model {
				b := builder.New("twoelse")
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
		},
		{
			name: "unreached-defect-stays-silent",
			model: func() *uml.Model {
				b := builder.New("dormant")
				d := b.Diagram("main")
				d.Initial()
				d.Decision("pick")
				d.Action("Good").Cost("1")
				n := d.Action("Bad")
				n.Node().SetStereotype("mystery")
				d.Merge("m")
				d.Final()
				d.Flow("initial", "pick").
					FlowIf("pick", "Good", "1 == 1").
					FlowIf("pick", "Bad", "else").
					Flow("Good", "m").
					Flow("Bad", "m").
					Flow("m", "final")
				return builder.MustBuild(b)
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			assertIdentical(t, tc.model(), interp.Config{})
		})
	}
}

// runawayModel loops forever: a counted loop whose count never ends the
// flow because the guard always routes back.
func runawayModel() *uml.Model {
	b := builder.New("runaway")
	d := b.Diagram("main")
	d.Initial()
	d.Loop("Spin", "1000000000000", "body")
	d.Final()
	d.Chain("initial", "Spin", "final")
	body := b.Diagram("body")
	body.Initial()
	body.Action("Tick").Cost("0")
	body.Final()
	body.Chain("initial", "Tick", "final")
	return builder.MustBuild(b)
}

func TestLowerRunawayGuard(t *testing.T) {
	cfg := interp.Config{MaxSteps: 5000}
	assertIdentical(t, runawayModel(), cfg)

	pr, err := interp.Compile(runawayModel(), nil)
	if err != nil {
		t.Fatal(err)
	}
	_, rerr := Lower(pr).Run(cfg)
	if rerr == nil || !strings.Contains(rerr.Error(), "exceeded 5000 element executions") {
		t.Fatalf("expected runaway-guard error, got %v", rerr)
	}
	var perr *sim.ProcessError
	if !errors.As(rerr, &perr) {
		t.Fatalf("runaway error should chain through *sim.ProcessError, got %T: %v", rerr, rerr)
	}
}

// spinModel loops effectively forever with nonzero per-iteration cost, so
// engine-mode processes yield between holds and stay interruptible.
func spinModel() *uml.Model {
	b := builder.New("spin")
	d := b.Diagram("main")
	d.Initial()
	d.Loop("Spin", "1000000000000", "body")
	d.Final()
	d.Chain("initial", "Spin", "final")
	body := b.Diagram("body")
	body.Initial()
	body.Action("Tick").Cost("1")
	body.Final()
	body.Chain("initial", "Tick", "final")
	return builder.MustBuild(b)
}

// TestLowerInterrupt cancels a run mid-simulation in both execution modes
// and requires the interpreter's interrupt semantics: a *sim.InterruptError
// wrapping the context cause.
func TestLowerInterrupt(t *testing.T) {
	modes := []struct {
		name string
		cfg  func(ctx context.Context) interp.Config
	}{
		{
			name: "direct",
			cfg: func(ctx context.Context) interp.Config {
				return interp.Config{Context: ctx, NoTrace: true}
			},
		},
		{
			name: "engine",
			cfg: func(ctx context.Context) interp.Config {
				// A second process forces engine mode.
				return interp.Config{
					Context: ctx, NoTrace: true,
					Params: machine.SystemParams{Nodes: 1, ProcessorsPerNode: 1, Processes: 2, Threads: 1},
				}
			},
		},
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			pr, err := interp.Compile(spinModel(), nil)
			if err != nil {
				t.Fatal(err)
			}
			lp := Lower(pr)
			cause := errors.New("test says stop")
			ctx, cancel := context.WithCancelCause(context.Background())
			go func() {
				time.Sleep(5 * time.Millisecond)
				cancel(cause)
			}()
			cfg := mode.cfg(ctx)
			cfg.MaxSteps = 1 << 30
			_, rerr := lp.Run(cfg)
			if rerr == nil {
				t.Fatal("expected interrupt error")
			}
			var ie *sim.InterruptError
			if !errors.As(rerr, &ie) {
				t.Fatalf("expected *sim.InterruptError in chain, got %v", rerr)
			}
			if !errors.Is(rerr, cause) {
				t.Fatalf("interrupt should wrap the context cause, got %v", rerr)
			}
		})
	}
}

// TestLowerPreCancelled: an already-done context refuses to start.
func TestLowerPreCancelled(t *testing.T) {
	pr, err := interp.Compile(runawayModel(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, rerr := Lower(pr).Run(interp.Config{Context: ctx}); !errors.Is(rerr, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", rerr)
	}
}

// TestDirectModeSelection: the engine-free path is used exactly when the
// program and config allow it.
func TestDirectModeSelection(t *testing.T) {
	single := func() *uml.Model {
		b := builder.New("single")
		d := b.Diagram("main")
		d.Initial()
		d.Action("Work").Cost("1")
		d.Final()
		d.Chain("initial", "Work", "final")
		return builder.MustBuild(b)
	}
	pr, err := interp.Compile(single(), nil)
	if err != nil {
		t.Fatal(err)
	}
	lp := Lower(pr)
	if lp.engineOnly {
		t.Fatal("single-action program should not be engine-only")
	}
	if !lp.direct(interp.Config{}, machine.DefaultParams()) {
		t.Error("default config should run direct")
	}
	if lp.direct(interp.Config{}, machine.SystemParams{Nodes: 1, ProcessorsPerNode: 1, Processes: 2, Threads: 1}) {
		t.Error("multi-process must use the engine")
	}
	if lp.direct(interp.Config{Policy: machine.PolicyPS}, machine.DefaultParams()) {
		t.Error("processor sharing must use the engine")
	}
	if lp.direct(interp.Config{RunLimit: 10}, machine.DefaultParams()) {
		t.Error("run limits must use the engine")
	}

	forked := func() *uml.Model {
		b := builder.New("forked")
		d := b.Diagram("main")
		d.Initial()
		d.Fork("split")
		d.Action("A").Cost("1")
		d.Action("B").Cost("1")
		d.Join("meet")
		d.Final()
		d.Flow("initial", "split").
			Flow("split", "A").
			Flow("split", "B").
			Flow("A", "meet").
			Flow("B", "meet").
			Flow("meet", "final")
		return builder.MustBuild(b)
	}
	fpr, err := interp.Compile(forked(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !Lower(fpr).engineOnly {
		t.Error("fork requires the engine even with one process")
	}
}

// TestDirectVsEngineIdentity: for an engine-eligible program, forcing
// engine mode (via RunLimit) must give the exact same result as direct
// mode — the two lowered paths agree with each other, not just with the
// interpreter.
func TestDirectVsEngineIdentity(t *testing.T) {
	b := builder.New("both")
	b.GlobalInit("acc", "double", "0")
	d := b.Diagram("main")
	d.Initial()
	d.Loop("Reps", "10", "body").Var("i")
	d.Final()
	d.Chain("initial", "Reps", "final")
	body := b.Diagram("body")
	body.Initial()
	body.Action("Step").Cost("0.125 * (i + 1)").Code("acc = acc + i")
	body.Final()
	body.Chain("initial", "Step", "final")
	m := builder.MustBuild(b)

	pr, err := interp.Compile(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	lp := Lower(pr)
	direct, err := lp.Run(interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	engine, err := lp.Run(interp.Config{RunLimit: math.Inf(1)})
	if err != nil {
		t.Fatal(err)
	}
	if direct.Makespan != engine.Makespan {
		t.Errorf("makespan: direct %v, engine %v", direct.Makespan, engine.Makespan)
	}
	if w, g := renderTrace(t, direct.Trace), renderTrace(t, engine.Trace); w != g {
		t.Errorf("trace mismatch between direct and engine modes")
	}
	if fmt.Sprint(direct.CPUUtilization) != fmt.Sprint(engine.CPUUtilization) {
		t.Errorf("cpu utilization: direct %v, engine %v", direct.CPUUtilization, engine.CPUUtilization)
	}
	if fmt.Sprint(direct.Globals) != fmt.Sprint(engine.Globals) {
		t.Errorf("globals: direct %v, engine %v", direct.Globals, engine.Globals)
	}
}

// TestLowerReusable: one lowered program supports many concurrent runs.
func TestLowerReusable(t *testing.T) {
	b := builder.New("reuse")
	b.Global("n", "double")
	d := b.Diagram("main")
	d.Initial()
	d.Action("Work").Cost("n").Code("n = n * 2")
	d.Final()
	d.Chain("initial", "Work", "final")
	m := builder.MustBuild(b)
	pr, err := interp.Compile(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	lp := Lower(pr)
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		i := i
		go func() {
			// Code runs before the cost expression, so the makespan
			// observes the doubled value.
			res, err := lp.Run(interp.Config{Globals: map[string]float64{"n": float64(i)}, NoTrace: true})
			if err == nil && res.Makespan != float64(2*i) {
				err = fmt.Errorf("run %d: makespan %v", i, res.Makespan)
			}
			done <- err
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}

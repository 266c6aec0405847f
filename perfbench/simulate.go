package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"prophet/internal/estimator"
	"prophet/internal/interp"
	"prophet/internal/lower"
	"prophet/internal/machine"
	"prophet/internal/modelgen"
	"prophet/internal/uml"
)

// The simulate workload is the gen-scale-10k conformance entry
// (testdata/corpus/gen-scale-10k.gen.json) swept over process counts on
// 2 nodes × 2 processors. Its inputs are pinned to that entry, so the
// seed changes nothing here and the makespans stay comparable with the
// conformance suite.
var (
	simGen      = modelgen.Params{Name: "gen-scale-10k", Seed: 42, Nodes: 10500}
	simCounts   = []int{1, 2, 4}
	simRunSeed  = int64(7)
	simMaxSteps = 2000000
)

func simRequest(m *uml.Model) estimator.Request {
	return estimator.Request{
		Model:    m,
		Params:   machine.SystemParams{Nodes: 2, ProcessorsPerNode: 2, Processes: 1, Threads: 1},
		Seed:     simRunSeed,
		MaxSteps: simMaxSteps,
	}
}

// pointParams is the machine of one sweep point, as SweepProcesses sets it.
func pointParams(procs int) machine.SystemParams {
	return machine.SystemParams{Nodes: 2, ProcessorsPerNode: 2, Processes: procs, Threads: 1}
}

// runSimulate times one process-count sweep per op through the
// estimator's sweep entry point. The model is generated and compiled in
// set-up, so ops pay only for simulation (and the compile-cache lookup).
func runSimulate(cfg config) (*outcome, error) {
	out := &outcome{}
	var (
		est  *estimator.Estimator
		m    *uml.Model
		want []float64 // makespans of the warm-up sweep
	)
	err := timeSetup(out, func() error {
		var err error
		if m, err = modelgen.Generate(simGen); err != nil {
			return err
		}
		est = estimator.New()
		if _, err := est.CompileCached(m); err != nil {
			return err
		}
		pts, err := est.SweepProcesses(simRequest(m), simCounts)
		if err != nil {
			return err
		}
		want = want[:0]
		for _, p := range pts {
			want = append(want, p.Makespan)
		}
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}

	var (
		rec              *recorder
		lp               *lower.Program
		traced, untraced []time.Duration
		allocBytes       uint64
		gcCycles         uint32
		ms0, ms1         runtime.MemStats
		goroutinesPeak   int
	)
	if cfg.trace {
		rec = newRecorder()
		pr, err := est.CompileCached(m)
		if err != nil {
			return nil, err
		}
		lp = lower.Lower(pr)
	}
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for k := 0; time.Now().Before(deadline); k++ {
		useRec := cfg.trace && k%2 == 1
		runtime.GC()
		if cfg.trace {
			runtime.ReadMemStats(&ms0)
		}
		start := time.Now()
		var got []float64
		var err error
		if useRec {
			var peak int
			got, peak, err = tracedSweep(est, m, lp, rec)
			goroutinesPeak = max(goroutinesPeak, peak)
		} else {
			var pts []estimator.SweepPoint
			pts, err = est.SweepProcesses(simRequest(m), simCounts)
			for _, p := range pts {
				got = append(got, p.Makespan)
			}
		}
		d := time.Since(start)
		if cfg.trace {
			runtime.ReadMemStats(&ms1)
			allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
			gcCycles += ms1.NumGC - ms0.NumGC
		}
		out.attempted++
		if err != nil {
			out.fail("op %d: %v", k, err)
			continue
		}
		if !slices.Equal(got, want) {
			out.fail("op %d: makespans %v, warm-up sweep gave %v", k, got, want)
			continue
		}
		if useRec {
			traced = append(traced, d)
		} else {
			untraced = append(untraced, d)
			out.busy += d
		}
	}
	out.ops = untraced
	if out.peakRSSKB, err = peakRSSKB("self"); err != nil {
		return nil, err
	}

	// Reference: the tree-walking interpreter on the same inputs, with
	// traces on, must give the makespans every op gave; the lowered
	// program with traces on must emit as many trace events.
	pr, err := est.CompileCached(m)
	if err != nil {
		return nil, err
	}
	lpRef := lower.Lower(pr)
	var events int
	var simTime float64
	for i, procs := range simCounts {
		c := interp.Config{Params: pointParams(procs), Seed: simRunSeed, MaxSteps: simMaxSteps}
		ref, err := pr.Run(c)
		if err != nil {
			out.fail("interp reference at %d processes: %v", procs, err)
			continue
		}
		low, err := lpRef.Run(c)
		if err != nil {
			out.fail("lowered traced run at %d processes: %v", procs, err)
			continue
		}
		if ref.Makespan != want[i] || low.Makespan != want[i] {
			out.fail("%d processes: sweep makespan %v, interp %v, lowered traced %v", procs, want[i], ref.Makespan, low.Makespan)
		}
		if len(ref.Trace.Events) != len(low.Trace.Events) {
			out.fail("%d processes: interp emits %d trace events, lowered %d", procs, len(ref.Trace.Events), len(low.Trace.Events))
		}
		events += len(ref.Trace.Events)
		simTime += ref.Makespan
	}
	out.report = append(out.report,
		fmt.Sprintf("simulate: %s, processes %v on 2 nodes x 2 processors, run seed %d: makespans %v, %d trace events per sweep",
			simGen.Name, simCounts, simRunSeed, want, events),
		"correctness: every op's makespans equal the interp reference; lowered and interp trace event counts equal")

	if cfg.trace {
		spans := rec.finish()
		path, err := writeSpans(cfg.spansDir, cfg, spans)
		if err != nil {
			return nil, err
		}
		out.report = append(out.report, "spans written to "+path)
		out.layers = medians(spans)
		n := float64(len(traced) + len(untraced))
		out.layers["sim.events_per_op"] = float64(events)
		out.layers["sim.events_per_s"] = float64(events) / (medianMS(untraced) / 1e3)
		out.layers["sim.makespan_s"] = simTime
		out.layers["sim.goroutines_peak"] = float64(goroutinesPeak)
		out.layers["go.alloc_mb_per_op"] = float64(allocBytes) / n / (1 << 20)
		out.layers["go.gc_cycles_per_op"] = float64(gcCycles) / n
		out.layers["tracing_overhead_pct"] = overheadPct(traced, untraced)
	}
	return out, nil
}

// tracedSweep does the work of SweepProcesses as separate calls into each
// layer — the compile-cache lookup, then one lowered run per point on
// GOMAXPROCS workers, as the estimator's runner pool would — with a span
// around each call. A sampler records the peak goroutine count.
func tracedSweep(est *estimator.Estimator, m *uml.Model, lp *lower.Program, rec *recorder) ([]float64, int, error) {
	root := rec.begin(0, "op", "")
	defer rec.end(root)

	stop := make(chan struct{})
	var peak atomic.Int64
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			if n := int64(runtime.NumGoroutine()); n > peak.Load() {
				peak.Store(n)
			}
			select {
			case <-stop:
				return
			case <-t.C:
			}
		}
	}()
	defer func() {
		close(stop)
		sampler.Wait()
	}()

	var err error
	rec.layer(root, "estimator.compile_cached", func() { _, err = est.CompileCached(m) })
	if err != nil {
		return nil, 0, err
	}
	makespans := make([]float64, len(simCounts))
	errs := make([]error, len(simCounts))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(runtime.GOMAXPROCS(0), len(simCounts)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(simCounts); i = int(next.Add(1) - 1) {
				id := rec.begin(root, "lower.run", fmt.Sprintf("processes=%d", simCounts[i]))
				res, err := lp.Run(interp.Config{
					Params: pointParams(simCounts[i]), Seed: simRunSeed, MaxSteps: simMaxSteps,
					NoTrace: true, Context: context.Background(),
				})
				rec.end(id)
				if err != nil {
					errs[i] = err
					continue
				}
				makespans[i] = res.Makespan
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, 0, err
		}
	}
	return makespans, int(peak.Load()), nil
}

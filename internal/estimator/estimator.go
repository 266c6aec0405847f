// Package estimator implements the Performance Estimator of the paper's
// Figure 2: the component that "estimates the performance of a parallel
// and distributed program on a target computer architecture".
//
// Its Simulation Manager accepts the program's performance model (PMP) and
// the system parameters (SP), generates the machine model, integrates the
// two into the model of the whole computing system, evaluates it on the
// simulation engine, and emits the trace file (TF) together with summary
// statistics. Sweep helpers rerun the evaluation across parameter ranges,
// which is how the scalability experiments of EXPERIMENTS.md are produced.
package estimator

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"prophet/internal/checker"
	"prophet/internal/interp"
	"prophet/internal/lower"
	"prophet/internal/machine"
	"prophet/internal/obs"
	"prophet/internal/profile"
	"prophet/internal/runner"
	"prophet/internal/sim"
	"prophet/internal/trace"
	"prophet/internal/uml"
	"prophet/internal/xmi"
)

// Request describes one evaluation.
type Request struct {
	// Model is the program's performance model.
	Model *uml.Model
	// Params are the system parameters (SP). The zero value means one
	// process on one single-processor node.
	Params machine.SystemParams
	// Net overrides the interconnect parameters (nil = defaults).
	Net *machine.NetParams
	// Globals provides values for global model variables.
	Globals map[string]float64
	// TracePath, when non-empty, writes the trace file there.
	TracePath string
	// Policy selects the processor-contention discipline (FCFS default,
	// or processor sharing).
	Policy machine.Policy
	// Seed drives probabilistic branch selection (0 = default seed).
	Seed int64
	// SkipCheck bypasses the model checker (for models already checked).
	SkipCheck bool
	// MaxSteps bounds element executions per process (0 = default).
	MaxSteps int
	// Backend selects the execution engine: the flat lowered program
	// (default) or the tree-walking interpreter. Both produce
	// bit-identical results; interp remains the differential oracle.
	Backend Backend
	// Mode selects between the simulation engine (default) and the
	// closed-form analytic solver; ModeAuto tries analytic first and
	// falls back to simulation when the model is outside the analytic
	// class. An analytic estimate has Analytic set and carries no trace,
	// summary, or telemetry.
	Mode Mode

	// Telemetry enables simulated-time sampling during the run: the
	// resulting Estimate carries facility utilization, queue length,
	// mailbox depth, event-queue size and live-process series.
	Telemetry bool
	// SampleInterval is the simulated-time spacing between telemetry
	// samples (0 = sample whenever simulated time advances).
	SampleInterval float64
	// MaxSamples bounds the retained telemetry series (0 = 2048); longer
	// runs are decimated evenly.
	MaxSamples int
	// Parallel bounds the worker pool used by batch evaluations
	// (MonteCarlo, Sensitivity, sweeps, CompareModels): 0 means
	// GOMAXPROCS, 1 forces a sequential batch, N allows at most N
	// concurrent simulation runs. Batch results are bit-identical at
	// every setting — results are keyed by job index and aggregated in
	// index order, never in completion order.
	Parallel int
	// Context, when non-nil, cancels the evaluation early: a single
	// Estimate is interrupted cooperatively between simulation events,
	// and batch entry points additionally stop fanning out further runs.
	// The call returns promptly with an error wrapping the context's
	// cancellation cause. nil means Background (run to completion).
	Context context.Context
	// Spans, when non-nil, additionally receives every per-stage span
	// the estimator records (Estimate.Stages always has them too). Use
	// one recorder across repeated calls to aggregate a sweep.
	Spans *obs.SpanRecorder
	// Metrics, when non-nil, is updated with counters/gauges/histograms
	// describing the run (see docs/OBSERVABILITY.md for the schema).
	Metrics *obs.Registry
}

// Estimate is the outcome of one evaluation.
type Estimate struct {
	// Makespan is the predicted program execution time: the simulated
	// makespan, or the solved expectation when Analytic is set.
	Makespan float64
	// Variance is the closed-form variance of the makespan under the
	// model's distributions and branch weights. Only the analytic solver
	// fills it (a single simulation run observes one sample, not a
	// variance); it is 0 for deterministic models.
	Variance float64
	// Analytic reports that this estimate came from the closed-form
	// solver rather than a simulation run.
	Analytic bool
	// Trace is the full trace (TF).
	Trace *trace.Trace
	// Summary aggregates the trace per element and per process.
	Summary *trace.Summary
	// CPUUtilization per node.
	CPUUtilization []float64
	// Globals holds final global-variable values.
	Globals map[string]float64
	// Stages is the per-stage wall-clock breakdown of this evaluation
	// ("check", "compile", "simulate", "summarize", "trace-write").
	Stages []obs.Span
	// Telemetry carries the simulated-time series sampled during the run
	// (nil unless Request.Telemetry was set).
	Telemetry *Telemetry
}

// Telemetry is the simulated-time series collected by the sim engine's
// observer during one evaluation.
type Telemetry struct {
	// Samples is the retained (possibly decimated) sample series in time
	// order; the last sample reflects the end of the run.
	Samples []sim.Sample `json:"samples"`
	// EventCounts tallies process lifecycle events by kind ("spawn",
	// "run", "hold", "block", "done").
	EventCounts map[string]int64 `json:"event_counts,omitempty"`
}

// ctx resolves the request's batch context.
func (r Request) ctx() context.Context {
	if r.Context != nil {
		return r.Context
	}
	return context.Background()
}

// pool builds the runner options shared by every batch entry point: the
// request's worker bound plus its observability sinks.
func (r Request) pool(label string) runner.Options {
	return runner.Options{
		Workers: r.Parallel,
		Label:   label,
		Spans:   r.Spans,
		Metrics: r.Metrics,
	}
}

// maxCachedPrograms bounds the compiled-program cache: entries beyond it
// are evicted oldest-first. Content-hash keys mean a model mutated in
// place leaves its old entry unreachable, so the bound also caps how much
// garbage a mutate-recompile loop can accumulate.
const maxCachedPrograms = 256

// Estimator evaluates performance models.
type Estimator struct {
	registry *profile.Registry
	checker  *checker.Checker

	// progMu guards progs/progOrder, the per-estimator compiled-program
	// cache, keyed by the model's canonical-XMI content hash (xmi.Hash):
	// batch entry points and the serving layer compile each distinct
	// model content exactly once, and a model mutated in place hashes to
	// a new key, so it is recompiled instead of served stale.
	progMu    sync.Mutex
	progs     map[string]*interp.Program
	progOrder []string // insertion order, for oldest-first eviction

	// lowMu guards the lowered-program cache (see loweredFor), keyed by
	// the model's content hash with a per-pointer memo: each distinct
	// model content is lowered at most once, however many compiled
	// program instances share it.
	lowMu    sync.Mutex
	lowKeys  map[*interp.Program]string
	lowered  map[string]*lower.Program
	lowOrder []string

	// cacheHits/cacheMisses count CompileCached outcomes; metrics, when
	// set, mirrors them into estimator_cache_{hits,misses}_total.
	cacheHits   int64
	cacheMisses int64
	metrics     *obs.Registry
}

// New returns an estimator using the standard profile and default checker
// configuration.
func New() *Estimator {
	reg := profile.NewRegistry()
	return &Estimator{registry: reg, checker: checker.NewWith(reg, checker.Config{})}
}

// NewWith returns an estimator with explicit profile registry and checker
// configuration.
func NewWith(reg *profile.Registry, cfg checker.Config) *Estimator {
	return &Estimator{registry: reg, checker: checker.NewWith(reg, cfg)}
}

// stage opens one pipeline span in the estimate's own recorder, the
// caller-provided recorder (when set), and — when a trace span rides the
// request context — the request's trace tree. The returned context
// carries the trace child (it is req.Context unchanged when no trace is
// attached, nil when the request has none); the returned span is the
// trace child (nil without one, safe to Annotate either way); the
// returned func closes every span opened.
func stage(req Request, rec *obs.SpanRecorder, name string) (context.Context, *obs.TraceSpan, func()) {
	d1 := rec.Start(name)
	d2 := req.Spans.Start(name) // nil-safe
	ctx := req.Context
	var ts *obs.TraceSpan
	if ctx != nil {
		ctx, ts = obs.StartSpan(ctx, name)
	}
	return ctx, ts, func() { d1(); d2(); ts.End() }
}

// Estimate runs one evaluation: check, compile, simulate, summarize.
func (e *Estimator) Estimate(req Request) (*Estimate, error) {
	if req.Model == nil {
		return nil, fmt.Errorf("estimator: nil model")
	}
	// An already-done context returns before any work; mid-run expiry is
	// handled cooperatively inside the simulation (interp.Config.Context).
	if ctx := req.ctx(); ctx.Err() != nil {
		return nil, fmt.Errorf("estimator: %w", context.Cause(ctx))
	}
	rec := obs.NewSpanRecorder()
	if !req.SkipCheck {
		_, _, done := stage(req, rec, "check")
		rep := e.checker.Check(req.Model)
		done()
		if rep.HasErrors() {
			return nil, &CheckError{Model: req.Model.Name(), Report: rep}
		}
	}
	_, ts, done := stage(req, rec, "compile")
	pr, err := interp.Compile(req.Model, e.registry)
	ts.Annotate("backend", req.Backend.String())
	done()
	if err != nil {
		return nil, fmt.Errorf("estimator: %w", err)
	}
	return e.runMode(pr, req, false, rec)
}

// Compile prepares a model once for repeated evaluation (parameter
// sweeps).
func (e *Estimator) Compile(m *uml.Model) (*interp.Program, error) {
	return e.compileCtx(context.Background(), m, "")
}

// compileCtx checks then compiles the model, recording "check" and
// "compile" spans into the trace riding ctx (no-ops without one) and
// their latencies into the SetMetrics registry's estimate_stage_seconds.
// cacheAttr, when non-empty, annotates the compile span's cache outcome.
func (e *Estimator) compileCtx(ctx context.Context, m *uml.Model, cacheAttr string) (*interp.Program, error) {
	start := time.Now()
	_, sp := obs.StartSpan(ctx, "check")
	rep := e.checker.Check(m)
	sp.End()
	e.observeStage("check", start)
	if rep.HasErrors() {
		return nil, &CheckError{Model: m.Name(), Report: rep}
	}
	start = time.Now()
	_, sp = obs.StartSpan(ctx, "compile")
	pr, err := interp.Compile(m, e.registry)
	if cacheAttr != "" {
		sp.Annotate("cache", cacheAttr)
	}
	sp.End()
	e.observeStage("compile", start)
	if err != nil {
		return nil, fmt.Errorf("estimator: %w", err)
	}
	return pr, nil
}

// observeStage publishes the latency of a stage that began at start into
// the SetMetrics registry, as finish does for a request's own registry.
func (e *Estimator) observeStage(name string, start time.Time) {
	e.progMu.Lock()
	reg := e.metrics
	e.progMu.Unlock()
	if reg != nil {
		d := time.Since(start).Seconds()
		reg.HistogramVec("estimate_stage_seconds", stageBuckets, "stage").With(name).Observe(d)
		reg.GaugeVec("estimate_stage_last_seconds", "stage").With(name).Set(d)
	}
}

// stageBuckets are the estimate_stage_seconds histogram bounds.
var stageBuckets = []float64{1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1, 10}

// SetMetrics installs a registry that receives the estimator's cache
// counters (estimator_cache_hits_total, estimator_cache_misses_total)
// and the latencies of the check and compile stages CompileCached runs.
// Call it once, before the estimator is used concurrently.
func (e *Estimator) SetMetrics(reg *obs.Registry) {
	e.progMu.Lock()
	e.metrics = reg
	e.progMu.Unlock()
}

// CacheStats returns how many CompileCached calls were served from the
// compiled-program cache and how many had to compile.
func (e *Estimator) CacheStats() (hits, misses int64) {
	e.progMu.Lock()
	defer e.progMu.Unlock()
	return e.cacheHits, e.cacheMisses
}

// cacheEvent counts one cache outcome; call with progMu held.
func (e *Estimator) cacheEvent(hit bool) {
	name := "estimator_cache_misses_total"
	if hit {
		e.cacheHits++
		name = "estimator_cache_hits_total"
	} else {
		e.cacheMisses++
	}
	if e.metrics != nil {
		e.metrics.Counter(name).Inc()
	}
}

// CompileCached returns the cached compiled program for m, checking and
// compiling it on first use. The cache is keyed by the model's
// canonical-XMI content hash (xmi.Hash) — the same key the serving
// layer's model store uses — so every batch entry point (MonteCarlo,
// Sensitivity, sweeps, CompareModels) and every server request compiles
// each distinct model content exactly once. Because the key is content,
// not identity, a model mutated in place hashes to a new key and is
// recompiled — the cache can never serve a stale program. The cache
// holds at most maxCachedPrograms entries, evicting oldest-first.
func (e *Estimator) CompileCached(m *uml.Model) (*interp.Program, error) {
	return e.CompileCachedCtx(context.Background(), m)
}

// CompileCachedCtx is CompileCached with request tracing: when ctx
// carries a trace span, a cache hit records a "compile" span annotated
// cache=hit, and a miss records the real "check" and "compile" spans
// (the latter annotated cache=miss) — so a request's span tree shows
// whether it paid for compilation.
func (e *Estimator) CompileCachedCtx(ctx context.Context, m *uml.Model) (*interp.Program, error) {
	if m == nil {
		return nil, fmt.Errorf("estimator: nil model")
	}
	key, err := xmi.Hash(m)
	if err != nil {
		// A model that cannot be canonicalized cannot be content-addressed;
		// compile it uncached rather than risking a stale identity hit.
		return e.compileCtx(ctx, m, "uncacheable")
	}
	e.progMu.Lock()
	pr, ok := e.progs[key]
	e.cacheEvent(ok)
	e.progMu.Unlock()
	if ok {
		_, sp := obs.StartSpan(ctx, "compile")
		sp.Annotate("cache", "hit")
		sp.End()
		return pr, nil
	}
	pr, err = e.compileCtx(ctx, m, "miss")
	if err != nil {
		return nil, err
	}
	e.progMu.Lock()
	if e.progs == nil {
		e.progs = map[string]*interp.Program{}
	}
	// A concurrent caller may have compiled the same content; keep the
	// first program so every run of a batch uses one instance.
	if prev, ok := e.progs[key]; ok {
		pr = prev
	} else {
		e.progs[key] = pr
		e.progOrder = append(e.progOrder, key)
		for len(e.progOrder) > maxCachedPrograms {
			delete(e.progs, e.progOrder[0])
			e.progOrder = e.progOrder[1:]
		}
	}
	e.progMu.Unlock()
	return pr, nil
}

// InvalidateCache drops the compiled program cached for m's current
// content (all cached programs when m is nil). With content-hash keys a
// mutated model never hits its old entry, so invalidation is no longer
// needed for correctness — it only releases memory, e.g. for a model
// that will not be evaluated again.
func (e *Estimator) InvalidateCache(m *uml.Model) {
	e.progMu.Lock()
	defer e.progMu.Unlock()
	if m == nil {
		e.progs = nil
		e.progOrder = nil
		return
	}
	key, err := xmi.Hash(m)
	if err != nil {
		return
	}
	if _, ok := e.progs[key]; !ok {
		return
	}
	delete(e.progs, key)
	for i, k := range e.progOrder {
		if k == key {
			e.progOrder = append(e.progOrder[:i], e.progOrder[i+1:]...)
			break
		}
	}
}

// EstimateCompiled evaluates a pre-compiled program.
func (e *Estimator) EstimateCompiled(pr *interp.Program, req Request) (*Estimate, error) {
	return e.run(pr, req)
}

// EstimateCompiledFast evaluates a pre-compiled program in fast mode:
// trace collection and summarization are skipped (Estimate.Trace and
// Estimate.Summary are nil), the mode the batch loops use internally.
// This is the hot path of the serving layer, which returns the makespan
// and utilization but never ships a trace.
func (e *Estimator) EstimateCompiledFast(pr *interp.Program, req Request) (*Estimate, error) {
	return e.runMode(pr, req, true, obs.NewSpanRecorder())
}

func (e *Estimator) run(pr *interp.Program, req Request) (*Estimate, error) {
	return e.runMode(pr, req, false, obs.NewSpanRecorder())
}

// runMode evaluates the program; fast mode skips trace collection and
// summarization (Estimate.Trace/Summary are nil), which is what the
// sweep and Monte Carlo loops want. rec accumulates the per-stage spans
// reported as Estimate.Stages.
func (e *Estimator) runMode(pr *interp.Program, req Request, fast bool, rec *obs.SpanRecorder) (*Estimate, error) {
	if req.Mode != ModeSimulate {
		if est, err, handled := e.runAnalytic(pr, req, rec); handled {
			return est, err
		}
	}
	cfg := interp.Config{
		Params:   req.Params,
		Net:      req.Net,
		Globals:  req.Globals,
		Policy:   req.Policy,
		Seed:     req.Seed,
		MaxSteps: req.MaxSteps,
		NoTrace:  fast,
		Context:  req.Context,
	}
	var simRec *sim.Recorder
	if req.Telemetry || req.Metrics != nil {
		simRec = sim.NewRecorder(req.MaxSamples)
		cfg.Observer = simRec
		cfg.SampleInterval = req.SampleInterval
	}
	// Resolve the backend before the simulate stage so lowering (a cheap
	// one-time transform, cached per program) is visible as its own stage.
	run := pr.Run
	if req.Backend.effective() == BackendLowered {
		_, ts, done := stage(req, rec, "lower")
		lp, cached := e.loweredFor(pr)
		if cached {
			ts.Annotate("cache", "hit")
		} else {
			ts.Annotate("cache", "miss")
		}
		done()
		run = lp.Run
	}
	// The simulate stage's derived context carries the stage's trace span
	// into the backend, which nests the engine-level "sim" span (with
	// event counts) underneath it.
	simCtx, _, done := stage(req, rec, "simulate")
	cfg.Context = simCtx
	res, err := run(cfg)
	done()
	if err != nil {
		return nil, fmt.Errorf("estimator: %w", err)
	}
	est := &Estimate{
		Makespan:       res.Makespan,
		CPUUtilization: res.CPUUtilization,
		Globals:        res.Globals,
	}
	if req.Telemetry && simRec != nil {
		est.Telemetry = &Telemetry{
			Samples:     simRec.Samples(),
			EventCounts: simRec.EventCounts(),
		}
	}
	if fast {
		e.finish(req, est, rec, simRec)
		return est, nil
	}
	_, _, done = stage(req, rec, "summarize")
	sum, err := trace.Summarize(res.Trace)
	done()
	if err != nil {
		return nil, fmt.Errorf("estimator: summarize: %w", err)
	}
	if req.TracePath != "" {
		_, _, done = stage(req, rec, "trace-write")
		err := trace.Save(req.TracePath, res.Trace)
		done()
		if err != nil {
			return nil, fmt.Errorf("estimator: %w", err)
		}
	}
	est.Trace = res.Trace
	est.Summary = sum
	e.finish(req, est, rec, simRec)
	return est, nil
}

// finish attaches the recorded stages to the estimate and, when the
// request carries a metrics registry, publishes the run's metrics into it.
func (e *Estimator) finish(req Request, est *Estimate, rec *obs.SpanRecorder, simRec *sim.Recorder) {
	est.Stages = rec.Spans()
	reg := req.Metrics
	if reg == nil {
		return
	}
	reg.Counter("estimator_runs_total").Inc()
	reg.Gauge("estimate_makespan_seconds").Set(est.Makespan)
	stageHist := reg.HistogramVec("estimate_stage_seconds", stageBuckets, "stage")
	stageGauge := reg.GaugeVec("estimate_stage_last_seconds", "stage")
	for _, s := range est.Stages {
		stageHist.With(s.Name).Observe(s.Seconds)
		stageGauge.With(s.Name).Set(s.Seconds)
	}
	// Labeled children are snapshotted in creation order, so publish map
	// entries in sorted key order to keep snapshots stable across runs.
	for node, u := range est.CPUUtilization {
		reg.GaugeVec("cpu_utilization", "node").With(fmt.Sprint(node)).Set(u)
	}
	if simRec != nil {
		events := reg.CounterVec("sim_events_total", "kind")
		counts := simRec.EventCounts()
		for _, kind := range sortedKeys(counts) {
			events.With(kind).Add(counts[kind])
		}
		samples := simRec.Samples()
		reg.Counter("sim_samples_total").Add(int64(len(samples)))
		if len(samples) > 0 {
			last := samples[len(samples)-1]
			util := reg.GaugeVec("facility_utilization", "facility")
			for _, name := range sortedKeys(last.FacilityUtilization) {
				util.With(name).Set(last.FacilityUtilization[name])
			}
		}
	}
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// CheckError reports a model that failed the Model Checker.
type CheckError struct {
	Model  string
	Report *checker.Report
}

func (c *CheckError) Error() string {
	return fmt.Sprintf("estimator: model %q failed checking with %d error(s); first: %s",
		c.Model, c.Report.Count(checker.Error), firstError(c.Report))
}

func firstError(rep *checker.Report) string {
	for _, d := range rep.Diagnostics {
		if d.Severity == checker.Error {
			return d.String()
		}
	}
	return "(none)"
}

// SweepPoint is one sample of a scalability sweep.
type SweepPoint struct {
	// Processes used for this point.
	Processes int
	// Nodes used for this point.
	Nodes int
	// Makespan predicted.
	Makespan float64
	// Speedup relative to the first point of the sweep.
	Speedup float64
	// Efficiency = Speedup / (Processes/Processes0).
	Efficiency float64
}

// SweepProcesses evaluates the model across process counts, keeping the
// other parameters of req fixed, and derives speedup/efficiency relative
// to the first count. When req.Params.Nodes is 0 the node count scales
// with the processes (one node per ProcessorsPerNode processes).
func (e *Estimator) SweepProcesses(req Request, counts []int) ([]SweepPoint, error) {
	done := req.Spans.Start("compile")
	pr, err := e.CompileCachedCtx(req.ctx(), req.Model)
	done()
	if err != nil {
		return nil, err
	}
	out, err := runner.Map(req.ctx(), len(counts), req.pool("sweep-point"),
		func(ctx context.Context, i int) (SweepPoint, error) {
			procs := counts[i]
			p := req.Params
			if p.ProcessorsPerNode == 0 {
				p.ProcessorsPerNode = 1
			}
			if p.Threads == 0 {
				p.Threads = 1
			}
			p.Processes = procs
			if req.Params.Nodes == 0 {
				p.Nodes = (procs + p.ProcessorsPerNode - 1) / p.ProcessorsPerNode
			}
			r := req
			r.Params = p
			// ctx is the runner's per-job context: cancelled when the batch
			// fails fast, and carrying the job's trace span when the request
			// is traced — so the simulate span nests under its sweep point.
			r.Context = ctx
			est, err := e.runMode(pr, r, true, obs.NewSpanRecorder())
			if err != nil {
				return SweepPoint{}, fmt.Errorf("estimator: sweep at %d processes: %w", procs, err)
			}
			return SweepPoint{Processes: procs, Nodes: p.Nodes, Makespan: est.Makespan}, nil
		})
	if err != nil {
		return nil, err
	}
	// Speedup and efficiency are relative to the first point; derive them
	// after the fan-out so the derivation order is independent of worker
	// scheduling.
	DeriveSweepStats(out)
	return out, nil
}

// DeriveSweepStats fills the Speedup and Efficiency of every point
// relative to the first point of the slice, overwriting whatever was
// there. It is the derivation SweepProcesses applies after its fan-out,
// exported so a sharded coordinator that merges sub-range points — whose
// shard-local derivations were relative to the wrong first point — can
// re-derive over the merged slice with the exact same float operations
// and stay bit-identical to a single-node sweep.
func DeriveSweepStats(points []SweepPoint) {
	for i := range points {
		points[i].Speedup = 0
		points[i].Efficiency = 0
		if i == 0 {
			points[i].Speedup = 1
			points[i].Efficiency = 1
		} else if points[i].Makespan > 0 {
			points[i].Speedup = points[0].Makespan / points[i].Makespan
			points[i].Efficiency = points[i].Speedup / (float64(points[i].Processes) / float64(points[0].Processes))
		}
	}
}

// GlobalPoint is one sample of a global-variable sweep.
type GlobalPoint struct {
	Value    float64
	Makespan float64
}

// SweepGlobal evaluates the model across values of one global variable.
func (e *Estimator) SweepGlobal(req Request, name string, values []float64) ([]GlobalPoint, error) {
	done := req.Spans.Start("compile")
	pr, err := e.CompileCachedCtx(req.ctx(), req.Model)
	done()
	if err != nil {
		return nil, err
	}
	return runner.Map(req.ctx(), len(values), req.pool("sweep-point"),
		func(ctx context.Context, i int) (GlobalPoint, error) {
			v := values[i]
			r := req
			r.Globals = make(map[string]float64, len(req.Globals)+1)
			for k, gv := range req.Globals {
				r.Globals[k] = gv
			}
			r.Globals[name] = v
			r.Context = ctx
			est, err := e.runMode(pr, r, true, obs.NewSpanRecorder())
			if err != nil {
				return GlobalPoint{}, fmt.Errorf("estimator: sweep %s=%g: %w", name, v, err)
			}
			return GlobalPoint{Value: v, Makespan: est.Makespan}, nil
		})
}

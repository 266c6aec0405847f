// Command perfbench is the repository benchmark. It runs one workload —
// transform, simulate or serve — against the code in the enclosing
// checkout, checks that every output is correct, and prints as the last
// line of standard output one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics listed in
// BENCHMARK.json; with -trace 1 they are the per-layer metrics, measured
// by spans the benchmark records around its own calls into each layer.
// Lines before the last one are a human-readable report: runner shape,
// seed, sample counts and the correctness checks made.
//
// Run it through perfbench/run.sh from the checkout root, which builds
// this program and prophetd first:
//
//	bash perfbench/run.sh --workload transform --seed 1 --seconds 25 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupRepeats is how often each workload performs its whole set-up; the
// reported setup_s is the median, so one slow start does not move it.
const setupRepeats = 3

// tailBeyond is the number of samples that must lie beyond the reported
// tail percentile.
const tailBeyond = 10

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	prophetd string
	spansDir string
}

// outcome is what a workload measured; main turns it into metrics.
type outcome struct {
	setupS    []float64
	ops       []time.Duration // untraced op latencies
	busy      time.Duration   // clock that ops_per_s divides by
	attempted int
	failed    int
	problems  []string // correctness failures, each also counted in failed
	peakRSSKB int64
	layers    map[string]float64 // per-layer metrics, traced run only
	report    []string
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// spec is the part of BENCHMARK.json this program reads: the metric
// names and units it must report.
type spec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "transform, simulate or serve")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 25, "length of the measured phase, in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.prophetd, "prophetd", "", "prophetd binary (serve workload)")
	flag.StringVar(&cfg.spansDir, "spans-dir", ".bench_build", "directory the traced run writes its spans to")
	flag.Parse()
	cfg.trace = traceFlag == 1

	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the checkout root: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if cfg.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}

	var out *outcome
	switch cfg.workload {
	case "transform":
		out, err = runTransform(cfg)
	case "simulate":
		out, err = runSimulate(cfg)
	case "serve":
		out, err = runServe(cfg)
	default:
		return fmt.Errorf("unknown workload %q (want transform, simulate or serve)", cfg.workload)
	}
	if err != nil {
		return err
	}
	if len(out.ops) == 0 || out.attempted == 0 {
		return fmt.Errorf("%s: no op completed", cfg.workload)
	}

	sorted := append([]time.Duration(nil), out.ops...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	tailIdx, tailPct := tailRank(len(sorted))

	e2e := map[string]float64{
		"setup_s":     median(out.setupS),
		"op_p50_ms":   ms(medianDur(sorted)),
		"op_tail_ms":  ms(sorted[tailIdx]),
		"ops_per_s":   float64(len(out.ops)) / out.busy.Seconds(),
		"peak_rss_mb": float64(out.peakRSSKB) / 1024,
	}
	layers := out.layers
	if layers == nil {
		layers = map[string]float64{}
	}
	layers["op.samples"] = float64(len(sorted))
	layers["op.tail_pct"] = tailPct

	fmt.Printf("workload %s seed %d seconds %g trace %v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Printf("runner: nproc %d, GOMAXPROCS %d, %s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Printf("setup runs (s): %s\n", joinFloats(out.setupS))
	fmt.Printf("ops timed: %d; op_tail_ms is p%.1f (%d samples beyond it)\n",
		len(sorted), tailPct, len(sorted)-1-tailIdx)
	for _, line := range out.report {
		fmt.Println(line)
	}
	for _, p := range out.problems {
		fmt.Println("FAIL:", p)
	}

	res := result{
		Correct:   out.failed == 0 && len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metric{},
	}
	want, have := sp.EndToEnd, e2e
	if cfg.trace {
		want, have = sp.PerLayer, layers
	}
	for _, m := range want {
		v, ok := have[m.Name]
		if !ok {
			// A per-layer metric of a layer this workload does not call.
			if !cfg.trace {
				return fmt.Errorf("metric %s not measured", m.Name)
			}
			v = 0
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", m.Name, v)
		}
		res.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// tailRank returns the index into n sorted samples of the highest
// percentile that still has tailBeyond samples above it, never below the
// median, and that percentile.
func tailRank(n int) (int, float64) {
	i := max(n-1-tailBeyond, n/2)
	return i, 100 * float64(i+1) / float64(n)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianDur takes the median of sorted durations.
func medianDur(s []time.Duration) time.Duration {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianMS(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return ms(medianDur(s))
}

func joinFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return strings.Join(parts, " ")
}

// timeSetup runs fn setupRepeats times and records each run's seconds.
// teardown, when non-nil, undoes a set-up before the next one, untimed.
func timeSetup(out *outcome, fn, teardown func() error) error {
	for i := 0; i < setupRepeats; i++ {
		if i > 0 && teardown != nil {
			if err := teardown(); err != nil {
				return fmt.Errorf("set-up teardown: %w", err)
			}
		}
		runtime.GC()
		start := time.Now()
		if err := fn(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		out.setupS = append(out.setupS, time.Since(start).Seconds())
	}
	return nil
}

// peakRSSKB reads VmHWM, the resident-set high-water mark, of a process
// ("self" or a pid).
func peakRSSKB(proc string) (int64, error) {
	f, err := os.Open("/proc/" + proc + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if fields := strings.Fields(sc.Text()); len(fields) >= 2 && fields[0] == "VmHWM:" {
			return strconv.ParseInt(fields[1], 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", proc)
}

// splitmix derives the k-th input seed from the workload seed, so inputs
// differ per op and per workload seed but repeat for the same seed.
func splitmix(seed int64, k int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(k+1)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z>>1) | 1
}

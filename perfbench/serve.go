package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"prophet/internal/estimator"
	"prophet/internal/machine"
	"prophet/internal/modelgen"
	"prophet/internal/uml"
	"prophet/internal/xmi"
)

// Request kinds of the serve schedule.
const (
	kindHit      = "hit"      // repeat estimate on the hot key set: a result-cache hit
	kindMiss     = "miss"     // fresh-seed estimate of the small model: a cache miss
	kindAnalytic = "analytic" // mode=analytic estimate, fresh seed: a miss
	kindMC       = "montecarlo"
	kindUpload   = "upload" // new model content, then its first estimate
)

// serveCycle fixes the proportions of the schedule: every 20 requests
// hold these kinds, in an order shuffled once per seed. Misses are more
// than half and the cheaper kinds less than half, so op_p50_ms falls
// inside the misses: a simulation's cost. With hits at half, the median
// sat on the boundary between hits and misses and flipped between runs;
// with hits the majority, it was a loopback round trip that varied by a
// quarter from run to run.
var serveCycle = func() []string {
	var c []string
	add := func(kind string, n int) {
		for i := 0; i < n; i++ {
			c = append(c, kind)
		}
	}
	add(kindHit, 4)
	add(kindMiss, 13)
	add(kindAnalytic, 1)
	add(kindMC, 1)
	add(kindUpload, 1)
	return c
}()

const (
	serveClients   = 2
	serveNodes     = 300  // nodes of the hot and small models
	uploadNodes    = 100  // nodes of each uploaded model
	storeCap       = 1024 // prophetd's default -max-models
	serveHotKeys   = 8    // hot set: the hot model at 8 run seeds
	serveMCRuns    = 8
	serveWarmSlots = 40 // schedule slots run in set-up before timing
)

// served is one completed request, kept for the correctness check.
type served struct {
	kind      string
	slot      int
	seed      int64
	modelXMI  string // upload: the uploaded text
	cache     string // X-Result-Cache header of the estimate
	makespan  float64
	mc        mcSummary
	latency   time.Duration
	traced    bool
	reuploads int // 404s answered by uploading the evicted model again
}

// mcSummary is the part of a /v1/montecarlo response checked.
type mcSummary struct {
	Runs int     `json:"runs"`
	Mean float64 `json:"mean"`
	Std  float64 `json:"std"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// prophetd is a running server process.
type prophetd struct {
	cmd      *exec.Cmd
	base     string
	debug    string // pprof listener, traced run only
	exited   chan struct{}
	waitErr  error
	stopOnce sync.Once
}

func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startProphetd starts the server with its default settings and waits
// until /healthz answers.
func startProphetd(bin string, withDebug bool, client *http.Client) (*prophetd, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	args := []string{"-addr", addr}
	p := &prophetd{base: "http://" + addr, exited: make(chan struct{})}
	if withDebug {
		daddr, err := freePort()
		if err != nil {
			return nil, err
		}
		args = append(args, "-debug-addr", daddr)
		p.debug = "http://" + daddr
	}
	p.cmd = exec.Command(bin, args...)
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start prophetd: %w", err)
	}
	go func() {
		p.waitErr = p.cmd.Wait()
		close(p.exited)
	}()
	for deadline := time.Now().Add(20 * time.Second); time.Now().Before(deadline); {
		select {
		case <-p.exited:
			return nil, fmt.Errorf("prophetd exited before becoming healthy: %v", p.waitErr)
		default:
		}
		if resp, err := client.Get(p.base + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && (p.debug == "" || reachable(client, p.debug+"/debug/pprof/")) {
				return p, nil
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	p.stop()
	return nil, fmt.Errorf("prophetd never became healthy")
}

func reachable(client *http.Client, url string) bool {
	resp, err := client.Get(url)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// stop sends SIGTERM (prophetd drains and exits 0) and waits for the
// process; it kills it if draining takes too long.
func (p *prophetd) stop() error {
	p.stopOnce.Do(func() {
		p.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-p.exited:
		case <-time.After(15 * time.Second):
			p.cmd.Process.Kill()
			<-p.exited
		}
	})
	return p.waitErr
}

// serveModels are the documents the schedule refers to.
type serveModels struct {
	hotXMI, smallXMI, uploadXMI string
	hotID, smallID              string
}

// newServeModels generates the served models. Their structure is fixed,
// not drawn from the workload seed: the seed varies the request stream
// (order, run seeds, upload names), so a run's cost does not depend on
// which three models it happened to draw.
func newServeModels() (*serveModels, error) {
	gen := func(name string, seed int64, nodes int) (string, error) {
		m, err := modelgen.Generate(modelgen.Params{Name: name, Seed: seed, Nodes: nodes})
		if err != nil {
			return "", err
		}
		return xmi.EncodeString(m)
	}
	var sm serveModels
	var err error
	if sm.hotXMI, err = gen("hot", 1000, serveNodes); err != nil {
		return nil, err
	}
	if sm.smallXMI, err = gen("small", 1001, serveNodes); err != nil {
		return nil, err
	}
	if sm.uploadXMI, err = gen("upload", 1002, uploadNodes); err != nil {
		return nil, err
	}
	return &sm, nil
}

// uploadText is the upload model renamed: the same structure under a new
// name is new content, so it misses every content-keyed cache.
func (sm *serveModels) uploadText(prefix string, seed int64, slot int) string {
	return strings.Replace(sm.uploadXMI, `<model name="upload"`, fmt.Sprintf(`<model name="%s-%d-%d"`, prefix, seed, slot), 1)
}

// serveClient issues the schedule's requests. With rec set, each
// request is a span under root; each client goroutine has its own.
type serveClient struct {
	http *http.Client
	base string
	sm   *serveModels
	seed int64
	rec  *recorder
	root int
}

// hotSeed is the run seed of the hot key a slot repeats.
func hotSeed(seed int64, slot int) int64 { return splitmix(seed, -1-slot%serveHotKeys) }

func (c *serveClient) post(path, contentType string, body []byte, into any) (string, error) {
	if c.rec != nil {
		id := c.rec.begin(c.root, "http"+strings.ReplaceAll(path, "/", "."), "")
		defer c.rec.end(id)
	}
	resp, err := c.http.Post(c.base+path, contentType, bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", &httpError{path: path, code: resp.StatusCode, body: string(bytes.TrimSpace(raw))}
	}
	if err := json.Unmarshal(raw, into); err != nil {
		return "", fmt.Errorf("%s: %w", path, err)
	}
	return resp.Header.Get("X-Result-Cache"), nil
}

type httpError struct {
	path string
	code int
	body string
}

func (e *httpError) Error() string { return fmt.Sprintf("%s: HTTP %d: %s", e.path, e.code, e.body) }

// stored runs req against a stored model. The store evicts oldest-first,
// so once enough uploads have followed, the model is gone; evicted ids
// come back with the next upload (docs/SERVING.md), so a 404 is answered
// by uploading the model again, under the same id, and retrying.
func (c *serveClient) stored(text string, s *served, req func() error) error {
	err := req()
	var he *httpError
	if errors.As(err, &he) && he.code == http.StatusNotFound {
		s.reuploads++
		if _, err := c.upload(text); err != nil {
			return err
		}
		err = req()
	}
	return err
}

func (c *serveClient) upload(text string) (string, error) {
	var r struct{ ID string }
	_, err := c.post("/v1/models", "application/xml", []byte(text), &r)
	return r.ID, err
}

func (c *serveClient) estimate(body map[string]any, s *served) error {
	raw, _ := json.Marshal(body)
	var r struct{ Makespan float64 }
	cache, err := c.post("/v1/estimate", "application/json", raw, &r)
	s.cache, s.makespan = cache, r.Makespan
	return err
}

// do runs schedule slot i and records what it needs for the check.
func (c *serveClient) do(kind string, slot int) (served, error) {
	s := served{kind: kind, slot: slot, seed: splitmix(c.seed, slot)}
	var err error
	if c.rec != nil {
		c.root = c.rec.begin(0, "op", kind)
		defer c.rec.end(c.root)
	}
	start := time.Now()
	switch kind {
	case kindHit:
		s.seed = hotSeed(c.seed, slot)
		err = c.stored(c.sm.hotXMI, &s, func() error {
			return c.estimate(map[string]any{"model_id": c.sm.hotID, "seed": s.seed}, &s)
		})
	case kindMiss:
		err = c.stored(c.sm.smallXMI, &s, func() error {
			return c.estimate(map[string]any{"model_id": c.sm.smallID, "seed": s.seed}, &s)
		})
	case kindAnalytic:
		err = c.stored(c.sm.smallXMI, &s, func() error {
			return c.estimate(map[string]any{"model_id": c.sm.smallID, "seed": s.seed, "mode": "analytic"}, &s)
		})
	case kindMC:
		raw, _ := json.Marshal(map[string]any{"model_id": c.sm.smallID, "seed": s.seed, "runs": serveMCRuns})
		err = c.stored(c.sm.smallXMI, &s, func() (err error) {
			s.cache, err = c.post("/v1/montecarlo", "application/json", raw, &s.mc)
			return err
		})
	case kindUpload:
		s.seed = 1
		s.modelXMI = c.sm.uploadText("upload", c.seed, slot)
		var id string
		if id, err = c.upload(s.modelXMI); err == nil {
			err = c.estimate(map[string]any{"model_id": id, "seed": s.seed}, &s)
		}
	}
	s.latency = time.Since(start)
	return s, err
}

// prefill fills the model store to its cap with uploads of new content,
// so the timed phase sees the store in its steady state: full, each upload
// evicting the oldest model. Without it the server's memory would grow all
// through the run, by an amount set by how many uploads a run completes.
func prefill(sc *serveClient, seed int64) error {
	var next atomic.Int64
	errs := make(chan error, serveClients)
	for w := 0; w < serveClients; w++ {
		go func() {
			for i := int(next.Add(1) - 1); i < storeCap; i = int(next.Add(1) - 1) {
				if _, err := sc.upload(sc.sm.uploadText("fill", seed, i)); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	var first error
	for w := 0; w < serveClients; w++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// scrape reads the server's Prometheus text into series → value.
func scrape(client *http.Client, url string) (map[string]float64, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// heapStats reads cumulative allocation and GC counts from the server's
// pprof heap profile (its "# TotalAlloc = N" and "# NumGC = N" lines).
func heapStats(client *http.Client, debugBase string) (alloc, gcs float64, err error) {
	resp, err := client.Get(debugBase + "/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	found := 0
	for sc.Scan() {
		var v float64
		if n, _ := fmt.Sscanf(sc.Text(), "# TotalAlloc = %g", &v); n == 1 {
			alloc = v
			found++
		} else if n, _ := fmt.Sscanf(sc.Text(), "# NumGC = %g", &v); n == 1 {
			gcs = v
			found++
		}
	}
	if found != 2 {
		return 0, 0, fmt.Errorf("heap profile lacks TotalAlloc/NumGC")
	}
	return alloc, gcs, sc.Err()
}

// runServe drives prophetd, in its own process, with a closed loop of
// serveClients clients replaying a seeded fixed-proportion schedule.
func runServe(cfg config) (*outcome, error) {
	if cfg.prophetd == "" {
		return nil, fmt.Errorf("serve needs -prophetd")
	}
	out := &outcome{}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients + 1}}
	defer client.CloseIdleConnections()

	rng := rand.New(rand.NewSource(cfg.seed))
	cycle := append([]string(nil), serveCycle...)
	rng.Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })

	var (
		srv   *prophetd
		sm    *serveModels
		sc    *serveClient
		slots atomic.Int64 // next schedule slot
	)
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	err := timeSetup(out, func() error {
		var err error
		if sm, err = newServeModels(); err != nil {
			return err
		}
		if srv, err = startProphetd(cfg.prophetd, cfg.trace, client); err != nil {
			return err
		}
		sc = &serveClient{http: client, base: srv.base, sm: sm, seed: cfg.seed}
		if err := prefill(sc, cfg.seed); err != nil {
			return err
		}
		if sm.hotID, err = sc.upload(sm.hotXMI); err != nil {
			return err
		}
		if sm.smallID, err = sc.upload(sm.smallXMI); err != nil {
			return err
		}
		for k := 0; k < serveHotKeys; k++ {
			var s served
			if err := sc.estimate(map[string]any{"model_id": sm.hotID, "seed": hotSeed(cfg.seed, k)}, &s); err != nil {
				return err
			}
		}
		// Warm-up slots use slot numbers the timed phase never reuses.
		slots.Store(0)
		for i := 0; i < serveWarmSlots; i++ {
			slot := int(slots.Add(1) - 1)
			if _, err := sc.do(cycle[slot%len(cycle)], slot); err != nil {
				return err
			}
		}
		return nil
	}, func() error {
		if err := srv.stop(); err != nil {
			return fmt.Errorf("prophetd exit: %w", err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	before, err := scrape(client, srv.base+"/metrics")
	if err != nil {
		return nil, err
	}
	var alloc0, gc0 float64
	if cfg.trace {
		if alloc0, gc0, err = heapStats(client, srv.debug); err != nil {
			return nil, err
		}
	}

	var (
		mu       sync.Mutex
		done     []served
		failures []string
		wg       sync.WaitGroup
		rec      *recorder
	)
	if cfg.trace {
		rec = newRecorder()
	}
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	for w := 0; w < serveClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				slot := int(slots.Add(1) - 1)
				// The traced run alternates whole schedule cycles between
				// traced and untraced, so both halves hold the same mix.
				traced := cfg.trace && (slot/len(cycle))%2 == 1
				c := *sc
				if traced {
					c.rec = rec
				}
				s, err := c.do(cycle[slot%len(cycle)], slot)
				s.traced = traced
				mu.Lock()
				if err != nil {
					failures = append(failures, fmt.Sprintf("slot %d (%s): %v", slot, s.kind, err))
				} else {
					done = append(done, s)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	out.busy = time.Since(start)

	after, err := scrape(client, srv.base+"/metrics")
	if err != nil {
		return nil, err
	}
	var alloc1, gc1 float64
	if cfg.trace {
		if alloc1, gc1, err = heapStats(client, srv.debug); err != nil {
			return nil, err
		}
	}
	if out.peakRSSKB, err = peakRSSKB(strconv.Itoa(srv.cmd.Process.Pid)); err != nil {
		return nil, err
	}
	if err := srv.stop(); err != nil {
		out.fail("prophetd exit: %v", err)
	}

	out.attempted = len(done) + len(failures)
	for _, f := range failures {
		out.fail("%s", f)
	}
	byKind := map[string][]time.Duration{}
	var traced, untraced []time.Duration
	outcomes := map[string]int{}
	reuploads := 0
	for _, s := range done {
		if s.traced {
			traced = append(traced, s.latency)
		} else {
			untraced = append(untraced, s.latency)
			out.ops = append(out.ops, s.latency)
		}
		byKind[s.kind] = append(byKind[s.kind], s.latency)
		outcomes[s.cache]++
		reuploads += s.reuploads
		want := "miss"
		if s.kind == kindHit {
			want = "hit"
		}
		if s.cache != want {
			out.fail("slot %d (%s): X-Result-Cache %q, schedule expects %q", s.slot, s.kind, s.cache, want)
		}
	}
	if cfg.trace {
		// Every timed op is counted; ops_per_s is not reported here.
		out.ops = append(out.ops, traced...)
	}

	delta := func(series string) float64 { return after[series] - before[series] }
	for _, o := range []string{"hit", "miss", "inflight", "bypass"} {
		if got := delta(`server_result_cache_total{outcome="` + o + `"}`); int(got) != outcomes[o] {
			out.fail("server_result_cache_total{outcome=%q} grew by %v, clients saw %d", o, got, outcomes[o])
		}
	}
	verifyServed(out, sm, done)
	out.report = append(out.report,
		fmt.Sprintf("serve: %d clients, closed loop, cycle %v", serveClients, cycle),
		fmt.Sprintf("serve: %d requests in %.2fs; cache outcomes %v; %d evicted models uploaded again", len(done), out.busy.Seconds(), outcomes, reuploads),
		"correctness: every 200 answer equals an in-process estimator answer; cache outcomes match the schedule and /metrics")

	if cfg.trace {
		spans := rec.finish()
		path, err := writeSpans(cfg.spansDir, cfg, spans)
		if err != nil {
			return nil, err
		}
		out.report = append(out.report, "spans written to "+path)
		out.layers = map[string]float64{}
		for kind, ds := range byKind {
			out.layers["server."+kind+"_ms"] = medianMS(ds)
		}
		hits, misses, inflight := delta(`server_result_cache_total{outcome="hit"}`), delta(`server_result_cache_total{outcome="miss"}`), delta(`server_result_cache_total{outcome="inflight"}`)
		out.layers["server.result_cache_hit_ratio"] = hits / (hits + misses + inflight)
		out.layers["server.inflight_coalesced"] = inflight
		var rejected float64
		for series := range after {
			if strings.HasPrefix(series, "server_rejected_total") {
				rejected += delta(series)
			}
		}
		out.layers["server.admission_rejected"] = rejected
		for _, st := range []string{"check", "compile", "lower", "simulate", "analytic"} {
			n := delta(`estimate_stage_seconds_count{stage="` + st + `"}`)
			if n > 0 {
				out.layers["estimator.stage_"+st+"_ms"] = 1e3 * delta(`estimate_stage_seconds_sum{stage="`+st+`"}`) / n
			}
		}
		ch, cm := delta("estimator_cache_hits_total"), delta("estimator_cache_misses_total")
		if ch+cm > 0 {
			out.layers["estimator.compile_cache_hit_ratio"] = ch / (ch + cm)
		}
		n := float64(len(done))
		out.layers["go.alloc_mb_per_op"] = (alloc1 - alloc0) / n / (1 << 20)
		out.layers["go.gc_cycles_per_op"] = (gc1 - gc0) / n
		out.layers["tracing_overhead_pct"] = overheadPct(traced, untraced)
		// Residual: client latency the server's own request histogram
		// does not account for (HTTP client, loopback, JSON).
		var srvSum, srvN float64
		for series := range after {
			if strings.HasPrefix(series, "http_request_seconds_sum{") && !strings.Contains(series, `"metrics"`) {
				srvSum += delta(series)
				srvN += delta(strings.Replace(series, "_sum{", "_count{", 1))
			}
		}
		var clientSum time.Duration
		for _, s := range done {
			clientSum += s.latency
		}
		if srvN > 0 {
			out.layers["op.residual_ms"] = (ms(clientSum) - 1e3*srvSum) / n
		}
	}
	return out, nil
}

// verifyServed recomputes every answer in process and compares it with
// what the server returned. Answers of the hot keys, which repeat, are
// computed once per key.
func verifyServed(out *outcome, sm *serveModels, done []served) {
	hot, err := xmi.DecodeString(sm.hotXMI)
	if err != nil {
		out.fail("decode hot model: %v", err)
		return
	}
	small, err := xmi.DecodeString(sm.smallXMI)
	if err != nil {
		out.fail("decode small model: %v", err)
		return
	}
	est := estimator.New()
	var memo sync.Map // hot seed → makespan
	jobs := make(chan *served)
	var (
		wg sync.WaitGroup
		mu sync.Mutex
	)
	for w := 0; w < serveClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range jobs {
				if err := checkServed(est, hot, small, &memo, s); err != nil {
					mu.Lock()
					out.fail("slot %d (%s): %v", s.slot, s.kind, err)
					mu.Unlock()
				}
			}
		}()
	}
	for i := range done {
		jobs <- &done[i]
	}
	close(jobs)
	wg.Wait()
}

// checkServed compares one answer with the estimator's, evaluated as the
// server evaluates the request: default machine, the request's seed and
// mode, compiled once per model.
func checkServed(est *estimator.Estimator, hot, small *uml.Model, memo *sync.Map, s *served) error {
	req := estimator.Request{Model: small, Params: machine.DefaultParams(), Seed: s.seed}
	switch s.kind {
	case kindHit:
		req.Model = hot
		if v, ok := memo.Load(s.seed); ok {
			return sameMakespan(s.makespan, v.(float64))
		}
	case kindAnalytic:
		req.Mode = estimator.ModeAnalytic
	case kindUpload:
		m, err := xmi.DecodeString(s.modelXMI)
		if err != nil {
			return err
		}
		req.Model = m
	case kindMC:
		req.Parallel = 1
		mk, err := est.MonteCarloMakespans(req, serveMCRuns)
		if err != nil {
			return err
		}
		sum := estimator.SummarizeMakespans(mk)
		want := mcSummary{Runs: sum.Runs, Mean: sum.Mean, Std: sum.Std, Min: sum.Min, Max: sum.Max}
		if s.mc != want {
			return fmt.Errorf("server answered %+v, estimator %+v", s.mc, want)
		}
		return nil
	}
	pr, err := est.CompileCached(req.Model)
	if err != nil {
		return err
	}
	e, err := est.EstimateCompiledFast(pr, req)
	if err != nil {
		return err
	}
	if s.kind == kindHit {
		memo.Store(s.seed, e.Makespan)
	}
	return sameMakespan(s.makespan, e.Makespan)
}

func sameMakespan(got, want float64) error {
	if got != want {
		return fmt.Errorf("server makespan %v, estimator %v", got, want)
	}
	return nil
}

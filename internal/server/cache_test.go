package server

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prophet/internal/obs"
)

// registerModel uploads XMI and returns its content address.
func registerModel(t *testing.T, base, xml string) string {
	t.Helper()
	resp, err := http.Post(base+"/v1/models", "application/xml", strings.NewReader(xml))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register model: status %d: %s", resp.StatusCode, raw)
	}
	var mr ModelResponse
	decodeInto(t, raw, &mr)
	return mr.ID
}

// estimatorRuns reads the estimator's evaluation counter — the ground
// truth for "the hit path never invokes the estimator".
func estimatorRuns(reg *obs.Registry) int64 {
	return reg.Counter("estimator_runs_total").Value()
}

// A repeated identical request is served from the result cache: same
// bytes, no estimator invocation, X-Result-Cache flipping miss → hit.
func TestResultCacheHitSkipsEstimator(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config{Registry: reg, ResultCache: 64})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := EstimateRequest{ModelRef: ModelRef{ModelXMI: sampleXMI(t)}, Seed: 7}
	code, hdr, body := postJSON(t, ts.URL+"/v1/estimate", req)
	if code != http.StatusOK {
		t.Fatalf("cold: status %d: %s", code, body)
	}
	if got := hdr.Get(resultCacheHeader); got != outcomeMiss {
		t.Errorf("cold X-Result-Cache = %q, want %q", got, outcomeMiss)
	}
	runsAfterCold := estimatorRuns(reg)
	if runsAfterCold < 1 {
		t.Fatalf("estimator_runs_total = %d after a cold request", runsAfterCold)
	}

	code2, hdr2, body2 := postJSON(t, ts.URL+"/v1/estimate", req)
	if code2 != http.StatusOK {
		t.Fatalf("hot: status %d: %s", code2, body2)
	}
	if got := hdr2.Get(resultCacheHeader); got != outcomeHit {
		t.Errorf("hot X-Result-Cache = %q, want %q", got, outcomeHit)
	}
	if got := estimatorRuns(reg); got != runsAfterCold {
		t.Errorf("hit path invoked the estimator: runs %d -> %d", runsAfterCold, got)
	}
	if !bytes.Equal(body, body2) {
		t.Errorf("cached body differs from original:\n%s\nvs\n%s", body, body2)
	}
	// Cached bodies must not embed per-request trace ids — the trace id
	// lives in the per-request X-Trace-Id header instead.
	if bytes.Contains(body, []byte("trace_id")) {
		t.Errorf("cacheable body embeds a trace_id: %s", body)
	}
	if hdr.Get("X-Trace-Id") == "" || hdr.Get("X-Trace-Id") == hdr2.Get("X-Trace-Id") {
		t.Error("X-Trace-Id should be present and unique per request")
	}
	// A syntactically different but semantically identical request hits
	// the same entry.
	code3, hdr3, body3 := postJSON(t, ts.URL+"/v1/estimate", EstimateRequest{
		ModelRef: ModelRef{ModelXMI: sampleXMI(t)}, Seed: 7,
		Params: &Params{Nodes: 1, ProcessorsPerNode: 1, Processes: 1, Threads: 1},
		Policy: "fcfs", Backend: "auto", TimeoutMS: 60_000,
	})
	if code3 != http.StatusOK || hdr3.Get(resultCacheHeader) != outcomeHit {
		t.Errorf("normalized request: status %d, X-Result-Cache %q, want 200 hit", code3, hdr3.Get(resultCacheHeader))
	}
	if !bytes.Equal(body, body3) {
		t.Error("normalized request body differs from cached body")
	}
}

// N concurrent identical requests run exactly one simulation: one leader
// misses and evaluates while every other request coalesces onto its
// flight, and all N receive bit-identical bodies.
func TestSingleflightCoalescesIdenticalRequests(t *testing.T) {
	const n = 8
	reg := obs.NewRegistry()
	s := New(Config{Registry: reg, ResultCache: 64, MaxInFlight: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	id := registerModel(t, ts.URL, sampleXMI(t))
	req := EstimateRequest{ModelRef: ModelRef{ModelID: id}, Seed: 3}
	key := estimateKey(id, &req)

	// The leader parks after taking its admission slot until the other
	// n-1 requests are coalesced behind its flight, guaranteeing true
	// concurrency rather than a lucky sequential schedule.
	s.hookAdmitted = func() {
		deadline := time.Now().Add(10 * time.Second)
		for s.cache.waiters(key) < n-1 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}

	type result struct {
		code    int
		outcome string
		body    []byte
	}
	results := make([]result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, hdr, body := postJSON(t, ts.URL+"/v1/estimate", req)
			results[i] = result{code: code, outcome: hdr.Get(resultCacheHeader), body: body}
		}(i)
	}
	wg.Wait()

	outcomes := map[string]int{}
	for i, r := range results {
		if r.code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, r.code, r.body)
		}
		outcomes[r.outcome]++
		if !bytes.Equal(r.body, results[0].body) {
			t.Errorf("request %d body differs from request 0", i)
		}
	}
	if outcomes[outcomeMiss] != 1 || outcomes[outcomeInflight] != n-1 {
		t.Errorf("outcomes = %v, want 1 %s + %d %s", outcomes, outcomeMiss, n-1, outcomeInflight)
	}
	if got := estimatorRuns(reg); got != 1 {
		t.Errorf("estimator_runs_total = %d for %d concurrent identical requests, want 1", got, n)
	}
}

// InvalidateCache drops stored results: the next identical request
// re-evaluates instead of serving stale bytes.
func TestInvalidateCacheForcesReevaluation(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config{Registry: reg, ResultCache: 64})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := EstimateRequest{ModelRef: ModelRef{ModelXMI: sampleXMI(t)}}
	for i, want := range []string{outcomeMiss, outcomeHit} {
		code, hdr, body := postJSON(t, ts.URL+"/v1/estimate", req)
		if code != http.StatusOK || hdr.Get(resultCacheHeader) != want {
			t.Fatalf("request %d: status %d outcome %q, want 200 %s: %s", i, code, hdr.Get(resultCacheHeader), want, body)
		}
	}
	runsBefore := estimatorRuns(reg)

	s.InvalidateCache()
	if got := reg.Gauge("server_result_cache_entries").Value(); got != 0 {
		t.Errorf("server_result_cache_entries = %g after InvalidateCache, want 0", got)
	}
	code, hdr, body := postJSON(t, ts.URL+"/v1/estimate", req)
	if code != http.StatusOK || hdr.Get(resultCacheHeader) != outcomeMiss {
		t.Fatalf("post-invalidate: status %d outcome %q, want 200 miss: %s", code, hdr.Get(resultCacheHeader), body)
	}
	if got := estimatorRuns(reg); got != runsBefore+1 {
		t.Errorf("post-invalidate runs = %d, want %d (a fresh evaluation)", got, runsBefore+1)
	}
}

// Failed evaluations never poison the cache: a request that dies on its
// deadline (504) or whose client disconnects (499) stores nothing, and
// the next identical request evaluates fresh and succeeds.
func TestFailedEvaluationsDoNotPoisonCache(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config{Registry: reg, ResultCache: 64})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Slow enough to blow a 1ms deadline, fast enough to finish promptly
	// without one. timeout_ms is not part of the canonical key, so all
	// three requests share one cache entry — which is exactly the hazard.
	xml := slowModelXMI(t, 500_000)
	id := registerModel(t, ts.URL, xml)
	req := EstimateRequest{ModelRef: ModelRef{ModelID: id}, MaxSteps: 20_000_000, TimeoutMS: 1}

	code, _, body := postJSON(t, ts.URL+"/v1/estimate", req)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("deadline request: status %d, want 504: %s", code, body)
	}
	if got := reg.Gauge("server_result_cache_entries").Value(); got != 0 {
		t.Fatalf("a 504 was stored in the result cache (%g entries)", got)
	}

	// Client disconnect mid-evaluation: the server observes 499
	// internally; nothing may be stored or shared.
	cctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	full := req
	full.TimeoutMS = 0
	buf := marshalBody(full)
	hr, err := http.NewRequestWithContext(cctx, http.MethodPost, ts.URL+"/v1/estimate", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Content-Type", "application/json")
	if resp, err := http.DefaultClient.Do(hr); err == nil {
		resp.Body.Close()
		t.Log("client-cancel request completed before the cancel; scenario degraded to a plain success")
	}
	cancel()
	time.Sleep(100 * time.Millisecond) // let the server-side evaluation unwind

	code, hdr, body := postJSON(t, ts.URL+"/v1/estimate", full)
	if code != http.StatusOK {
		t.Fatalf("follow-up request: status %d, want 200: %s", code, body)
	}
	if got := hdr.Get(resultCacheHeader); got == outcomeHit {
		t.Errorf("follow-up served outcome %q from a failed predecessor", got)
	}
}

// Deterministic model errors (422) are shared with concurrent waiters
// but never stored: a later identical request re-fails fresh.
func TestModelErrorsSharedNotStored(t *testing.T) {
	s := New(Config{ResultCache: 64})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A model that exceeds max_steps deterministically fails with 422.
	req := EstimateRequest{ModelRef: ModelRef{ModelXMI: slowModelXMI(t, 1000)}, MaxSteps: 10}
	for i := 0; i < 2; i++ {
		code, hdr, body := postJSON(t, ts.URL+"/v1/estimate", req)
		if code != http.StatusUnprocessableEntity {
			t.Fatalf("request %d: status %d, want 422: %s", i, code, body)
		}
		if got := hdr.Get(resultCacheHeader); got != outcomeMiss {
			t.Errorf("request %d: outcome %q, want %s (errors are never stored)", i, got, outcomeMiss)
		}
	}
	if got := cacheEntryCount(s); got != 0 {
		t.Errorf("result cache holds %d entries after only failures", got)
	}
}

func cacheEntryCount(s *Server) int {
	s.cache.mu.Lock()
	defer s.cache.mu.Unlock()
	return len(s.cache.entries)
}

// ?trace=1 responses embed a per-request span tree and therefore bypass
// the cache entirely, even when the same request is already cached.
func TestInlineTraceBypassesCache(t *testing.T) {
	s := New(Config{ResultCache: 64})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := EstimateRequest{ModelRef: ModelRef{ModelXMI: sampleXMI(t)}}
	if code, _, body := postJSON(t, ts.URL+"/v1/estimate", req); code != http.StatusOK {
		t.Fatalf("warm-up: status %d: %s", code, body)
	}
	code, hdr, body := postJSON(t, ts.URL+"/v1/estimate?trace=1", req)
	if code != http.StatusOK {
		t.Fatalf("traced: status %d: %s", code, body)
	}
	if got := hdr.Get(resultCacheHeader); got != outcomeBypass {
		t.Errorf("traced request outcome %q, want %s", got, outcomeBypass)
	}
	if !bytes.Contains(body, []byte("trace_id")) {
		t.Errorf("traced body lacks trace_id: %s", body)
	}
}

// The LRU bound holds: max+1 distinct requests leave max entries, and
// the evicted (oldest) key misses while a recent one still hits.
func TestResultCacheLRUEviction(t *testing.T) {
	const max = 4
	s := New(Config{ResultCache: max})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	xml := sampleXMI(t)
	post := func(seed int64) string {
		t.Helper()
		code, hdr, body := postJSON(t, ts.URL+"/v1/estimate", EstimateRequest{
			ModelRef: ModelRef{ModelXMI: xml}, Seed: seed,
		})
		if code != http.StatusOK {
			t.Fatalf("seed %d: status %d: %s", seed, code, body)
		}
		return hdr.Get(resultCacheHeader)
	}
	for seed := int64(1); seed <= max+1; seed++ {
		if got := post(seed); got != outcomeMiss {
			t.Fatalf("seed %d first request: outcome %q, want miss", seed, got)
		}
	}
	if got := cacheEntryCount(s); got != max {
		t.Errorf("cache holds %d entries, want %d", got, max)
	}
	if got := post(1); got != outcomeMiss {
		t.Errorf("evicted seed 1: outcome %q, want miss", got)
	}
	if got := post(max + 1); got != outcomeHit {
		t.Errorf("recent seed %d: outcome %q, want hit", max+1, got)
	}
}

// A leader whose evaluation panics must still release its flight: a
// waiter coalesced onto it wakes promptly and runs a fresh evaluation of
// the same key, and the singleflight table ends empty.
func TestPanickingLeaderReleasesFlight(t *testing.T) {
	c := newResultCache(8, obs.NewRegistry())
	started, release := make(chan struct{}), make(chan struct{})
	leaderPanic := make(chan any, 1)
	go func() {
		defer func() { leaderPanic <- recover() }()
		_, _, _ = c.do(context.Background(), "k", func() (*cachedResult, bool, error) {
			close(started)
			<-release
			panic("boom")
		})
	}()
	<-started

	type result struct {
		res     *cachedResult
		outcome string
		err     error
	}
	waiter := make(chan result, 1)
	go func() {
		res, outcome, err := c.do(context.Background(), "k", func() (*cachedResult, bool, error) {
			return &cachedResult{status: http.StatusOK, body: []byte("fresh")}, true, nil
		})
		waiter <- result{res, outcome, err}
	}()
	// Let the waiter coalesce onto the panicking leader's flight.
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		c.mu.Lock()
		refs := c.flights["k"].refs
		c.mu.Unlock()
		if refs == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("waiter never coalesced onto the leader")
		}
	}
	close(release)
	if v := <-leaderPanic; v != "boom" {
		t.Fatalf("leader panic = %v, want boom", v)
	}
	select {
	case r := <-waiter:
		if r.err != nil || r.outcome != outcomeMiss || string(r.res.body) != "fresh" {
			t.Errorf("waiter after a panicking leader: %q %q %v, want a fresh miss", r.outcome, r.res.body, r.err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter stayed blocked on the panicking leader's flight")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.flights) != 0 {
		t.Errorf("%d flights left after the panic", len(c.flights))
	}
}

// An evaluation that panics answers a typed 500 naming the trace id,
// counts server_panics_total, logs one line, and frees its admission
// slot and flight, so the next identical request evaluates afresh.
func TestEvaluationPanicAnswers500(t *testing.T) {
	reg := obs.NewRegistry()
	var logs bytes.Buffer
	s := New(Config{Registry: reg, ResultCache: 64, Logger: slog.New(slog.NewJSONHandler(&logs, nil))})
	var panicked atomic.Bool
	s.hookAdmitted = func() {
		if panicked.CompareAndSwap(false, true) {
			panic("boom")
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := EstimateRequest{ModelRef: ModelRef{ModelXMI: sampleXMI(t)}, Seed: 7}
	code, hdr, body := postJSON(t, ts.URL+"/v1/estimate", req)
	id := hdr.Get("X-Trace-Id")
	if code != http.StatusInternalServerError || id == "" || !strings.Contains(string(body), id) {
		t.Fatalf("panicking evaluation: status %d, trace %q, body %s", code, id, body)
	}
	if got := reg.Counter("server_panics_total").Value(); got != 1 {
		t.Errorf("server_panics_total = %d, want 1", got)
	}
	for _, g := range []string{"server_inflight", "server_queue_depth"} {
		if got := reg.Gauge(g).Value(); got != 0 {
			t.Errorf("%s = %g after the panic, want 0", g, got)
		}
	}
	var panicLines int
	for _, ln := range strings.Split(logs.String(), "\n") {
		if strings.Contains(ln, "evaluation panicked") {
			panicLines++
			if !strings.Contains(ln, id) || !strings.Contains(ln, "boom") {
				t.Errorf("panic log line lacks the trace id or the panic: %s", ln)
			}
		}
	}
	if panicLines != 1 {
		t.Errorf("%d panic log lines, want 1:\n%s", panicLines, logs.String())
	}

	start := time.Now()
	code, hdr, body = postJSON(t, ts.URL+"/v1/estimate", req)
	if code != http.StatusOK || hdr.Get(resultCacheHeader) != outcomeMiss {
		t.Fatalf("retry after the panic: status %d, X-Result-Cache %q: %s", code, hdr.Get(resultCacheHeader), body)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("retry after the panic took %v", d)
	}
	s.cache.mu.Lock()
	defer s.cache.mu.Unlock()
	if len(s.cache.flights) != 0 {
		t.Errorf("%d flights left after the panic", len(s.cache.flights))
	}
}

package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"prophet/internal/obs"
)

func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// spanNames flattens a span tree into its set of span names.
func spanNames(n *obs.SpanNode, into map[string]int) {
	if n == nil {
		return
	}
	into[n.Name]++
	for _, c := range n.Children {
		spanNames(c, into)
	}
}

func TestRequestTraceEndToEnd(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	code, hdr, body := postJSON(t, ts.URL+"/v1/estimate?trace=1", EstimateRequest{
		ModelRef: ModelRef{ModelXMI: sampleXMI(t)},
	})
	if code != http.StatusOK {
		t.Fatalf("estimate: status %d: %s", code, body)
	}
	var er EstimateResponse
	decodeInto(t, body, &er)
	if er.TraceID == "" {
		t.Fatal("response has no trace_id")
	}
	if hdr.Get("X-Trace-Id") != er.TraceID {
		t.Fatalf("X-Trace-Id = %q, body trace_id = %q", hdr.Get("X-Trace-Id"), er.TraceID)
	}
	if er.Trace == nil || er.Trace.Root == nil {
		t.Fatal("?trace=1 returned no inline span tree")
	}
	if er.Trace.Root.Name != "request" {
		t.Fatalf("inline root = %q", er.Trace.Root.Name)
	}

	// The completed tree is fetchable by ID after the response.
	code, body = getBody(t, ts.URL+"/v1/traces/"+er.TraceID)
	if code != http.StatusOK {
		t.Fatalf("GET /v1/traces/{id}: status %d: %s", code, body)
	}
	var tree obs.TraceTree
	decodeInto(t, body, &tree)
	if tree.TraceID != er.TraceID {
		t.Fatalf("fetched trace %q, want %q", tree.TraceID, er.TraceID)
	}
	root := tree.Root
	if root.Unfinished {
		t.Fatal("fetched root span still unfinished")
	}
	if root.Attrs["route"] != "estimate" || root.Attrs["status"] != "200" {
		t.Fatalf("root attrs = %v", root.Attrs)
	}

	// Every pipeline stage shows up, and direct children sum within the
	// request wall time.
	names := map[string]int{}
	spanNames(root, names)
	for _, want := range []string{"parse", "admission", "check", "compile", "simulate", "sim"} {
		if names[want] == 0 {
			t.Errorf("span %q missing from tree %v", want, names)
		}
	}
	var sum float64
	for _, c := range root.Children {
		sum += c.Seconds
	}
	if sum > root.Seconds {
		t.Errorf("children sum %g exceeds root wall time %g", sum, root.Seconds)
	}
}

func TestTraceCacheAnnotations(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	xml := sampleXMI(t)
	var ids [2]string
	for i := range ids {
		code, hdr, body := postJSON(t, ts.URL+"/v1/estimate", EstimateRequest{
			ModelRef: ModelRef{ModelXMI: xml},
		})
		if code != http.StatusOK {
			t.Fatalf("estimate %d: status %d: %s", i, code, body)
		}
		ids[i] = hdr.Get("X-Trace-Id")
	}
	// First request compiled (cache=miss), second hit the program cache.
	want := [2]string{"miss", "hit"}
	for i, id := range ids {
		_, body := getBody(t, ts.URL+"/v1/traces/"+id)
		var tree obs.TraceTree
		decodeInto(t, body, &tree)
		found := ""
		for _, c := range tree.Root.Children {
			if c.Name == "compile" {
				found = c.Attrs["cache"]
			}
		}
		if found != want[i] {
			t.Errorf("request %d compile cache = %q, want %q", i, found, want[i])
		}
	}
}

func TestTracesListAndNotFound(t *testing.T) {
	srv := New(Config{TraceRingSize: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, body := getBody(t, ts.URL+"/v1/traces/deadbeef")
	if code != http.StatusNotFound {
		t.Fatalf("unknown trace: status %d: %s", code, body)
	}

	xml := sampleXMI(t)
	var last string
	for i := 0; i < 3; i++ {
		_, hdr, _ := postJSON(t, ts.URL+"/v1/estimate", EstimateRequest{ModelRef: ModelRef{ModelXMI: xml}})
		last = hdr.Get("X-Trace-Id")
	}
	code, body = getBody(t, ts.URL+"/v1/traces")
	if code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	var list TracesResponse
	decodeInto(t, body, &list)
	// Ring size 2: the oldest of the three was evicted; newest first.
	if len(list.Traces) != 2 {
		t.Fatalf("listed %d traces, want 2", len(list.Traces))
	}
	if list.Traces[0].TraceID != last {
		t.Fatalf("newest trace = %q, want %q", list.Traces[0].TraceID, last)
	}
	if list.Traces[0].Route != "estimate" || list.Traces[0].Spans == 0 {
		t.Fatalf("bad summary: %+v", list.Traces[0])
	}
}

func TestTraceChromeExport(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	_, hdr, _ := postJSON(t, ts.URL+"/v1/estimate", EstimateRequest{ModelRef: ModelRef{ModelXMI: sampleXMI(t)}})
	id := hdr.Get("X-Trace-Id")

	code, body := getBody(t, ts.URL+"/v1/traces/"+id+"?format=chrome")
	if code != http.StatusOK {
		t.Fatalf("chrome export: status %d: %s", code, body)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	decodeInto(t, body, &doc)
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome export has no events")
	}
	if code, _ := getBody(t, ts.URL+"/v1/traces/"+id+"?format=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bogus format: status %d, want 400", code)
	}
}

func TestMetricsPrometheusFormat(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	postJSON(t, ts.URL+"/v1/estimate", EstimateRequest{ModelRef: ModelRef{ModelXMI: sampleXMI(t)}})

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE http_request_seconds histogram",
		`http_request_seconds_bucket{route="estimate",le="+Inf"} 1`,
		`http_request_seconds_count{route="estimate"} 1`,
		"# TYPE estimate_stage_seconds histogram",
		`estimate_stage_seconds_bucket{stage="simulate",le="+Inf"} 1`,
		// The server compiles through CompileCachedCtx, whose check and
		// compile stages are recorded too.
		`estimate_stage_seconds_count{stage="check"} 1`,
		`estimate_stage_seconds_count{stage="compile"} 1`,
		"# HELP server_panics_total",
		"server_panics_total 0",
		"# HELP server_rejected_total",
		`server_rejected_total{reason="queue_full"} 0`,
		`server_rejected_total{reason="queue_timeout"} 0`,
		"# TYPE go_goroutines gauge",
		"go_heap_alloc_bytes",
		"go_gc_pause_seconds_total",
		"server_uptime_seconds",
		"server_traces_stored 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Family headers must not repeat per labeled child.
	if n := strings.Count(text, "# TYPE http_requests_total "); n != 1 {
		t.Errorf("http_requests_total TYPE header appears %d times", n)
	}
}

func TestStructuredRequestLog(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	ts := httptest.NewServer(New(Config{Logger: logger}).Handler())
	defer ts.Close()

	_, hdr, _ := postJSON(t, ts.URL+"/v1/estimate", EstimateRequest{ModelRef: ModelRef{ModelXMI: sampleXMI(t)}})
	id := hdr.Get("X-Trace-Id")

	var line map[string]any
	found := false
	for _, raw := range bytes.Split(buf.Bytes(), []byte("\n")) {
		if len(raw) == 0 {
			continue
		}
		if err := json.Unmarshal(raw, &line); err != nil {
			t.Fatalf("log line is not JSON: %s", raw)
		}
		if line["route"] == "estimate" {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no estimate request line in log: %s", buf.String())
	}
	if line["trace_id"] != id {
		t.Errorf("log trace_id = %v, want %q", line["trace_id"], id)
	}
	if line["status"] != float64(200) || line["method"] != "POST" {
		t.Errorf("bad log line: %v", line)
	}
	if _, ok := line["seconds"]; !ok {
		t.Errorf("log line has no duration: %v", line)
	}
}

// Healthz polls log at Debug only: an Info-level logger stays quiet.
func TestQuietRoutesNotLoggedAtInfo(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil)) // Info level
	ts := httptest.NewServer(New(Config{Logger: logger}).Handler())
	defer ts.Close()
	getBody(t, ts.URL+"/healthz")
	getBody(t, ts.URL+"/metrics")
	if buf.Len() != 0 {
		t.Fatalf("quiet routes logged at info: %s", buf.String())
	}
}

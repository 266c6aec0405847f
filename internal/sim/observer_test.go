package sim

import (
	"testing"
)

// collectObserver retains everything it is handed, unfiltered.
type collectObserver struct {
	events  []string
	samples []Sample
}

func (c *collectObserver) Event(t float64, p *Process, what string) {
	c.events = append(c.events, what)
}
func (c *collectObserver) Sample(s Sample) { c.samples = append(c.samples, s) }

func TestObserverSamplesFacilityTelemetry(t *testing.T) {
	e := New()
	cpu := e.NewFacility("cpu", 1)
	mbox := e.NewMailbox("mbox")
	obs := &collectObserver{}
	e.SetObserver(obs, 0)

	for i := 0; i < 3; i++ {
		e.Spawn("worker", func(p *Process) {
			cpu.Use(p, 1)
		})
	}
	e.Spawn("sender", func(p *Process) {
		p.Hold(0.5)
		mbox.Send("hello")
	})
	end, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if end != 3 {
		t.Fatalf("makespan = %v, want 3", end)
	}
	if len(obs.samples) == 0 {
		t.Fatal("no samples recorded")
	}
	var sawQueue, sawMail bool
	prev := -1.0
	for _, s := range obs.samples {
		if s.Time < prev {
			t.Errorf("sample times must be nondecreasing: %v after %v", s.Time, prev)
		}
		prev = s.Time
		if u := s.FacilityUtilization["cpu"]; u < 0 || u > 1 {
			t.Errorf("utilization out of range: %v", u)
		}
		if s.FacilityQueue["cpu"] > 0 {
			sawQueue = true
		}
		if s.MailboxDepth["mbox"] > 0 {
			sawMail = true
		}
	}
	if !sawQueue {
		t.Error("three jobs on one server should show a nonzero queue in some sample")
	}
	if !sawMail {
		t.Error("undelivered message should show a nonzero mailbox depth in some sample")
	}
	last := obs.samples[len(obs.samples)-1]
	if last.Time != end {
		t.Errorf("final sample at %v, want %v", last.Time, end)
	}
	if last.LiveProcesses != 0 || last.EventQueueLen != 0 {
		t.Errorf("final sample should see an idle engine: %+v", last)
	}
	if u := last.FacilityUtilization["cpu"]; u != 1 {
		t.Errorf("cpu was saturated the whole run, utilization = %v", u)
	}
}

func TestObserverAutoModeSamplesOncePerTimestamp(t *testing.T) {
	e := New()
	obs := &collectObserver{}
	e.SetObserver(obs, 0)
	// Three callbacks at the same instant, then one later.
	for i := 0; i < 3; i++ {
		e.At(1, func() {})
	}
	e.At(2, func() {})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	counts := map[float64]int{}
	for _, s := range obs.samples {
		counts[s.Time]++
	}
	if counts[1] != 1 {
		t.Errorf("auto mode sampled t=1 %d times, want 1", counts[1])
	}
	if counts[2] != 1 {
		t.Errorf("auto mode sampled t=2 %d times, want 1", counts[2])
	}
}

func TestObserverSamplingInterval(t *testing.T) {
	e := New()
	obs := &collectObserver{}
	e.SetObserver(obs, 2.5)
	e.Spawn("clock", func(p *Process) {
		for i := 0; i < 10; i++ {
			p.Hold(1)
		}
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Threshold crossings at 0, 2.5, 5, 7.5, 10 → samples at 0, 3, 5, 8, 10.
	want := []float64{0, 3, 5, 8, 10}
	if len(obs.samples) != len(want) {
		t.Fatalf("got %d samples %+v, want times %v", len(obs.samples), obs.samples, want)
	}
	for i, s := range obs.samples {
		if s.Time != want[i] {
			t.Errorf("sample %d at t=%v, want %v", i, s.Time, want[i])
		}
	}
}

func TestRecorderDecimation(t *testing.T) {
	r := NewRecorder(16)
	const n = 10000
	for i := 0; i < n; i++ {
		r.Sample(Sample{Time: float64(i)})
	}
	got := r.Samples()
	if len(got) > 17 { // capacity + possibly the trailing live sample
		t.Errorf("decimation failed: %d samples retained", len(got))
	}
	prev := -1.0
	for _, s := range got {
		if s.Time <= prev {
			t.Errorf("retained series out of order: %v after %v", s.Time, prev)
		}
		prev = s.Time
	}
	if got[0].Time != 0 {
		t.Errorf("first sample dropped: %v", got[0].Time)
	}
	if got[len(got)-1].Time != n-1 {
		t.Errorf("latest sample must survive decimation, got %v", got[len(got)-1].Time)
	}
}

func TestRecorderEventCountsAndReset(t *testing.T) {
	e := New()
	r := NewRecorder(0)
	e.SetObserver(r, 0)
	e.Spawn("p", func(p *Process) { p.Hold(1) })
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	counts := r.EventCounts()
	for _, kind := range []string{"spawn", "run", "hold", "done"} {
		if counts[kind] == 0 {
			t.Errorf("event kind %q not counted: %v", kind, counts)
		}
	}
	r.Reset()
	if len(r.Samples()) != 0 || len(r.EventCounts()) != 0 {
		t.Error("reset should clear recorder state")
	}
}

func TestEngineIntrospection(t *testing.T) {
	e := New()
	e.At(5, func() {})
	e.Spawn("p", func(p *Process) {})
	if got := e.EventQueueLen(); got != 2 {
		t.Errorf("EventQueueLen = %d, want 2 (callback + spawn wake)", got)
	}
	if got := e.LiveProcesses(); got != 1 {
		t.Errorf("LiveProcesses = %d, want 1", got)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := e.LiveProcesses(); got != 0 {
		t.Errorf("after run LiveProcesses = %d, want 0", got)
	}
}

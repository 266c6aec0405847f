// Package sim is a process-oriented discrete-event simulation engine: the
// stand-in for the commercial CSIM engine at the bottom of the paper's
// Figure 2 architecture ("CSIM Simulation Engine").
//
// The feature set mirrors what the Performance Estimator needs from CSIM:
//
//   - processes: independent threads of simulated control (Spawn), which
//     advance simulated time by holding (Process.Hold)
//   - facilities: servers with FCFS queueing and utilization statistics
//     (Facility), modeling processors and interconnect links
//   - mailboxes: typed FIFO message channels with blocking receive
//     (Mailbox), modeling point-to-point communication
//   - barriers and events for collective synchronization
//
// Processes are backed by goroutines, but exactly one goroutine — either
// the scheduler or a single process — runs at any instant; control is
// handed over explicitly through channels. Together with a deterministic
// (time, sequence)-ordered event queue this makes every simulation run
// bit-for-bit reproducible.
package sim

import (
	"container/heap"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// Engine is one simulation instance. The zero value is not usable; call
// New.
type Engine struct {
	now    float64
	events eventQueue
	seq    uint64
	// executed counts events dispatched by Run/RunUntil — the engine's
	// unit of work, reported by EventsExecuted for request telemetry.
	executed int64

	yield chan struct{} // processes hand control back on this channel
	alive []*Process
	done  int // processes in alive that have reached stateDone
	err   error

	// interrupted carries an external stop request (Interrupt). It is the
	// only engine field touched from outside the scheduler goroutine, so
	// it is atomic; the scheduler loop checks it between events.
	interrupted atomic.Pointer[interruptCause]

	// free is the event free-list: events popped from the queue are
	// recycled through schedule instead of being reallocated, so a
	// steady-state simulation schedules with zero allocations.
	free *event

	// obs, when non-nil, receives lifecycle events and telemetry samples
	// (see Observer in observer.go).
	obs         Observer
	sampleEvery float64 // sampling interval in simulated time; 0 = every time change
	nextSample  float64 // next simulated time at which to sample
	lastSampled float64 // time of the last emitted sample (-1: none yet)

	// registries of resources created on this engine, for telemetry.
	facilities   []*Facility
	psFacilities []*PSFacility
	mailboxes    []*Mailbox
}

// New creates an empty simulation. The event queue and process table are
// preallocated so short-lived engines (parameter sweeps create one per
// run) don't grow them from zero.
func New() *Engine {
	return &Engine{
		yield:       make(chan struct{}),
		lastSampled: -1,
		events:      make(eventQueue, 0, 128),
		alive:       make([]*Process, 0, 16),
	}
}

// Now returns the current simulated time.
func (e *Engine) Now() float64 { return e.now }

// EventsExecuted returns how many events Run/RunUntil have dispatched so
// far — a cheap proxy for how much simulation work a run cost. Read it
// after the run returns (the scheduler goroutine owns the counter).
func (e *Engine) EventsExecuted() int64 { return e.executed }

func (e *Engine) trace(p *Process, what string) {
	if e.obs != nil {
		e.obs.Event(e.now, p, what)
	}
}

// event is a scheduled occurrence: resume a process or run a callback.
type event struct {
	time float64
	seq  uint64
	p    *Process
	fn   func()
	next *event // free-list link; nil while the event is queued
}

// eventQueue is a binary min-heap ordered by (time, seq): ties resolve in
// schedule order, which keeps runs deterministic.
type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

// schedule enqueues an event at absolute time t, reusing a recycled
// event when one is available.
func (e *Engine) schedule(t float64, p *Process, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	ev := e.free
	if ev != nil {
		e.free = ev.next
		ev.time, ev.seq, ev.p, ev.fn, ev.next = t, e.seq, p, fn, nil
	} else {
		ev = &event{time: t, seq: e.seq, p: p, fn: fn}
	}
	heap.Push(&e.events, ev)
}

// release returns a popped event to the free-list. The event must no
// longer be referenced by the queue.
func (e *Engine) release(ev *event) {
	ev.p, ev.fn = nil, nil
	ev.next = e.free
	e.free = ev
}

// At schedules fn to run at absolute simulated time t (>= now). The
// callback runs in scheduler context: it must not block, but it may spawn
// processes and signal synchronization objects.
func (e *Engine) At(t float64, fn func()) { e.schedule(t, nil, fn) }

// After schedules fn to run dt time units from now.
func (e *Engine) After(dt float64, fn func()) { e.At(e.now+dt, fn) }

// Spawn creates a process executing fn. The process starts at the current
// simulated time, after the caller yields control back to the scheduler.
func (e *Engine) Spawn(name string, fn func(*Process)) *Process {
	p := &Process{
		eng:   e,
		name:  name,
		wake:  make(chan struct{}),
		state: stateReady,
	}
	e.alive = append(e.alive, p)
	e.trace(p, "spawn")
	go func() {
		<-p.wake // first dispatch
		defer func() {
			if r := recover(); r != nil {
				if r == errPoisoned {
					// Shutdown path: swallow and hand control back.
					p.state = stateDone
					e.yield <- struct{}{}
					return
				}
				if e.err == nil {
					if f, ok := r.(failure); ok {
						// A cooperative abort via Process.Fail: keep the
						// error chain intact so callers can errors.Is/As
						// through it.
						e.err = &ProcessError{Process: p.name, Err: f.err}
					} else {
						e.err = fmt.Errorf("sim: process %q panicked: %v", p.name, r)
					}
				}
			}
			p.state = stateDone
			e.trace(p, "done")
			e.yield <- struct{}{}
		}()
		if p.poisoned {
			panic(errPoisoned)
		}
		p.state = stateRunning
		fn(p)
	}()
	e.schedule(e.now, p, nil)
	return p
}

// Run executes the simulation until no events remain or an error occurs.
// It returns the final simulated time. A simulation that ends with
// processes still blocked on a facility, mailbox, barrier or event reports
// a DeadlockError.
func (e *Engine) Run() (float64, error) {
	defer e.shutdown()
	for len(e.events) > 0 {
		if c := e.interrupted.Load(); c != nil {
			return e.now, &InterruptError{Time: e.now, Cause: c.err}
		}
		ev := heap.Pop(&e.events).(*event)
		e.executed++
		e.now = ev.time
		switch {
		case ev.fn != nil:
			ev.fn()
		case ev.p != nil:
			if ev.p.state == stateDone {
				break // stale wakeup for a finished process
			}
			e.dispatch(ev.p)
			if ev.p.state == stateDone {
				e.done++
			}
		}
		e.release(ev)
		if e.err != nil {
			return e.now, e.err
		}
		e.compactAlive()
		e.maybeSample()
	}
	e.finalSample()
	if blocked := e.blockedProcesses(); len(blocked) > 0 {
		return e.now, &DeadlockError{Time: e.now, Processes: blocked}
	}
	return e.now, nil
}

// RunUntil executes the simulation up to (and including) time limit.
// Remaining events stay queued. Like Run, it closes the telemetry series
// with a final sample, so a partial run keeps the tail of its series.
func (e *Engine) RunUntil(limit float64) (float64, error) {
	defer e.shutdown()
	for len(e.events) > 0 && e.events[0].time <= limit {
		if c := e.interrupted.Load(); c != nil {
			return e.now, &InterruptError{Time: e.now, Cause: c.err}
		}
		ev := heap.Pop(&e.events).(*event)
		e.executed++
		e.now = ev.time
		switch {
		case ev.fn != nil:
			ev.fn()
		case ev.p != nil:
			if ev.p.state == stateDone {
				break
			}
			e.dispatch(ev.p)
			if ev.p.state == stateDone {
				e.done++
			}
		}
		e.release(ev)
		if e.err != nil {
			return e.now, e.err
		}
		e.compactAlive()
		e.maybeSample()
	}
	e.finalSample()
	return e.now, nil
}

// dispatch hands control to a process and waits until it yields back.
func (e *Engine) dispatch(p *Process) {
	p.state = stateRunning
	e.trace(p, "run")
	p.wake <- struct{}{}
	<-e.yield
}

// compactAlive drops finished processes from the process table once they
// outnumber the live ones, filtering in place so the backing array is
// reused. Long runs that spawn transient processes (forks, parallel
// regions inside loops) would otherwise grow alive without bound and pay
// for it on every telemetry sample.
func (e *Engine) compactAlive() {
	if e.done <= 32 || e.done <= len(e.alive)/2 {
		return
	}
	live := e.alive[:0]
	for _, p := range e.alive {
		if p.state != stateDone {
			live = append(live, p)
		}
	}
	// Clear the tail so finished processes are collectable.
	for i := len(live); i < len(e.alive); i++ {
		e.alive[i] = nil
	}
	e.alive = live
	e.done = 0
}

// blockedProcesses returns the names of processes stuck on a
// synchronization object, sorted.
func (e *Engine) blockedProcesses() []string {
	var out []string
	for _, p := range e.alive {
		if p.state == stateBlocked {
			out = append(out, p.name)
		}
	}
	sort.Strings(out)
	return out
}

// shutdown unwinds every goroutine that is still parked so that Run never
// leaks OS resources, even after a deadlock or error.
func (e *Engine) shutdown() {
	for _, p := range e.alive {
		switch p.state {
		case stateBlocked, stateHolding, stateReady:
			p.poisoned = true
			p.wake <- struct{}{}
			<-e.yield
		}
	}
	e.alive = nil
	e.done = 0
}

// interruptCause boxes the Interrupt cause so it fits an atomic.Pointer.
type interruptCause struct{ err error }

// Interrupt requests that the running simulation stop: the scheduler
// checks between events, unwinds every parked process, and Run/RunUntil
// return an *InterruptError wrapping cause. Unlike every other Engine
// method, Interrupt is safe to call from any goroutine — it is how a
// caller plumbs context cancellation into a run without polling. Calling
// it on an engine that is not running makes the next Run return
// immediately; later calls keep the first cause.
func (e *Engine) Interrupt(cause error) {
	if cause == nil {
		cause = fmt.Errorf("sim: interrupted")
	}
	e.interrupted.CompareAndSwap(nil, &interruptCause{err: cause})
}

// InterruptError reports a run stopped by Engine.Interrupt. It unwraps to
// the interrupt cause, so errors.Is(err, context.DeadlineExceeded) and
// friends see through it.
type InterruptError struct {
	Time  float64
	Cause error
}

func (e *InterruptError) Error() string {
	return fmt.Sprintf("sim: run interrupted at t=%g: %v", e.Time, e.Cause)
}

func (e *InterruptError) Unwrap() error { return e.Cause }

// ProcessError reports a simulation process that aborted the run through
// Process.Fail: the typed alternative to panicking with an error, which
// would flatten the chain into a string. It unwraps to the process's
// error, so callers can errors.Is/As through a failed run (for example to
// distinguish an expression-evaluation failure from a DeadlockError).
type ProcessError struct {
	Process string
	Err     error
}

func (p *ProcessError) Error() string {
	return fmt.Sprintf("sim: process %q failed: %v", p.Process, p.Err)
}

func (p *ProcessError) Unwrap() error { return p.Err }

// DeadlockError reports a simulation that ended with blocked processes.
type DeadlockError struct {
	Time      float64
	Processes []string
}

func (d *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at t=%g: blocked processes: %s",
		d.Time, strings.Join(d.Processes, ", "))
}

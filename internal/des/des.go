// Package des implements the discrete-event simulation kernel that
// underlies the performance side of the evaluation infrastructure.
//
// The paper evaluated its benchmark suite on the COTSon full-system
// simulator; this repository substitutes a calibrated queueing simulation
// (see DESIGN.md §2). The kernel here is deliberately small and
// allocation-light: a binary-heap event queue with deterministic
// tie-breaking, plus multi-server resources with FIFO queueing and
// time-weighted utilization accounting.
//
// Models are written in continuation-passing style: an event's action
// schedules the follow-on events. This avoids goroutine-per-entity
// simulation, keeps runs single-threaded and reproducible, and lets the
// benchmark harness simulate hundreds of server-years per wall second.
//
// Event records are pooled: once an event fires (or is cancelled) its
// struct returns to a per-Sim free list and the next Schedule reuses it,
// so steady-state scheduling allocates nothing. Pooling is invisible to
// models — handles are generation-stamped, so a stale EventHandle held
// across a recycle is a safe no-op — and changes neither firing order
// nor the seq tie-break stream (see DESIGN.md §7 for the invariants).
package des

import (
	"container/heap"
	"fmt"
	"math"
)

// Time is simulated time in seconds since the start of the run.
type Time float64

// Action is the body of a scheduled event.
type Action func()

type event struct {
	at   Time
	seq  uint64 // FIFO tie-break for simultaneous events
	act  Action
	heap int    // index within the heap; -1 once popped or recycled
	gen  uint32 // bumped on recycle so stale handles can't touch reused slots
}

// EventHandle allows a scheduled event to be cancelled. The zero value
// is valid and cancels nothing.
type EventHandle struct {
	s   *Sim
	ev  *event
	gen uint32
}

// Cancel removes the event from the queue immediately (O(log n) via its
// tracked heap index) and recycles its record. Cancelling an
// already-fired, already-cancelled, or zero handle is a no-op: the
// generation stamp protects against the underlying record having been
// reused for a later event.
func (h EventHandle) Cancel() {
	ev := h.ev
	if ev == nil || ev.gen != h.gen || ev.heap < 0 {
		return
	}
	heap.Remove(&h.s.events, ev.heap)
	h.s.recycle(ev)
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heap = i
	h[j].heap = j
}
func (h *eventHeap) Push(x any) {
	ev := x.(*event)
	ev.heap = len(*h)
	*h = append(*h, ev)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	ev.heap = -1
	return ev
}

// Sim is a single-threaded discrete-event simulator. The zero value is
// not usable; call NewSim.
type Sim struct {
	now     Time
	events  eventHeap
	seq     uint64
	stopped bool
	fired   uint64
	pool    []*event // recycled event records, ready for reuse
}

// NewSim returns a simulator positioned at time zero.
func NewSim() *Sim {
	return &Sim{}
}

// Now returns the current simulated time.
func (s *Sim) Now() Time { return s.now }

// Fired returns the number of events executed so far (for tests and
// runaway detection).
func (s *Sim) Fired() uint64 { return s.fired }

// recycle returns an event record to the free list. The action is
// dropped so the pool never retains model closures, and the generation
// is bumped so outstanding handles to the old event become inert.
//
//perf:hotpath
func (s *Sim) recycle(ev *event) {
	ev.act = nil
	ev.heap = -1
	ev.gen++
	s.pool = append(s.pool, ev)
}

// Schedule runs act after delay (>= 0) of simulated time and returns a
// handle for cancellation. It panics on negative or NaN delays: those are
// always model bugs and silently clamping them corrupts results.
//
//perf:hotpath
func (s *Sim) Schedule(delay Time, act Action) EventHandle {
	if delay < 0 || math.IsNaN(float64(delay)) {
		//whvet:allow hotpath cold panic path: a negative delay is a model bug, the guard never fires in a correct run
		panic(fmt.Sprintf("des: negative or NaN delay %v at t=%v", delay, s.now))
	}
	return s.ScheduleAt(s.now+delay, act)
}

// ScheduleAt runs act at absolute time at (>= Now).
//
//perf:hotpath
func (s *Sim) ScheduleAt(at Time, act Action) EventHandle {
	if at < s.now {
		//whvet:allow hotpath cold panic path: scheduling into the past is a model bug, the guard never fires in a correct run
		panic(fmt.Sprintf("des: event scheduled in the past: %v < now %v", at, s.now))
	}
	var ev *event
	if n := len(s.pool); n > 0 {
		ev = s.pool[n-1]
		s.pool[n-1] = nil
		s.pool = s.pool[:n-1]
	} else {
		ev = &event{}
	}
	ev.at, ev.seq, ev.act = at, s.seq, act
	s.seq++
	heap.Push(&s.events, ev)
	return EventHandle{s: s, ev: ev, gen: ev.gen}
}

// Stop halts Run after the current event completes.
func (s *Sim) Stop() { s.stopped = true }

// Run executes events until the queue empties, until Stop is called, or
// until simulated time would pass until. It returns the simulation time
// at exit. Events scheduled exactly at the horizon still fire.
//
//perf:hotpath
func (s *Sim) Run(until Time) Time {
	s.stopped = false
	for len(s.events) > 0 && !s.stopped {
		ev := s.events[0]
		if ev.at > until {
			// Advance the clock to the horizon; pending events stay queued.
			s.now = until
			return s.now
		}
		heap.Pop(&s.events)
		at, act := ev.at, ev.act
		s.recycle(ev)
		s.now = at
		s.fired++
		act()
	}
	if s.now < until && len(s.events) == 0 {
		s.now = until
	}
	return s.now
}

// Pending returns the number of events still queued. Cancelled events
// are removed eagerly, so they never count here.
func (s *Sim) Pending() int { return len(s.events) }

// Reset rewinds the simulator to time zero for reuse: pending events are
// recycled, the clock, sequence counter and fired count restart, and the
// heap backing array and event pool are retained — so a sequence of
// trials on one Sim allocates event records only up to the high-water
// mark of in-flight events.
func (s *Sim) Reset() {
	for i, ev := range s.events {
		s.recycle(ev)
		s.events[i] = nil
	}
	s.events = s.events[:0]
	s.now, s.seq, s.fired = 0, 0, 0
	s.stopped = false
}

// Package des implements the discrete-event simulation kernel that
// underlies the performance side of the evaluation infrastructure.
//
// The paper evaluated its benchmark suite on the COTSon full-system
// simulator; this repository substitutes a calibrated queueing simulation
// (see DESIGN.md §2). The kernel here is deliberately small and
// allocation-light: a typed 4-ary heap event queue with deterministic
// tie-breaking, plus multi-server resources with head-index FIFO
// queueing and time-weighted utilization accounting. Both stay cheap at
// saturation: an event costs O(log n) heap work with no interface calls,
// and a dequeue is amortized O(1) however deep the queue.
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
	"fmt"
	"math"
)

// Time is simulated time in seconds since the start of the run.
type Time float64

// Action is the body of a scheduled event.
type Action func()

// event is a pooled record for one scheduled action. Its firing time
// and tie-break live in the heap slot, not here, so the heap orders
// events without dereferencing them.
type event struct {
	act  Action
	heap int32  // slot index within the heap; -1 once popped or recycled
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
	h.s.events.remove(int(ev.heap))
	h.s.recycle(ev)
}

// slot is one heap entry. The ordering key is stored inline so sift
// comparisons touch only the heap's own contiguous array.
type slot struct {
	at  Time
	seq uint64 // FIFO tie-break for simultaneous events
	ev  *event
}

// before is the heap's strict total order: time, then schedule order.
func (a *slot) before(b *slot) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventHeap is a 4-ary min-heap of slots. A wider node halves the
// depth of a binary heap, and its four children share a cache line or
// two, so pops do fewer dependent loads. Every move writes the new
// index back into the slot's event, which is what lets Cancel remove
// an arbitrary entry in O(log n).
type eventHeap []slot

const heapArity = 4

// push appends x and restores heap order.
//
//perf:hotpath
func (h *eventHeap) push(x slot) {
	*h = append(*h, x)
	h.up(len(*h) - 1)
}

// remove deletes the slot at index i (0 pops the minimum) and returns
// it. The caller recycles the slot's event, which marks it out of the
// heap.
//
//perf:hotpath
func (h *eventHeap) remove(i int) slot {
	old := *h
	n := len(old) - 1
	x := old[i]
	old[i] = old[n]
	old[n] = slot{}
	*h = old[:n]
	if i < n && !h.down(i) {
		h.up(i)
	}
	return x
}

// up moves the slot at index i toward the root until its parent is
// before it.
//
//perf:hotpath
func (h eventHeap) up(i int) {
	x := h[i]
	for i > 0 {
		p := (i - 1) / heapArity
		if !x.before(&h[p]) {
			break
		}
		h[i] = h[p]
		h[i].ev.heap = int32(i)
		i = p
	}
	h[i] = x
	x.ev.heap = int32(i)
}

// down moves the slot at index i toward the leaves until no child is
// before it, and reports whether it moved.
//
//perf:hotpath
func (h eventHeap) down(i int) bool {
	n := len(h)
	start := i
	x := h[i]
	for {
		c := heapArity*i + 1
		if c >= n {
			break
		}
		m := c
		end := min(c+heapArity, n)
		for j := c + 1; j < end; j++ {
			if h[j].before(&h[m]) {
				m = j
			}
		}
		if !h[m].before(&x) {
			break
		}
		h[i] = h[m]
		h[i].ev.heap = int32(i)
		i = m
	}
	h[i] = x
	x.ev.heap = int32(i)
	return i != start
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
	ev.act = act
	s.events.push(slot{at: at, seq: s.seq, ev: ev})
	s.seq++
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
		if s.events[0].at > until {
			// Advance the clock to the horizon; pending events stay queued.
			s.now = until
			return s.now
		}
		top := s.events.remove(0)
		act := top.ev.act
		s.recycle(top.ev)
		s.now = top.at
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
	for i := range s.events {
		s.recycle(s.events[i].ev)
		s.events[i] = slot{}
	}
	s.events = s.events[:0]
	s.now, s.seq, s.fired = 0, 0, 0
	s.stopped = false
}

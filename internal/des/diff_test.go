package des

import (
	"container/heap"
	"fmt"
	"math"
	"testing"

	"warehousesim/internal/stats"
)

// Differential tests: the kernel's head-index FIFO and typed 4-ary heap
// are checked step by step against straightforward reference
// implementations kept here — a shift-on-dequeue Resource and a
// container/heap event queue — so any divergence in firing order, tie
// handling, cancellation or queue accounting shows as a first
// mismatching log line.

// shiftResource is the reference Resource: the same station and
// accounting, but its FIFO shifts the whole queue on every dequeue.
type shiftResource struct {
	sim     *Sim
	servers int
	busy    int
	queue   []pendingJob

	lastStamp     Time
	busyIntegral  float64
	queueIntegral float64
	windowStart   Time
}

func (r *shiftResource) stamp() {
	now := r.sim.Now()
	dt := float64(now - r.lastStamp)
	if dt > 0 {
		r.busyIntegral += dt * float64(r.busy)
		r.queueIntegral += dt * float64(len(r.queue))
		r.lastStamp = now
	} else if now > r.lastStamp {
		r.lastStamp = now
	}
}

func (r *shiftResource) Submit(service Time, done Action) {
	r.stamp()
	if r.busy < r.servers {
		r.start(service, done)
		return
	}
	r.queue = append(r.queue, pendingJob{service: service, done: done})
}

func (r *shiftResource) start(service Time, done Action) {
	r.busy++
	r.sim.Schedule(service, func() {
		r.stamp()
		r.busy--
		if len(r.queue) > 0 {
			next := r.queue[0]
			copy(r.queue, r.queue[1:])
			r.queue = r.queue[:len(r.queue)-1]
			r.start(next.service, next.done)
		}
		if done != nil {
			done()
		}
	})
}

func (r *shiftResource) QueueLen() int { return len(r.queue) }

func (r *shiftResource) Integrals() (busy, queue float64) {
	r.stamp()
	return r.busyIntegral, r.queueIntegral
}

func (r *shiftResource) MeanQueueLen() float64 {
	r.stamp()
	dt := float64(r.sim.Now() - r.windowStart)
	if dt <= 0 {
		return 0
	}
	return r.queueIntegral / dt
}

func (r *shiftResource) ResetWindow() {
	r.stamp()
	r.windowStart = r.sim.Now()
	r.lastStamp = r.sim.Now()
	r.busyIntegral, r.queueIntegral = 0, 0
}

func (r *shiftResource) Reset() {
	r.queue = r.queue[:0]
	r.busy = 0
	r.lastStamp, r.windowStart = 0, 0
	r.busyIntegral, r.queueIntegral = 0, 0
}

// station is the surface the FIFO differential drives.
type station interface {
	Submit(service Time, done Action)
	QueueLen() int
	Integrals() (busy, queue float64)
	MeanQueueLen() float64
	ResetWindow()
	Reset()
}

// fifoScript runs a closed loop on one single-server station: depth+1
// jobs start at t=0, and each completion resubmits 0, 1 or 2 jobs so the
// waiting depth wanders, drains to empty, and refills — crossing the
// compaction threshold many times at large depths. The window resets
// partway through, and the whole script runs twice with a Sim and
// station Reset in between. Every completion logs its job id, the clock,
// the queue length and the accounting bits.
func fifoScript(sim *Sim, st station, depth int) []string {
	var log []string
	for pass := 0; pass < 2; pass++ {
		rng := stats.NewRNG(uint64(depth)*7919 + 1)
		completions, nextID := 0, 0
		limit := 3*depth + 300
		var submit func()
		submit = func() {
			id := nextID
			nextID++
			st.Submit(Time(1+rng.Intn(4))*0.125, func() {
				completions++
				busy, queue := st.Integrals()
				log = append(log, fmt.Sprintf("pass=%d job=%d t=%v q=%d busy=%x queue=%x mean=%x",
					pass, id, sim.Now(), st.QueueLen(),
					math.Float64bits(busy), math.Float64bits(queue), math.Float64bits(st.MeanQueueLen())))
				if completions == limit/2 {
					st.ResetWindow()
				}
				if completions >= limit {
					return
				}
				// Mean resubmission 1 keeps the loop closed; long runs
				// of zeros drain the queue and runs of twos refill it.
				for k := rng.Intn(3); k > 0; k-- {
					submit()
				}
				if st.QueueLen() == 0 && rng.Intn(8) == 0 {
					submit()
				}
			})
		}
		for i := 0; i <= depth; i++ {
			submit()
		}
		// Stop the first pass mid-run so Reset sees a dirty station.
		until := Time(1e9)
		if pass == 0 {
			until = Time(depth+40) * 0.1
		}
		sim.Run(until)
		log = append(log, fmt.Sprintf("pass=%d end t=%v q=%d", pass, sim.Now(), st.QueueLen()))
		sim.Reset()
		st.Reset()
	}
	return log
}

func TestResourceFIFOMatchesShiftReference(t *testing.T) {
	for _, depth := range []int{1, 3, 4096} {
		t.Run(fmt.Sprint(depth), func(t *testing.T) {
			refSim := NewSim()
			ref := fifoScript(refSim, &shiftResource{sim: refSim, servers: 1}, depth)
			sim := NewSim()
			r := NewResource(sim, "r", 1)
			requireSameLog(t, fifoScript(sim, r, depth), ref)
		})
	}
}

// requireSameLog fails at the first line where got departs from the
// reference log.
func requireSameLog(t *testing.T, got, want []string) {
	t.Helper()
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Fatalf("step %d diverges from the reference:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("logged %d lines, reference %d", len(got), len(want))
	}
}

// TestResourceQueueSlackBounded: at a steady waiting depth the consumed
// prefix is compacted away, so the queue's backing array stays within a
// small multiple of the depth however many jobs pass through it.
func TestResourceQueueSlackBounded(t *testing.T) {
	for _, depth := range []int{3, 4096} {
		sim := NewSim()
		r := NewResource(sim, "r", 1)
		left := 10 * depth
		var loop Action
		loop = func() {
			if left--; left > 0 {
				r.Submit(1, loop)
			}
		}
		for i := 0; i <= depth; i++ {
			r.Submit(1, loop)
		}
		sim.Run(math.MaxFloat64)
		if limit := 4 * (depth + 1); cap(r.queue) > limit {
			t.Errorf("depth %d: queue capacity %d exceeds %d after %d jobs", depth, cap(r.queue), limit, 10*depth)
		}
		if r.QueueLen() != 0 || len(r.queue) != 0 || r.head != 0 {
			t.Errorf("depth %d: drained queue left len=%d head=%d", depth, len(r.queue), r.head)
		}
	}
}

// refEvent and refHeap are the reference event queue: container/heap
// over pointers, no pooling, ordered by time then schedule sequence.
type refEvent struct {
	at    Time
	seq   uint64
	act   Action
	index int
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *refHeap) Push(x any) {
	ev := x.(*refEvent)
	ev.index = len(*h)
	*h = append(*h, ev)
}
func (h *refHeap) Pop() any {
	old := *h
	ev := old[len(old)-1]
	*h = old[:len(old)-1]
	ev.index = -1
	return ev
}

type refSim struct {
	now    Time
	seq    uint64
	events refHeap
}

func (s *refSim) schedule(delay Time, act Action) func() {
	ev := &refEvent{at: s.now + delay, seq: s.seq, act: act}
	s.seq++
	heap.Push(&s.events, ev)
	return func() {
		if ev.index >= 0 {
			heap.Remove(&s.events, ev.index)
		}
	}
}

func (s *refSim) run(until Time) {
	for len(s.events) > 0 {
		if s.events[0].at > until {
			s.now = until
			return
		}
		ev := heap.Pop(&s.events).(*refEvent)
		s.now = ev.at
		ev.act()
	}
	if s.now < until {
		s.now = until
	}
}

// kernel adapts both queues to the script below.
type kernel struct {
	schedule func(delay Time, act Action) func()
	run      func(until Time)
	now      func() Time
	pending  func() int
}

// heapScript interleaves Schedule, Cancel and Run at random. Delays are
// multiples of 0.25 so equal-time ties are common; cancels pick any
// handle ever issued, so fired, already-cancelled and (in the pooled
// kernel) recycled records are all exercised; fired events sometimes
// schedule or cancel further events from inside the loop.
func heapScript(k kernel, seed uint64) []string {
	rng := stats.NewRNG(seed)
	var log []string
	var handles []func()
	nextID := 0
	var schedule func()
	schedule = func() {
		id := nextID
		nextID++
		handles = append(handles, k.schedule(Time(rng.Intn(5))*0.25, func() {
			log = append(log, fmt.Sprintf("fire %d t=%v", id, k.now()))
			switch rng.Intn(4) {
			case 0:
				schedule()
			case 1:
				handles[rng.Intn(len(handles))]()
			}
		}))
	}
	for op := 0; op < 4000; op++ {
		switch c := rng.Intn(10); {
		case c < 5:
			schedule()
		case c < 8:
			if len(handles) > 0 {
				handles[rng.Intn(len(handles))]()
			}
		default:
			k.run(k.now() + Time(rng.Intn(4))*0.25)
		}
		log = append(log, fmt.Sprintf("op %d t=%v pending=%d", op, k.now(), k.pending()))
	}
	k.run(math.MaxFloat64)
	return log
}

func TestEventHeapMatchesContainerHeap(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		ref := &refSim{}
		want := heapScript(kernel{
			schedule: ref.schedule,
			run:      ref.run,
			now:      func() Time { return ref.now },
			pending:  func() int { return len(ref.events) },
		}, seed)
		sim := NewSim()
		got := heapScript(kernel{
			schedule: func(delay Time, act Action) func() { return sim.Schedule(delay, act).Cancel },
			run:      func(until Time) { sim.Run(until) },
			now:      sim.Now,
			pending:  sim.Pending,
		}, seed)
		t.Run(fmt.Sprint(seed), func(t *testing.T) { requireSameLog(t, got, want) })
	}
}

package des

import (
	"fmt"

	"warehousesim/internal/obs"
)

// Probes periodically samples kernel and resource state into an
// obs.Recorder, producing the utilization / queue-length / event-rate
// timelines behind every instrumented run:
//
//   - "des.heap_depth"      pending events at each tick
//   - "des.events_per_sec"  events fired per simulated second since the
//     previous tick (probe ticks included; one tick adds one event)
//   - "util.<resource>"     time-weighted busy fraction over the tick
//   - "qlen.<resource>"     time-weighted queue length over the tick
//
// Probing only ever schedules its own tick events and reads state, so an
// instrumented run's model trajectory is identical to an uninstrumented
// one under the same seed — probes observe, they never perturb.
type Probes struct {
	sim      *Sim
	rec      obs.Recorder
	interval Time
	handle   EventHandle
	running  bool

	lastFired uint64
	watched   []watchedResource

	// OnTick, when non-nil, runs at the end of every probe tick with
	// the current simulated time. It is the live-introspection seam:
	// the hook may read simulation state and publish snapshots, but it
	// must never schedule events or sample randomness — the same
	// observe-don't-perturb contract the recorder obeys.
	OnTick func(now float64)

	// OmitKernel suppresses the kernel-wide gauges (des.heap_depth,
	// des.events_per_sec), keeping only the per-resource series. The
	// rack model sets it: its timeline probes run one per enclosure
	// plus one rack-global, all on one heap, and every series must be
	// written by exactly one of them. Set before Start.
	OmitKernel bool
}

type watchedResource struct {
	r         *Resource
	lastBusy  float64
	lastQueue float64
}

// NewProbes creates a sampler attached to sim emitting into rec every
// interval of simulated time. Call Watch to add resources, then Start.
func NewProbes(sim *Sim, rec obs.Recorder, interval Time) *Probes {
	if interval <= 0 {
		panic(fmt.Sprintf("des: probe interval must be positive, got %v", interval))
	}
	if rec == nil {
		rec = obs.Nop{}
	}
	return &Probes{sim: sim, rec: rec, interval: interval}
}

// Watch adds a resource to the sampled set. Its utilization and
// queue-length series are named after Resource.Name.
func (p *Probes) Watch(resources ...*Resource) {
	for _, r := range resources {
		busy, queue := r.Integrals()
		p.watched = append(p.watched, watchedResource{r: r, lastBusy: busy, lastQueue: queue})
	}
}

// Start schedules the first tick one interval from now. Starting an
// already-running sampler is a no-op.
func (p *Probes) Start() {
	if p.running || !obs.On(p.rec) {
		return
	}
	p.running = true
	p.lastFired = p.sim.Fired()
	p.handle = p.sim.Schedule(p.interval, p.tick)
}

// Stop cancels the pending tick.
func (p *Probes) Stop() {
	if p.running {
		p.handle.Cancel()
		p.running = false
	}
}

func (p *Probes) tick() {
	now := float64(p.sim.Now())
	dt := float64(p.interval)

	if !p.OmitKernel {
		p.rec.Gauge("des.heap_depth", now, float64(p.sim.Pending()))
		fired := p.sim.Fired()
		p.rec.Gauge("des.events_per_sec", now, float64(fired-p.lastFired)/dt)
		p.lastFired = fired
	}

	for i := range p.watched {
		w := &p.watched[i]
		busy, queue := w.r.Integrals()
		db, dq := busy-w.lastBusy, queue-w.lastQueue
		if db < 0 || dq < 0 {
			// ResetWindow zeroed the integrals mid-interval; the tick
			// covers only the post-reset portion.
			db, dq = busy, queue
		}
		w.lastBusy, w.lastQueue = busy, queue
		p.rec.Gauge("util."+w.r.Name(), now, db/(dt*float64(w.r.Servers())))
		p.rec.Gauge("qlen."+w.r.Name(), now, dq/dt)
	}

	if p.OnTick != nil {
		p.OnTick(now)
	}

	p.handle = p.sim.Schedule(p.interval, p.tick)
}

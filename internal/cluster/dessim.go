package cluster

import (
	"fmt"
	"math"
	"sync"

	"warehousesim/internal/des"
	"warehousesim/internal/obs"
	"warehousesim/internal/obs/energy"
	"warehousesim/internal/obs/span"
	"warehousesim/internal/obs/window"
	"warehousesim/internal/stats"
	"warehousesim/internal/workload"
)

// SimOptions controls a discrete-event simulation run.
type SimOptions struct {
	// Seed drives all randomness in the run.
	Seed uint64
	// WarmupSec of simulated time are discarded before measuring.
	WarmupSec float64
	// MeasureSec is the measurement window length.
	MeasureSec float64
	// MaxClients caps the adaptive client driver's search.
	MaxClients int
	// BatchConcurrency is the task parallelism for batch jobs (the paper
	// runs Hadoop with 4 threads per CPU); 0 means 4 x cores.
	BatchConcurrency int

	// Parallelism is the number of worker goroutines the adaptive
	// client driver may use to run its ramp trials speculatively (each
	// trial stays single-threaded and seeded). 0 or 1 is fully
	// sequential. Results are identical for every value: speculative
	// trials reproduce the sequential seed schedule exactly and are
	// consumed in sequential order, with work beyond the sequential
	// stopping point discarded. Speculation requires a generator that
	// advertises workload.IsStateless; stateful generators silently use
	// the sequential path.
	Parallelism int

	// Obs, when non-nil and enabled, receives the observability streams
	// of the run: per-request latency/QoS events, resource utilization
	// and queue-length timelines, kernel event-rate probes, and demand
	// histograms. Recording never changes the reported result: for
	// interactive workloads the adaptive search runs uninstrumented and
	// the chosen operating point is replayed once (same seed, identical
	// trajectory) with the recorder attached.
	Obs obs.Recorder
	// ProbeIntervalSec is the sampling interval of the timeline probes
	// in simulated seconds; 0 means 1 s.
	ProbeIntervalSec float64

	// TraceEvery turns on causal span tracing in the instrumented run:
	// every Nth request by arrival index (1 = all, deterministic, no
	// RNG draws) records its span tree — request root, per-resource
	// queue wait and service, and the remote-memory share of cpu
	// service — on the "span" event stream of Obs. 0 disables tracing.
	TraceEvery int64
	// OnProbeTick, when non-nil, fires after every timeline-probe tick
	// of an instrumented run with the current simulated time — the
	// live-introspection publish hook. It must only read.
	OnProbeTick func(simNow float64)

	// Topology, when non-nil, switches Simulate from the flat
	// single-server model to the implementation's own: *RackTopology
	// runs one rack of enclosures on one event heap (rack.go);
	// *FleetTopology runs a fleet of racks — hot
	// ones on full DES, cold ones on the analytic M/M/m stand-in —
	// joined by a load-balancer tier (fleet.go). A nil *RackTopology or
	// *FleetTopology selects the flat model, like an untyped nil.
	Topology Topology

	// ShardDiag, when non-nil and enabled, receives a RackTopology
	// run's kernel diagnostics, kept out of Obs: the heap's fired-event
	// count as the counter shard.fired.s0. Ignored by the flat model
	// and by fleet runs.
	ShardDiag obs.Recorder

	// SLOWindowSec, when > 0, turns on the windowed-SLO metrics plane:
	// the instrumented run additionally folds its request, utilization,
	// and hit-rate streams into tumbling windows of this width over
	// simulated time (see internal/obs/window), the QoS episode summary
	// is emitted into Obs, and Result.SLO carries the merged collector.
	// Windowed collection rides the instrumented replay, so it requires
	// an enabled Obs and — like Obs itself — never changes the reported
	// result or the existing export streams.
	SLOWindowSec float64

	// Energy, when non-nil, turns on the time-resolved energy telemetry
	// plane: the instrumented run folds its utilization and request
	// streams into tumbling windows of Energy.WidthSec simulated
	// seconds, derives watts per window from Energy.Model's idle/active
	// split (see internal/obs/energy), emits the run's energy.* totals
	// into Obs, and Result.Energy carries the merged collector. Like the
	// windowed-SLO plane it rides the instrumented replay — it requires
	// an enabled Obs and never changes the reported result or the
	// existing export streams.
	Energy *energy.Config

	// OnLive, when non-nil, fires once per run just before the
	// instrumented simulation starts, handing the caller the live
	// introspection handles: the per-partition window and energy
	// collectors. The handles
	// stay valid for the rest of the run; everything reachable through
	// them is safe to read concurrently with the simulation.
	OnLive func(LiveHandles)
}

// LiveHandles is what SimOptions.OnLive receives: read-only views that
// a live introspection server may poll while the run executes. SLO is
// nil when SLOWindowSec is off, Energy when Energy is.
type LiveHandles struct {
	// SLO holds the per-partition window collectors (one for flat runs;
	// one per enclosure plus the rack-global part for Topology runs).
	// Only Collector.LiveSummaries is safe concurrently.
	SLO []*window.Collector
	// Energy holds the per-partition energy collectors in the same part
	// order as SLO. Only Collector.LiveWindows is safe concurrently.
	Energy []*energy.Collector
}

// DefaultSimOptions returns sensible defaults for validation runs.
func DefaultSimOptions() SimOptions {
	return SimOptions{Seed: 1, WarmupSec: 30, MeasureSec: 240, MaxClients: 4096}
}

// Normalize validates the options and resolves every defaulted field to
// its effective value: ProbeIntervalSec 0 becomes 1 s, Parallelism 0
// becomes 1 (sequential), and a Topology gets its own defaults filled
// in (see Topology.Normalize). It returns the resolved copy — the
// receiver is never mutated, and a non-nil Topology is replaced by a
// normalized clone rather than written through.
//
// Simulate calls Normalize on entry, so callers only need it when they
// want the effective values themselves (a CLI echoing the resolved
// probe interval, a test pinning defaults).
func (o SimOptions) Normalize() (SimOptions, error) {
	if o.WarmupSec < 0 || o.MeasureSec <= 0 {
		return o, fmt.Errorf("cluster: invalid sim window warmup=%g measure=%g", o.WarmupSec, o.MeasureSec)
	}
	if o.MaxClients <= 0 {
		return o, fmt.Errorf("cluster: MaxClients must be positive, got %d", o.MaxClients)
	}
	if o.ProbeIntervalSec < 0 {
		return o, fmt.Errorf("cluster: negative probe interval %g", o.ProbeIntervalSec)
	}
	if o.TraceEvery < 0 {
		return o, fmt.Errorf("cluster: negative trace sampling stride %d", o.TraceEvery)
	}
	if o.Parallelism < 0 {
		return o, fmt.Errorf("cluster: negative parallelism %d", o.Parallelism)
	}
	if o.SLOWindowSec < 0 || math.IsInf(o.SLOWindowSec, 0) || math.IsNaN(o.SLOWindowSec) {
		return o, fmt.Errorf("cluster: invalid SLO window width %g", o.SLOWindowSec)
	}
	if o.Energy != nil {
		if _, err := energy.New(*o.Energy); err != nil {
			return o, fmt.Errorf("cluster: %w", err)
		}
	}
	if o.ProbeIntervalSec == 0 {
		o.ProbeIntervalSec = 1
	}
	if o.Parallelism < 1 {
		o.Parallelism = 1
	}
	switch t := o.Topology.(type) {
	case *RackTopology:
		if t == nil {
			o.Topology = nil
		}
	case *FleetTopology:
		if t == nil {
			o.Topology = nil
		}
	}
	if o.Topology != nil {
		t := o.Topology.clone()
		if err := t.Normalize(); err != nil {
			return o, err
		}
		o.Topology = t
	}
	return o, nil
}

// simServer binds the configuration's stations to a DES instance.
type simServer struct {
	sim  *des.Sim
	cpu  *des.Resource
	disk *des.Resource
	net  *des.Resource
}

func (c Config) newSimServer(sim *des.Sim) *simServer {
	return &simServer{
		sim:  sim,
		cpu:  des.NewResource(sim, "cpu", c.Server.CPU.Cores()),
		disk: des.NewResource(sim, "disk", 1),
		net:  des.NewResource(sim, "net", 1),
	}
}

// memSwapFraction is the share of cpu service time attributable to
// remote-memory page swaps: CPUSec includes the (1 + MemSlowdown)
// inflation, so the swap share is MemSlowdown/(1+MemSlowdown).
func (c Config) memSwapFraction() float64 {
	if c.MemSlowdown <= 0 {
		return 0
	}
	return c.MemSlowdown / (1 + c.MemSlowdown)
}

// newSLOCollector builds the windowed-SLO collector for one partition
// of an instrumented run, or nil when the plane is off (SLOWindowSec
// unset or no enabled recorder to ride). The window inherits the
// profile's QoS bound and percentile, so a window "violates" exactly
// when the bound the adaptive driver enforces globally is broken
// locally in time.
func newSLOCollector(p workload.Profile, opt SimOptions) (*window.Collector, error) {
	if opt.SLOWindowSec <= 0 || !obs.On(opt.Obs) {
		return nil, nil
	}
	return window.New(window.Config{
		WidthSec:      opt.SLOWindowSec,
		QoSLatencySec: p.QoSLatencySec,
		QoSPercentile: p.QoSPercentile,
	})
}

// newEnergyCollector builds the energy-telemetry collector for one
// partition of an instrumented run, or nil when the plane is off
// (Energy unset or no enabled recorder to ride).
func newEnergyCollector(opt SimOptions) (*energy.Collector, error) {
	if opt.Energy == nil || !obs.On(opt.Obs) {
		return nil, nil
	}
	return energy.New(*opt.Energy)
}

// trialOutcome summarizes one closed-loop trial at a fixed client count.
type trialOutcome struct {
	throughput  float64
	meanLatency float64
	p95Latency  float64
	qosMet      bool
	utilization map[string]float64
}

// Simulate measures the configuration's sustained performance on the
// generator's workload with the discrete-event model.
//
// For interactive workloads it reproduces the paper's adaptive client
// driver (§2.1): ramp the number of simultaneous clients up
// exponentially until QoS breaks, then binary-search the largest client
// count that still meets QoS, and report that operating point.
//
// For batch workloads it executes one job of Profile.JobRequests tasks
// at the configured concurrency and reports 1/execution-time.
func (c Config) Simulate(gen workload.Generator, opt SimOptions) (Result, error) {
	opt, err := opt.Normalize()
	if err != nil {
		return Result{}, err
	}
	p := gen.Profile()
	if err := c.Validate(); err != nil {
		return Result{}, err
	}
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	if opt.Topology != nil {
		return opt.Topology.simulate(c, gen, p, opt)
	}
	if p.Batch {
		return c.simulateBatch(gen, p, opt)
	}
	return c.simulateInteractive(gen, p, opt)
}

// rampCell is one speculative trial of the exponential ramp: the client
// count, the seed the sequential search would have used for it, and the
// outcome once run.
type rampCell struct {
	n    int
	seed uint64
	out  trialOutcome
}

// parallelRamp runs the exponential ramp's candidate client counts
// (1, 2, 4, ... <= MaxClients) speculatively across par workers, in
// waves, each candidate with the seed the sequential ramp would have
// given it (Seed+1, Seed+2, ...). Results are consumed strictly in
// candidate order and everything after the first QoS failure is
// discarded, so the returned prefix of good outcomes, the bracket, and
// the final seed-counter position are exactly what the sequential ramp
// produces. Trials never record, and each worker owns a private
// trialCtx, so the only shared state is the generator — which the
// caller has verified is stateless.
func (c Config) parallelRamp(gen workload.Generator, p workload.Profile, opt SimOptions, par int) (good []rampCell, lastGood, firstBad int, seed uint64) {
	var cells []rampCell
	for n := 1; n <= opt.MaxClients; n *= 2 {
		cells = append(cells, rampCell{n: n, seed: opt.Seed + uint64(len(cells)) + 1})
	}
	ctxs := make([]*trialCtx, par)
	for w := range ctxs {
		ctxs[w] = newTrialCtx(c)
	}

	seed = opt.Seed
	for lo := 0; lo < len(cells); lo += par {
		hi := lo + par
		if hi > len(cells) {
			hi = len(cells)
		}
		var wg sync.WaitGroup
		for i := lo; i < hi; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				cell := &cells[i]
				cell.out = ctxs[i-lo].run(gen, p, cell.n, opt, cell.seed, nil)
			}(i)
		}
		wg.Wait()
		for i := lo; i < hi; i++ {
			seed = cells[i].seed
			if !cells[i].out.qosMet {
				firstBad = cells[i].n
				return good, lastGood, firstBad, seed
			}
			good = append(good, cells[i])
			lastGood = cells[i].n
		}
	}
	return good, lastGood, 0, seed
}

func (c Config) simulateInteractive(gen workload.Generator, p workload.Profile, opt SimOptions) (Result, error) {
	ctx := newTrialCtx(c)
	seed := opt.Seed
	trial := func(n int) (trialOutcome, uint64) {
		seed++
		return ctx.run(gen, p, n, opt, seed, nil), seed
	}

	slo, err := newSLOCollector(p, opt)
	if err != nil {
		return Result{}, err
	}
	en, err := newEnergyCollector(opt)
	if err != nil {
		return Result{}, err
	}

	best := trialOutcome{}
	bestN := 0
	bestSeed := uint64(0)
	record := func(n int, t trialOutcome, s uint64) {
		if t.qosMet && t.throughput > best.throughput {
			best = t
			bestN = n
			bestSeed = s
		}
	}
	// replay re-runs the chosen operating point with the recorder
	// attached. Same seed, same trajectory: the instrumented replay's
	// outcome matches the recorded best exactly, so -obs never changes
	// the reported numbers. The windowed-SLO and energy tees wrap only
	// this replay — the search stays uninstrumented — so the window
	// streams are a pure function of the chosen operating point and the
	// seed.
	replay := func(n int, s uint64) {
		if !obs.On(opt.Obs) {
			return
		}
		rec := energy.NewTee(window.NewTee(opt.Obs, slo), en)
		if opt.OnLive != nil {
			handles := LiveHandles{}
			if slo != nil {
				handles.SLO = []*window.Collector{slo}
			}
			if en != nil {
				handles.Energy = []*energy.Collector{en}
			}
			opt.OnLive(handles)
		}
		ctx.run(gen, p, n, opt, s, rec)
	}
	// finishSLO seals the collectors at the replay's horizon, reduces
	// the SLO timeline to QoS episodes and the energy timeline to run
	// totals, and publishes both into the deterministic stream and the
	// result.
	finishSLO := func(res *Result) {
		if slo != nil {
			slo.Seal(opt.WarmupSec + opt.MeasureSec)
			slo.EmitEpisodes(opt.Obs, slo.Episodes())
			res.SLO = slo
		}
		if en != nil {
			en.Seal(opt.WarmupSec + opt.MeasureSec)
			en.EmitTotals(opt.Obs)
			res.Energy = en
		}
	}

	// Exponential ramp: speculative-parallel when allowed, else
	// sequential. Both produce the same bracket, best-candidate
	// bookkeeping, and seed-counter position.
	lastGood, firstBad := 0, 0
	if par := opt.Parallelism; par > 1 && workload.IsStateless(gen) {
		var good []rampCell
		good, lastGood, firstBad, seed = c.parallelRamp(gen, p, opt, par)
		for _, g := range good {
			record(g.n, g.out, g.seed)
		}
	} else {
		for n := 1; n <= opt.MaxClients; {
			t, s := trial(n)
			if t.qosMet {
				record(n, t, s)
				lastGood = n
				n *= 2
			} else {
				firstBad = n
				break
			}
		}
	}
	if lastGood == 0 {
		// QoS unreachable even with one client: report best effort at a
		// moderate load, mirroring the analytic path.
		t, s := trial(maxInt(1, opt.MaxClients/8))
		replay(maxInt(1, opt.MaxClients/8), s)
		res := Result{
			Throughput:  t.throughput,
			Perf:        t.throughput,
			QoSMet:      false,
			MeanLatency: t.meanLatency,
			P95Latency:  t.p95Latency,
			Bottleneck:  bottleneckOf(t.utilization),
			Utilization: t.utilization,
			Clients:     maxInt(1, opt.MaxClients/8),
		}
		finishSLO(&res)
		return res, nil
	}
	if firstBad == 0 {
		firstBad = opt.MaxClients + 1
	}

	// Binary search between lastGood and firstBad. Each probe depends on
	// the previous outcome, so this stays sequential at any Parallelism.
	lo, hi := lastGood, firstBad
	for hi-lo > maxInt(1, lo/50) {
		mid := (lo + hi) / 2
		t, s := trial(mid)
		if t.qosMet {
			record(mid, t, s)
			lo = mid
		} else {
			hi = mid
		}
	}

	replay(bestN, bestSeed)
	res := Result{
		Throughput:  best.throughput,
		Perf:        best.throughput,
		QoSMet:      true,
		MeanLatency: best.meanLatency,
		P95Latency:  best.p95Latency,
		Bottleneck:  bottleneckOf(best.utilization),
		Utilization: best.utilization,
		Clients:     bestN,
	}
	finishSLO(&res)
	return res, nil
}

// batchRun drives one batch job: a fixed set of task slots, each
// re-launching itself on completion until JobRequests tasks are done.
// Like the interactive trial engine (see trial.go), all per-task state
// lives in reused records so the steady-state task loop allocates
// nothing.
type batchRun struct {
	sim *des.Sim
	srv *simServer
	rng stats.RNG
	gen workload.Generator
	dm  demandModel

	remaining int
	done      int
	total     int
	finish    des.Time

	rec       obs.Recorder
	recording bool
	tracer    *span.Tracer
	memFrac   float64
	arrivals  int64
	evFields  [3]obs.Field
}

type batchTask struct {
	b    *batchRun
	flow reqFlow
}

func (t *batchTask) launch() {
	b := t.b
	if b.remaining == 0 {
		return
	}
	b.remaining--
	req := b.gen.Sample(&b.rng)
	d := b.dm.For(req)
	if !b.recording {
		t.flow.serve(d)
		return
	}
	if b.tracer.Sampled(b.arrivals) {
		t.flow.serveTraced(d, b.tracer, b.arrivals, b.memFrac)
	} else {
		t.flow.serve(d)
	}
	b.arrivals++
}

func (t *batchTask) finished(latency float64) {
	b := t.b
	if b.recording {
		b.rec.Count("requests", 1)
		b.rec.Observe("latency_sec", latency)
		b.evFields[0] = obs.F("latency_sec", latency)
		b.evFields[1] = obs.FB("qos_violation", false)
		b.evFields[2] = obs.FB("measured", true)
		b.rec.Event("request", float64(b.sim.Now()), b.evFields[:]...)
	}
	b.done++
	if b.done == b.total {
		b.finish = b.sim.Now()
		b.sim.Stop()
		return
	}
	t.launch()
}

func (c Config) simulateBatch(gen workload.Generator, p workload.Profile, opt SimOptions) (Result, error) {
	b := &batchRun{}
	b.sim = des.NewSim()
	b.srv = c.newSimServer(b.sim)
	b.rng.Seed(opt.Seed)

	// Batch runs execute exactly once, so they are instrumented inline
	// (recording observes without perturbing the trajectory).
	slo, err := newSLOCollector(p, opt)
	if err != nil {
		return Result{}, err
	}
	en, err := newEnergyCollector(opt)
	if err != nil {
		return Result{}, err
	}
	rec := energy.NewTee(window.NewTee(opt.Obs, slo), en)
	b.rec = rec
	b.recording = obs.On(rec)
	b.gen = gen
	if b.recording {
		b.gen = workload.Instrument(gen, rec)
	}
	if b.recording && opt.TraceEvery > 0 {
		b.tracer = span.NewTracer(rec, opt.TraceEvery)
	}
	b.memFrac = c.memSwapFraction()
	b.dm = c.demandModelFor(p)
	b.remaining = p.JobRequests
	b.total = p.JobRequests

	concurrency := opt.BatchConcurrency
	if concurrency <= 0 {
		concurrency = 4 * c.Server.CPU.Cores() // Hadoop's 4 threads/CPU
	}

	var probes *des.Probes
	if b.recording {
		probes = des.NewProbes(b.sim, rec, des.Time(opt.ProbeIntervalSec))
		probes.Watch(b.srv.cpu, b.srv.disk, b.srv.net)
		probes.OnTick = opt.OnProbeTick
		probes.Start()
	}
	for i := 0; i < concurrency && i < p.JobRequests; i++ {
		t := &batchTask{b: b}
		t.flow.init(b.srv, t.finished)
		t.launch()
	}
	if b.recording && opt.OnLive != nil {
		handles := LiveHandles{}
		if slo != nil {
			handles.SLO = []*window.Collector{slo}
		}
		if en != nil {
			handles.Energy = []*energy.Collector{en}
		}
		opt.OnLive(handles)
	}
	b.sim.Run(des.Time(math.MaxFloat64))
	if b.recording {
		probes.Stop()
		b.tracer.FlushOpen(float64(b.sim.Now()))
		rec.Count("des.events", int64(b.sim.Fired()))
		rec.Count("trial.clients", int64(concurrency))
	}
	if b.done != p.JobRequests {
		return Result{}, fmt.Errorf("cluster: batch job stalled at %d/%d tasks", b.done, p.JobRequests)
	}

	exec := float64(b.finish)
	res := Result{
		Throughput: float64(p.JobRequests) / exec,
		Perf:       1 / exec,
		QoSMet:     true,
		ExecTime:   exec,
		Bottleneck: bottleneckOf(map[string]float64{
			"cpu": b.srv.cpu.Utilization(), "disk": b.srv.disk.Utilization(), "net": b.srv.net.Utilization(),
		}),
		Utilization: map[string]float64{
			"cpu": b.srv.cpu.Utilization(), "disk": b.srv.disk.Utilization(), "net": b.srv.net.Utilization(),
		},
		Clients: concurrency,
	}
	if slo != nil {
		slo.Seal(exec)
		slo.EmitEpisodes(opt.Obs, slo.Episodes())
		res.SLO = slo
	}
	if en != nil {
		en.Seal(exec)
		en.EmitTotals(opt.Obs)
		res.Energy = en
	}
	return res, nil
}

func bottleneckOf(util map[string]float64) string {
	best, bestU := "", -1.0
	for _, name := range [...]string{"cpu", "disk", "net"} {
		if u := util[name]; u > bestU {
			best, bestU = name, u
		}
	}
	return best
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

package cluster

// The rack model: SimOptions.Topology switches Simulate from the flat
// single-server model to a rack of identical servers grouped into
// enclosures, run on one des.Sim event heap. Every board has its own
// cpu and NIC stations, every enclosure its memory blade, and the rack
// shares one consolidated SAN array. Traffic between those stations
// is delayed by its fabric's transport latency: laIntra for backplane
// hops (fabric.IntraEnclosureLatencySec), laSAN for the storage path
// (fabric.SANPathLatencySec), laCross for board-to-board fabric
// traffic (fabric.CrossEnclosureLatencySec).
//
// Recording discipline:
//
//   - All randomness is derived per client/board from (Seed, global
//     entity id, index), never from one shared stream, so a client's
//     draws do not depend on setup order or on the rest of the rack.
//   - Recording is per-enclosure into private obs.Sinks, folded in
//     enclosure order afterwards (obs.Sink.MergeFrom), with a
//     rack-global part for the SAN and run counters; SLO and energy
//     collectors follow the same parts and merge order.
//   - Probes omit the kernel-wide gauges (heap depth, event rate) and
//     resource series carry enclosure/board names, so every series is
//     written by exactly one part.
//
// Interactive workloads run a fixed closed-loop population
// (ClientsPerBoard per board) instead of the flat model's adaptive
// client search: the rack measures a provisioned cluster at its
// configured operating point. Batch workloads run one mapreduce-style
// job: tasks are split statically across boards, each task walks
// cpu -> memory blade -> SAN -> NIC and then ships a shuffle chunk to
// a deterministically chosen peer board, which receives it on its own
// NIC and reports to a rack-wide aggregator; the job is done when the
// aggregator has seen every chunk. Batch jobs end by running the
// cluster dry, and a recorded batch run replays with the job's
// completion time as the horizon so probe timelines are complete.

import (
	"fmt"
	"math"

	"warehousesim/internal/des"
	"warehousesim/internal/fabric"
	"warehousesim/internal/obs"
	"warehousesim/internal/obs/energy"
	"warehousesim/internal/obs/span"
	"warehousesim/internal/obs/window"
	"warehousesim/internal/stats"
	"warehousesim/internal/workload"
)

// RackTopology sizes the rack model: Enclosures enclosures of
// BoardsPerEnclosure boards (each one configured Server), one memory
// blade per enclosure, and one consolidated SAN array shared by the
// whole rack.
type RackTopology struct {
	// Enclosures is the number of enclosures (>= 1).
	Enclosures int
	// BoardsPerEnclosure is the number of server boards per enclosure
	// (>= 1), ignored when Boards is set.
	BoardsPerEnclosure int
	// Boards, when non-empty, gives a heterogeneous rack: Boards[e]
	// server boards in enclosure e (each >= 1). Its length must equal
	// Enclosures.
	Boards []int
	// ClientsPerBoard is the closed-loop client population per board
	// for interactive workloads; 0 means 4. The rack model measures
	// this fixed provisioning directly — there is no adaptive search.
	ClientsPerBoard int
	// SANDisks is the service capacity of the consolidated disk array;
	// 0 means one disk per enclosure.
	SANDisks int
}

// Normalize implements Topology: it validates the topology and fills
// defaulted fields in place. SimOptions.Normalize calls it on a clone,
// so callers' values are never written through.
func (t *RackTopology) Normalize() error {
	n, err := t.normalize()
	if err != nil {
		return err
	}
	*t = n
	return nil
}

// clone implements Topology with a deep copy (Boards is the only
// reference field).
func (t *RackTopology) clone() Topology {
	c := *t
	c.Boards = append([]int(nil), t.Boards...)
	return &c
}

// simulate implements Topology: it dispatches the rack model. The
// generator must be stateless (a fleet's hot racks sample it
// concurrently), and recording requires a *obs.Sink because the rack
// records into per-enclosure sinks folded after the run.
func (t *RackTopology) simulate(c Config, gen workload.Generator, p workload.Profile, opt SimOptions) (Result, error) {
	if !workload.IsStateless(gen) {
		return Result{}, fmt.Errorf("cluster: the rack model needs workload.IsStateless, because a fleet's hot racks sample the generator concurrently; %T is stateful", gen)
	}
	if obs.On(opt.Obs) {
		if _, ok := opt.Obs.(*obs.Sink); !ok {
			return Result{}, fmt.Errorf("cluster: rack runs record into per-enclosure sinks folded after the run, so Obs must be a *obs.Sink, got %T", opt.Obs)
		}
	}
	if p.Batch {
		return c.rackBatch(t, gen, p, opt)
	}
	return c.rackInteractive(t, gen, p, opt)
}

// normalize fills defaults and validates; Normalize wraps it (the value
// form keeps the original copy-in/copy-out shape).
func (t RackTopology) normalize() (RackTopology, error) {
	if t.Enclosures < 1 {
		return t, fmt.Errorf("cluster: topology needs at least one enclosure, got %d", t.Enclosures)
	}
	if len(t.Boards) > 0 {
		if len(t.Boards) != t.Enclosures {
			return t, fmt.Errorf("cluster: topology has %d per-enclosure board counts for %d enclosures", len(t.Boards), t.Enclosures)
		}
		for e, n := range t.Boards {
			if n < 1 {
				return t, fmt.Errorf("cluster: enclosure %d needs at least one board, got %d", e, n)
			}
		}
	} else if t.BoardsPerEnclosure < 1 {
		return t, fmt.Errorf("cluster: topology needs at least one board per enclosure, got %d", t.BoardsPerEnclosure)
	}
	if t.ClientsPerBoard < 0 {
		return t, fmt.Errorf("cluster: negative clients per board %d", t.ClientsPerBoard)
	}
	if t.SANDisks < 0 {
		return t, fmt.Errorf("cluster: negative SAN capacity %d", t.SANDisks)
	}
	if t.ClientsPerBoard == 0 {
		t.ClientsPerBoard = 4
	}
	if t.SANDisks == 0 {
		t.SANDisks = t.Enclosures
	}
	return t, nil
}

// boardsIn returns enclosure e's board count, honoring the
// heterogeneous override.
func (t RackTopology) boardsIn(e int) int {
	if len(t.Boards) > 0 {
		return t.Boards[e]
	}
	return t.BoardsPerEnclosure
}

// totalBoards is the rack's board count across all enclosures.
func (t RackTopology) totalBoards() int {
	if len(t.Boards) == 0 {
		return t.Enclosures * t.BoardsPerEnclosure
	}
	n := 0
	for _, b := range t.Boards {
		n += b
	}
	return n
}

// rackSeed derives one entity-scoped RNG seed from the run seed. Pure
// function of (root, ent, idx), so per-client streams are independent
// of setup iteration order. The mixing lives in stats.EntitySeed
// (bit-identical to the splitmix64 finalization this function used to
// inline), so the constants stay in one place.
func rackSeed(root uint64, ent, idx int) uint64 {
	return stats.EntitySeed(root, ent, idx)
}

// rackSim owns one rack run: the event heap, the per-enclosure model
// state, and the rack-global SAN and aggregator. The three latency
// classes are the rack's transport physics: laIntra for backplane hops
// that never leave an enclosure (blade swaps), laSAN for the storage
// path, laCross for board-to-board fabric traffic (shuffle chunks,
// aggregator reports).
type rackSim struct {
	cfg       Config
	topo      RackTopology
	p         workload.Profile
	opt       SimOptions
	sim       *des.Sim
	laIntra   des.Time
	laSAN     des.Time
	laCross   des.Time
	memFrac   float64
	dm        demandModel
	recording bool

	encs   []*rackEnclosure
	boards []*rackBoard // global board order: enclosure-major

	san          *des.Resource
	global       *obs.Sink    // rack-global recording part (SAN probes, run counters)
	globalRec    obs.Recorder // global, tee'd through globalSLO/globalEnergy when windowing
	globalSLO    *window.Collector
	globalEnergy *energy.Collector

	aggDone   int
	aggTotal  int
	aggFinish des.Time
	aggDoneFn des.Action
}

// rackEnclosure is one enclosure: a group of boards plus the
// enclosure's memory blade and its private recording part.
type rackEnclosure struct {
	r      *rackSim
	blade  *des.Resource // nil when the config has no remote memory
	boards []*rackBoard

	think     stats.Exponential
	hist      *stats.Histogram
	completed int
	measuring bool
	arrivals  int64

	recording bool
	sink      *obs.Sink
	rec       obs.Recorder // sink, tee'd through slo/energy when windowing
	slo       *window.Collector
	energy    *energy.Collector
	gen       workload.Generator
	tracer    *span.Tracer
	evFields  [3]obs.Field
}

// rackBoard is one server board: its cpu and NIC stations plus the
// batch-mode task state.
type rackBoard struct {
	r      *rackSim
	enc    *rackEnclosure
	global int
	cpu    *des.Resource
	net    *des.Resource

	rng       stats.RNG // batch-mode sampling stream
	remaining int       // batch tasks not yet launched
}

// rackFlow walks one request through the rack pipeline with bound-once
// continuations, mirroring the flat model's reqFlow: local cpu, then a
// memory-blade swap round trip, then a SAN round trip, then the NIC.
// Each fabric hop is an event one transport latency later.
type rackFlow struct {
	b     *rackBoard
	d     Demands
	start des.Time
	// stage boundary times, kept for span emission at completion.
	tCPU, tBlade, tSAN des.Time
	traced             bool
	req                int64
	finish             func()

	afterCPUFn, bladeArriveFn, bladeDoneFn, bladeBackFn des.Action
	sanArriveFn, sanDoneFn, sanBackFn, netDoneFn        des.Action
}

func (f *rackFlow) init(b *rackBoard, finish func()) {
	f.b = b
	f.finish = finish
	f.afterCPUFn = f.afterCPU
	f.bladeArriveFn = f.bladeArrive
	f.bladeDoneFn = f.bladeDone
	f.bladeBackFn = f.bladeBack
	f.sanArriveFn = f.sanArrive
	f.sanDoneFn = f.sanDone
	f.sanBackFn = f.sanBack
	f.netDoneFn = f.netDone
}

func (f *rackFlow) serve(d Demands) {
	f.d = d
	f.start = f.b.r.sim.Now()
	f.b.cpu.Submit(des.Time(d.CPUSec*(1-f.b.r.memFrac)), f.afterCPUFn)
}

func (f *rackFlow) afterCPU() {
	r := f.b.r
	f.tCPU = r.sim.Now()
	if r.memFrac > 0 {
		r.sim.Schedule(r.laIntra, f.bladeArriveFn)
		return
	}
	f.tBlade = f.tCPU
	f.goSAN()
}

// bladeArrive..bladeBack run the swap round trip: the remote-memory
// share of cpu service (the flat model folds it into CPUSec; here it
// occupies the blade's channel) bracketed by two fabric hops.
func (f *rackFlow) bladeArrive() {
	f.b.enc.blade.Submit(des.Time(f.d.CPUSec*f.b.r.memFrac), f.bladeDoneFn)
}

func (f *rackFlow) bladeDone() {
	f.b.r.sim.Schedule(f.b.r.laIntra, f.bladeBackFn)
}

func (f *rackFlow) bladeBack() {
	f.tBlade = f.b.r.sim.Now()
	f.goSAN()
}

func (f *rackFlow) goSAN() {
	r := f.b.r
	if f.d.DiskSec > 0 {
		r.sim.Schedule(r.laSAN, f.sanArriveFn)
		return
	}
	f.tSAN = f.tBlade
	f.goNet()
}

func (f *rackFlow) sanArrive() {
	r := f.b.r
	r.san.Submit(des.Time(f.d.DiskSec), f.sanDoneFn)
}

func (f *rackFlow) sanDone() {
	r := f.b.r
	r.sim.Schedule(r.laSAN, f.sanBackFn)
}

func (f *rackFlow) sanBack() {
	f.tSAN = f.b.r.sim.Now()
	f.goNet()
}

func (f *rackFlow) goNet() {
	f.b.net.Submit(des.Time(f.d.NetSec), f.netDoneFn)
}

func (f *rackFlow) netDone() { f.finish() }

// emitSpans records one completed request's span tree into the
// enclosure's part. Unlike the flat model, spans are emitted at
// completion (requests still in flight at the horizon are dropped, not
// truncated), when the flow has stamped every stage boundary.
func (e *rackEnclosure) emitSpans(f *rackFlow, end des.Time) {
	tr := e.tracer
	root := tr.Emit(0, f.req, span.KindRequest, "request", float64(f.start), float64(end))
	local := f.d.CPUSec * (1 - e.r.memFrac)
	began := float64(f.tCPU) - local
	tr.Emit(root, f.req, span.KindQueue, f.b.cpu.Name(), float64(f.start), began)
	tr.Emit(root, f.req, span.KindService, f.b.cpu.Name(), began, float64(f.tCPU))
	if e.r.memFrac > 0 {
		tr.Emit(root, f.req, span.KindSwap, e.blade.Name(), float64(f.tCPU), float64(f.tBlade))
	}
	if f.d.DiskSec > 0 {
		tr.Emit(root, f.req, span.KindService, "san", float64(f.tBlade), float64(f.tSAN))
	}
	nb := float64(end) - f.d.NetSec
	tr.Emit(root, f.req, span.KindQueue, f.b.net.Name(), float64(f.tSAN), nb)
	tr.Emit(root, f.req, span.KindService, f.b.net.Name(), nb, float64(end))
}

// rackClient is one closed-loop client pinned to a board: think, issue,
// await the pipeline, repeat.
type rackClient struct {
	enc  *rackEnclosure
	rng  stats.RNG
	flow rackFlow

	startFn, issueFn des.Action
}

func (cl *rackClient) next() {
	e := cl.enc
	if e.think.Mean > 0 {
		e.r.sim.Schedule(des.Time(e.think.Sample(&cl.rng)), cl.issueFn)
		return
	}
	cl.issue()
}

func (cl *rackClient) issue() {
	e := cl.enc
	req := e.gen.Sample(&cl.rng)
	d := e.r.dm.For(req)
	cl.flow.traced = e.tracer.Sampled(e.arrivals)
	cl.flow.req = e.arrivals
	e.arrivals++
	cl.flow.serve(d)
}

func (cl *rackClient) finished() {
	e := cl.enc
	end := e.r.sim.Now()
	latency := float64(end - cl.flow.start)
	if e.measuring {
		e.hist.Add(latency)
		e.completed++
	}
	if e.recording {
		violation := e.r.p.QoSLatencySec > 0 && latency > e.r.p.QoSLatencySec
		e.rec.Count("requests", 1)
		if violation {
			e.rec.Count("qos_violations", 1)
		}
		e.rec.Observe("latency_sec", latency)
		e.evFields[0] = obs.F("latency_sec", latency)
		e.evFields[1] = obs.FB("qos_violation", violation)
		e.evFields[2] = obs.FB("measured", e.measuring)
		e.rec.Event("request", float64(end), e.evFields[:]...)
		if cl.flow.traced {
			e.emitSpans(&cl.flow, end)
		}
	}
	cl.next()
}

// rackSlot is one batch task slot: it relaunches itself until its board
// runs out of tasks, shipping each finished task's shuffle chunk before
// picking up the next one.
type rackSlot struct {
	b    *rackBoard
	flow rackFlow
}

func (s *rackSlot) launch() {
	b := s.b
	if b.remaining == 0 {
		return
	}
	b.remaining--
	e := b.enc
	req := e.gen.Sample(&b.rng)
	d := b.r.dm.For(req)
	s.flow.traced = e.tracer.Sampled(e.arrivals)
	s.flow.req = e.arrivals
	e.arrivals++
	s.flow.serve(d)
}

func (s *rackSlot) finished() {
	b := s.b
	e := b.enc
	end := e.r.sim.Now()
	if e.recording {
		latency := float64(end - s.flow.start)
		e.rec.Count("requests", 1)
		e.rec.Observe("latency_sec", latency)
		e.evFields[0] = obs.F("latency_sec", latency)
		e.evFields[1] = obs.FB("qos_violation", false)
		e.evFields[2] = obs.FB("measured", true)
		e.rec.Event("request", float64(end), e.evFields[:]...)
		if s.flow.traced {
			e.emitSpans(&s.flow, end)
		}
	}
	// Shuffle: ship the task's output chunk to a deterministically
	// chosen peer board. The slot frees immediately (map-side), so the
	// chunk carries its own continuation state.
	peer := b.shufflePeer()
	ch := &rackChunk{r: b.r, dst: peer, netSec: s.flow.d.NetSec}
	ch.recvFn = ch.recv
	ch.sentFn = ch.sent
	b.r.sim.Schedule(b.r.laCross, ch.recvFn)
	s.launch()
}

// shufflePeer picks the destination board for a shuffle chunk from the
// board's own stream — deterministic per board, never self unless the
// rack has a single board.
func (b *rackBoard) shufflePeer() *rackBoard {
	n := len(b.r.boards)
	if n == 1 {
		return b
	}
	k := int(b.rng.Uint64() % uint64(n-1))
	return b.r.boards[(b.global+1+k)%n]
}

// rackChunk is one shuffle chunk in flight: received on the peer
// board's NIC, then reported to the rack-wide aggregator.
type rackChunk struct {
	r      *rackSim
	dst    *rackBoard
	netSec float64

	recvFn, sentFn des.Action
}

func (c *rackChunk) recv() {
	c.dst.net.Submit(des.Time(c.netSec), c.sentFn)
}

func (c *rackChunk) sent() {
	c.r.sim.Schedule(c.r.laCross, c.r.aggDoneFn)
}

// aggChunkDone runs for every delivered chunk; the last one stamps the
// job's completion time.
func (r *rackSim) aggChunkDone() {
	r.aggDone++
	if r.aggDone == r.aggTotal {
		r.aggFinish = r.sim.Now()
	}
}

// buildRack wires the event heap and the per-enclosure model state.
// Boards are numbered globally, enclosure-major (heterogeneous racks
// via prefix sums); that number seeds each board's streams.
func buildRack(c Config, topo *RackTopology, gen workload.Generator, p workload.Profile, opt SimOptions, recording bool) (*rackSim, error) {
	t := *topo
	nic := c.Server.NIC.BytesPerSec()
	r := &rackSim{
		cfg:       c,
		topo:      t,
		p:         p,
		opt:       opt,
		sim:       des.NewSim(),
		laIntra:   des.Time(fabric.IntraEnclosureLatencySec(nic)),
		laSAN:     des.Time(fabric.SANPathLatencySec(nic)),
		laCross:   des.Time(fabric.CrossEnclosureLatencySec(nic)),
		memFrac:   c.memSwapFraction(),
		dm:        c.demandModelFor(p),
		recording: recording,
	}
	r.aggDoneFn = r.aggChunkDone
	var err error
	boardBase := 0
	for e := 0; e < t.Enclosures; e++ {
		enc := &rackEnclosure{
			r:     r,
			think: stats.Exponential{Mean: p.ThinkTimeSec},
			hist:  stats.NewLatencyHistogram(),
			gen:   gen,
		}
		if recording {
			enc.recording = true
			enc.sink = obs.NewSink()
			enc.rec = enc.sink
			enc.gen = workload.Instrument(gen, enc.sink)
			if opt.SLOWindowSec > 0 {
				// One window collector per enclosure, fed through a tee
				// over the enclosure's private part; windows are assigned
				// by observation time and the collectors merge in
				// enclosure order exactly like the sinks do.
				enc.slo, err = window.New(window.Config{
					WidthSec:      opt.SLOWindowSec,
					QoSLatencySec: p.QoSLatencySec,
					QoSPercentile: p.QoSPercentile,
				})
				if err != nil {
					return nil, err
				}
				enc.rec = window.NewTee(enc.sink, enc.slo)
			}
			if opt.Energy != nil {
				// Same discipline as the window collectors: one energy
				// collector per enclosure, windows assigned by observation
				// time, merged in enclosure order after the run.
				enc.energy, err = energy.New(*opt.Energy)
				if err != nil {
					return nil, err
				}
				enc.rec = energy.NewTee(enc.rec, enc.energy)
			}
			if opt.TraceEvery > 0 {
				// Disjoint id bases keep span ids unique across the
				// per-enclosure tracers.
				enc.tracer = span.NewTracerAt(enc.sink, opt.TraceEvery, (int64(e)+1)<<40)
			}
		}
		if r.memFrac > 0 {
			enc.blade = des.NewResource(r.sim, fmt.Sprintf("memblade.e%d", e), 1)
		}
		for b := 0; b < t.boardsIn(e); b++ {
			bd := &rackBoard{r: r, enc: enc, global: boardBase + b}
			bd.cpu = des.NewResource(r.sim, fmt.Sprintf("cpu.e%d.b%d", e, b), c.Server.CPU.Cores())
			bd.net = des.NewResource(r.sim, fmt.Sprintf("net.e%d.b%d", e, b), 1)
			enc.boards = append(enc.boards, bd)
			r.boards = append(r.boards, bd)
		}
		boardBase += t.boardsIn(e)
		r.encs = append(r.encs, enc)
	}
	r.san = des.NewResource(r.sim, "san", t.SANDisks)
	if recording {
		r.global = obs.NewSink()
		r.globalRec = r.global
		if opt.SLOWindowSec > 0 {
			r.globalSLO, err = window.New(window.Config{
				WidthSec:      opt.SLOWindowSec,
				QoSLatencySec: p.QoSLatencySec,
				QoSPercentile: p.QoSPercentile,
			})
			if err != nil {
				return nil, err
			}
			r.globalRec = window.NewTee(r.global, r.globalSLO)
		}
		if opt.Energy != nil {
			r.globalEnergy, err = energy.New(*opt.Energy)
			if err != nil {
				return nil, err
			}
			r.globalRec = energy.NewTee(r.globalRec, r.globalEnergy)
		}
	}
	return r, nil
}

// startProbes attaches the per-enclosure and rack-global timeline
// probes of a recorded run. Kernel gauges are omitted, and every
// resource series name is enclosure/board-scoped, so each series
// belongs to exactly one part. The live-introspection hook rides the
// rack-global probes.
func (r *rackSim) startProbes() {
	iv := des.Time(r.opt.ProbeIntervalSec)
	for _, enc := range r.encs {
		pr := des.NewProbes(r.sim, enc.rec, iv)
		pr.OmitKernel = true
		for _, bd := range enc.boards {
			pr.Watch(bd.cpu, bd.net)
		}
		if enc.blade != nil {
			pr.Watch(enc.blade)
		}
		pr.Start()
	}
	gp := des.NewProbes(r.sim, r.globalRec, iv)
	gp.OmitKernel = true
	gp.Watch(r.san)
	gp.OnTick = r.opt.OnProbeTick
	gp.Start()
}

// sloParts returns the run's window collectors in the canonical merge
// order — enclosures, then the rack-global part — or nil when the
// windowed-SLO plane is off.
func (r *rackSim) sloParts() []*window.Collector {
	if r.globalSLO == nil {
		return nil
	}
	parts := make([]*window.Collector, 0, len(r.encs)+1)
	for _, enc := range r.encs {
		parts = append(parts, enc.slo)
	}
	return append(parts, r.globalSLO)
}

// energyParts returns the run's energy collectors in the canonical
// merge order — enclosures, then the rack-global part — or nil when the
// energy plane is off.
func (r *rackSim) energyParts() []*energy.Collector {
	if r.globalEnergy == nil {
		return nil
	}
	parts := make([]*energy.Collector, 0, len(r.encs)+1)
	for _, enc := range r.encs {
		parts = append(parts, enc.energy)
	}
	return append(parts, r.globalEnergy)
}

// fireOnLive hands the caller the live introspection handles just
// before the heap runs: the per-part window and energy collectors.
func (r *rackSim) fireOnLive() {
	if r.opt.OnLive == nil {
		return
	}
	r.opt.OnLive(LiveHandles{SLO: r.sloParts(), Energy: r.energyParts()})
}

// finishSLO seals every window part at the run's horizon, folds them
// in the canonical part order (matching finishObs), reduces the merged
// timeline to QoS episodes, and emits the summary into the merged
// deterministic sink. Call after finishObs.
func (r *rackSim) finishSLO(horizon float64, res *Result) {
	parts := r.sloParts()
	if parts == nil {
		return
	}
	for _, p := range parts {
		p.Seal(horizon)
	}
	merged, err := window.New(parts[0].Config())
	if err != nil {
		return // unreachable: the parts were built from this config
	}
	merged.MergeFrom(parts...)
	merged.EmitEpisodes(r.opt.Obs, merged.Episodes(parts...))
	res.SLO = merged
	res.SLOParts = parts
}

// finishEnergy seals every energy part at the run's horizon, folds them
// in the canonical part order, and emits the run totals into the merged
// deterministic sink — the same discipline as finishSLO. Call after
// finishObs.
func (r *rackSim) finishEnergy(horizon float64, res *Result) {
	parts := r.energyParts()
	if parts == nil {
		return
	}
	for _, p := range parts {
		p.Seal(horizon)
	}
	merged, err := energy.New(parts[0].Config())
	if err != nil {
		return // unreachable: the parts were built from this config
	}
	merged.MergeFrom(parts...)
	merged.EmitTotals(r.opt.Obs)
	res.Energy = merged
	res.EnergyParts = parts
}

// setupInteractive populates every board with its closed-loop clients
// and schedules the per-enclosure warm-up boundaries.
func (r *rackSim) setupInteractive() {
	for _, enc := range r.encs {
		enc := enc
		for _, bd := range enc.boards {
			for ci := 0; ci < r.topo.ClientsPerBoard; ci++ {
				cl := &rackClient{enc: enc}
				cl.flow.init(bd, cl.finished)
				cl.startFn = cl.next
				cl.issueFn = cl.issue
				cl.rng.Seed(rackSeed(r.opt.Seed, bd.global, ci))
				// Stagger initial arrivals across one think time, from
				// the client's own stream.
				r.sim.Schedule(des.Time(cl.rng.Float64()*(r.p.ThinkTimeSec+0.01)), cl.startFn)
			}
		}
		r.sim.Schedule(des.Time(r.opt.WarmupSec), func() {
			enc.measuring = true
			for _, bd := range enc.boards {
				bd.cpu.ResetWindow()
				bd.net.ResetWindow()
			}
			if enc.blade != nil {
				enc.blade.ResetWindow()
			}
		})
	}
	r.sim.Schedule(des.Time(r.opt.WarmupSec), func() { r.san.ResetWindow() })
	if r.recording {
		r.startProbes()
	}
}

// setupBatch splits the job's tasks statically across boards and
// launches each board's task slots.
func (r *rackSim) setupBatch() int {
	slots := r.opt.BatchConcurrency
	if slots <= 0 {
		slots = 4 * r.cfg.Server.CPU.Cores() // Hadoop's 4 threads/CPU, per board
	}
	n := len(r.boards)
	r.aggTotal = r.p.JobRequests
	for _, bd := range r.boards {
		bd.rng.Seed(rackSeed(r.opt.Seed, bd.global, 0))
		bd.remaining = r.p.JobRequests / n
		if bd.global < r.p.JobRequests%n {
			bd.remaining++
		}
		k := slots
		if k > bd.remaining {
			k = bd.remaining
		}
		for i := 0; i < k; i++ {
			s := &rackSlot{b: bd}
			s.flow.init(bd, s.finished)
			s.launch()
		}
	}
	if r.recording {
		r.startProbes()
	}
	return slots
}

// utilization aggregates busy integrals over a measurement window of
// windowSec, in fixed enclosure/board order.
func (r *rackSim) utilization(windowSec float64) map[string]float64 {
	var cpu, net float64
	for _, bd := range r.boards {
		cb, _ := bd.cpu.Integrals()
		nb, _ := bd.net.Integrals()
		cpu += cb / (windowSec * float64(bd.cpu.Servers()))
		net += nb / windowSec
	}
	n := float64(len(r.boards))
	sb, _ := r.san.Integrals()
	util := map[string]float64{
		"cpu":  cpu / n,
		"net":  net / n,
		"disk": sb / (windowSec * float64(r.san.Servers())),
	}
	if r.memFrac > 0 {
		var blade float64
		for _, enc := range r.encs {
			bb, _ := enc.blade.Integrals()
			blade += bb / windowSec
		}
		util["memblade"] = blade / float64(len(r.encs))
	}
	return util
}

// finishObs folds the per-enclosure parts plus the rack-global part
// into the caller's sink, in enclosure order.
func (r *rackSim) finishObs(clients int) {
	if !r.recording {
		return
	}
	r.global.Count("des.events", int64(r.sim.Fired()))
	r.global.Count("trial.clients", int64(clients))
	parts := make([]*obs.Sink, 0, len(r.encs)+1)
	for _, enc := range r.encs {
		parts = append(parts, enc.sink)
	}
	parts = append(parts, r.global)
	r.opt.Obs.(*obs.Sink).MergeFrom(parts...)
}

// emitDiag records the heap's fired-event count into ShardDiag as
// shard.fired.s0, the counter benchmark tooling reads as the run's
// event total.
func (r *rackSim) emitDiag() {
	if obs.On(r.opt.ShardDiag) {
		r.opt.ShardDiag.Count("shard.fired.s0", int64(r.sim.Fired()))
	}
}

func (c Config) rackInteractive(t *RackTopology, gen workload.Generator, p workload.Profile, opt SimOptions) (Result, error) {
	r, err := buildRack(c, t, gen, p, opt, obs.On(opt.Obs))
	if err != nil {
		return Result{}, err
	}
	r.setupInteractive()
	r.fireOnLive()
	r.sim.Run(des.Time(opt.WarmupSec + opt.MeasureSec))

	hist := stats.NewLatencyHistogram()
	completed := 0
	for _, enc := range r.encs {
		hist.Merge(enc.hist)
		completed += enc.completed
	}
	clients := len(r.boards) * r.topo.ClientsPerBoard
	util := r.utilization(opt.MeasureSec)
	p95 := hist.Quantile(p.QoSPercentile)
	out := Result{
		Throughput:  float64(completed) / opt.MeasureSec,
		Perf:        float64(completed) / opt.MeasureSec,
		MeanLatency: hist.Mean(),
		P95Latency:  p95,
		Bottleneck:  bottleneckOf(util),
		Utilization: util,
		Clients:     clients,
	}
	if p.QoSLatencySec > 0 {
		out.QoSMet = p95 <= p.QoSLatencySec && hist.Count() > 0
	} else {
		out.QoSMet = true
	}
	r.finishObs(clients)
	r.finishSLO(opt.WarmupSec+opt.MeasureSec, &out)
	r.finishEnergy(opt.WarmupSec+opt.MeasureSec, &out)
	r.emitDiag()
	return out, nil
}

// rackBatch runs the job twice when recording: an uninstrumented pass
// that runs the cluster dry to find the completion time (probes would
// keep rescheduling forever against an open horizon), then an
// instrumented replay to exactly that horizon — same seeds, identical
// trajectory — so timelines cover the whole job.
func (c Config) rackBatch(t *RackTopology, gen workload.Generator, p workload.Profile, opt SimOptions) (Result, error) {
	r, err := buildRack(c, t, gen, p, opt, false)
	if err != nil {
		return Result{}, err
	}
	slots := r.setupBatch()
	if !obs.On(opt.Obs) {
		r.fireOnLive() // no instrumented replay will follow
	}
	r.sim.Run(des.Time(math.MaxFloat64))
	if r.aggDone != p.JobRequests {
		return Result{}, fmt.Errorf("cluster: rack batch job stalled at %d/%d chunks", r.aggDone, p.JobRequests)
	}
	exec := float64(r.aggFinish)

	measured := r
	if obs.On(opt.Obs) {
		r2, err := buildRack(c, t, gen, p, opt, true)
		if err != nil {
			return Result{}, err
		}
		r2.setupBatch()
		r2.fireOnLive()
		r2.sim.Run(r.aggFinish)
		if r2.aggDone != r.aggDone || r2.aggFinish != r.aggFinish {
			return Result{}, fmt.Errorf("cluster: instrumented rack replay diverged: %d/%d chunks at %v vs %v",
				r2.aggDone, r.aggDone, r2.aggFinish, r.aggFinish)
		}
		measured = r2
	}
	clients := slots * len(r.boards)
	measured.finishObs(clients)
	measured.emitDiag()
	util := measured.utilization(exec)
	out := Result{
		Throughput:  float64(p.JobRequests) / exec,
		Perf:        1 / exec,
		QoSMet:      true,
		ExecTime:    exec,
		Bottleneck:  bottleneckOf(util),
		Utilization: util,
		Clients:     clients,
	}
	measured.finishSLO(exec, &out)
	measured.finishEnergy(exec, &out)
	return out, nil
}

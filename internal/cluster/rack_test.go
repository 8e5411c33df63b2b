package cluster

import (
	"testing"

	"warehousesim/internal/obs"
	"warehousesim/internal/platform"
	"warehousesim/internal/stats"
	"warehousesim/internal/workload"
)

func rackTopology() *RackTopology {
	return &RackTopology{Enclosures: 4, BoardsPerEnclosure: 2, ClientsPerBoard: 2}
}

func rackOptions(rec obs.Recorder) SimOptions {
	return SimOptions{
		Seed: 7, WarmupSec: 2, MeasureSec: 10, MaxClients: 64,
		Obs: rec, ProbeIntervalSec: 0.5, TraceEvery: 50,
		Topology: rackTopology(),
	}
}

// TestRackObsDoesNotChangeResult: recording a rack run must leave the
// reported numbers untouched, same as the flat model.
func TestRackObsDoesNotChangeResult(t *testing.T) {
	cfg := Config{Server: platform.Desk(), MemSlowdown: 0.05}
	gen := workload.FixedGenerator{P: testProfile()}
	plain, err := cfg.Simulate(gen, rackOptions(nil))
	if err != nil {
		t.Fatal(err)
	}
	probed, err := cfg.Simulate(gen, rackOptions(obs.NewSink()))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Throughput != probed.Throughput || plain.MeanLatency != probed.MeanLatency ||
		plain.P95Latency != probed.P95Latency || plain.Clients != probed.Clients {
		t.Fatalf("obs changed the rack result:\nplain  %+v\nprobed %+v", plain, probed)
	}
}

// TestRackShardDiag: the heap's fired-event count lands in ShardDiag as
// shard.fired.s0 — the total the obs export reports as des.events —
// and nothing else does.
func TestRackShardDiag(t *testing.T) {
	cfg := Config{Server: platform.Desk()}
	for _, p := range []workload.Profile{testProfile(), batchProfile()} {
		diag, sink := obs.NewSink(), obs.NewSink()
		opt := rackOptions(sink)
		opt.ShardDiag = diag
		if _, err := cfg.Simulate(workload.FixedGenerator{P: p}, opt); err != nil {
			t.Fatal(err)
		}
		fired := diag.CounterValue("shard.fired.s0")
		if fired == 0 || fired != sink.CounterValue("des.events") {
			t.Errorf("%s: shard.fired.s0 = %d, obs des.events = %d", p.Name, fired, sink.CounterValue("des.events"))
		}
		if len(diag.SeriesNames()) != 0 || len(diag.Events()) != 0 {
			t.Errorf("%s: ShardDiag holds series or events besides shard.fired.s0", p.Name)
		}
	}
}

// TestRackSingleEnclosure: the degenerate one-enclosure rack still runs
// at zero think time, the tightest event cadence the model produces.
func TestRackSingleEnclosure(t *testing.T) {
	p := testProfile()
	p.ThinkTimeSec = 0
	cfg := Config{Server: platform.Desk()}
	opt := rackOptions(nil)
	opt.Topology = &RackTopology{Enclosures: 1, BoardsPerEnclosure: 2, ClientsPerBoard: 1}
	res, err := cfg.Simulate(workload.FixedGenerator{P: p}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
}

// statefulGen lacks the Stateless marker — stands in for the engine
// generators the rack model must refuse.
type statefulGen struct{ p workload.Profile }

func (g statefulGen) Profile() workload.Profile          { return g.p }
func (g statefulGen) Sample(*stats.RNG) workload.Request { return g.p.MeanRequest() }

// TestRackRejectsStatefulGenerator: a fleet's hot racks sample the
// generator concurrently, so rack runs must refuse stateful ones.
func TestRackRejectsStatefulGenerator(t *testing.T) {
	cfg := Config{Server: platform.Desk()}
	if _, err := cfg.Simulate(statefulGen{p: testProfile()}, rackOptions(nil)); err == nil {
		t.Fatal("stateful generator accepted by rack model")
	}
}

func TestNormalizeDefaults(t *testing.T) {
	o := SimOptions{Seed: 1, WarmupSec: 1, MeasureSec: 10, MaxClients: 8}
	n, err := o.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n.ProbeIntervalSec != 1 || n.Parallelism != 1 {
		t.Fatalf("defaults not applied: %+v", n)
	}
	// Nil topology pointers select the flat model like an untyped nil.
	for _, nilTopo := range []Topology{(*RackTopology)(nil), (*FleetTopology)(nil)} {
		o.Topology = nilTopo
		if n, err := o.Normalize(); err != nil || n.Topology != nil {
			t.Fatalf("%T(nil) normalized to %v, %v; want the flat model", nilTopo, n.Topology, err)
		}
	}
	o.Topology = &RackTopology{Enclosures: 4, BoardsPerEnclosure: 1}
	n, err = o.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	nt := n.Topology.(*RackTopology)
	if nt.ClientsPerBoard != 4 || nt.SANDisks != 4 {
		t.Fatalf("topology defaults not applied: %+v", *nt)
	}
	if c := o.Topology.(*RackTopology); c.ClientsPerBoard != 0 || c.SANDisks != 0 {
		t.Fatal("Normalize mutated the caller's topology")
	}
}

func TestNormalizeRejectsBadTopology(t *testing.T) {
	for _, topo := range []RackTopology{
		{Enclosures: 0, BoardsPerEnclosure: 1},
		{Enclosures: 1, BoardsPerEnclosure: 0},
		{Enclosures: 1, BoardsPerEnclosure: 1, ClientsPerBoard: -1},
		{Enclosures: 1, BoardsPerEnclosure: 1, SANDisks: -2},
		{Enclosures: 2, Boards: []int{1}},
		{Enclosures: 2, Boards: []int{1, 0}},
	} {
		topo := topo
		o := SimOptions{Seed: 1, WarmupSec: 1, MeasureSec: 10, MaxClients: 8, Topology: &topo}
		if _, err := o.Normalize(); err == nil {
			t.Errorf("topology %+v accepted", topo)
		}
	}
}

package cluster

import (
	"bytes"
	"testing"

	"warehousesim/internal/obs"
	"warehousesim/internal/obs/energy"
	"warehousesim/internal/platform"
	"warehousesim/internal/power"
	"warehousesim/internal/workload"
)

// testEnergyConfig builds an energy plane over the desk platform's
// consumed-power breakdown with the catalog idle split.
func testEnergyConfig(widthSec float64, idle power.IdleFractions) *energy.Config {
	active := power.DefaultModel().ServerConsumed(platform.Desk(), platform.DefaultRack())
	return &energy.Config{WidthSec: widthSec, Model: energy.Model{Active: active, Idle: idle}}
}

// energyExport renders a result's energy collector the way whsim's
// -energy-out does.
func energyExport(t *testing.T, res Result) []byte {
	t.Helper()
	if res.Energy == nil {
		t.Fatal("run configured with Energy returned no collector")
	}
	var buf bytes.Buffer
	if err := res.Energy.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEnergyFlatInteractive: the flat adaptive-driver path derives
// windows over the instrumented replay without perturbing the reported
// operating point, and the degenerate static split reproduces the
// static wattage bit-exactly in every window.
func TestEnergyFlatInteractive(t *testing.T) {
	cfg := Config{Server: platform.Desk()}
	p := testProfile()
	gen := workload.FixedGenerator{P: p}
	opt := SimOptions{Seed: 7, WarmupSec: 2, MeasureSec: 10, MaxClients: 64}

	base, err := cfg.Simulate(gen, opt)
	if err != nil {
		t.Fatal(err)
	}
	if base.Energy != nil {
		t.Fatal("energy collector present without SimOptions.Energy")
	}

	sink := obs.NewSink()
	opt.Obs = sink
	opt.Energy = testEnergyConfig(1, power.StaticIdleFractions())
	var live LiveHandles
	opt.OnLive = func(h LiveHandles) { live = h }
	res, err := cfg.Simulate(gen, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput != base.Throughput || res.Clients != base.Clients {
		t.Errorf("energy collection changed the result: %+v vs %+v", res, base)
	}
	ws := res.Energy.Windows()
	if len(ws) == 0 {
		t.Fatal("no energy windows collected")
	}
	// Degenerate case: idle fractions all 1.0 must reproduce the static
	// total bit-for-bit regardless of the run's utilization.
	static := opt.Energy.Model.Active.TotalW()
	for _, w := range ws {
		if w.Watts != static {
			t.Errorf("window %d watts %v != static %v (must be bit-exact)", w.Index, w.Watts, static)
		}
	}
	if last := ws[len(ws)-1]; last.T1 > opt.WarmupSec+opt.MeasureSec {
		t.Errorf("final window T1 %g past the run horizon %g", last.T1, opt.WarmupSec+opt.MeasureSec)
	}
	tot := res.Energy.Totals()
	if tot.MeanW != static || tot.StaticW != static {
		t.Errorf("degenerate totals mean %v static %v, want both %v", tot.MeanW, tot.StaticW, static)
	}
	if tot.Requests == 0 || tot.JoulesPerRequest <= 0 {
		t.Errorf("totals carry no requests: %+v", tot)
	}
	if len(live.Energy) != 1 || live.Energy[0] != res.Energy {
		t.Errorf("OnLive energy handles = %+v, want the run's single collector", live.Energy)
	}
	if sink.CounterValue("energy.windows") != int64(len(ws)) {
		t.Errorf("energy.windows counter %d != %d windows", sink.CounterValue("energy.windows"), len(ws))
	}
}

// TestEnergyFlatUtilizationConditioned: with the catalog idle split the
// measured draw must land strictly between idle and static, and vary
// with load across windows.
func TestEnergyFlatUtilizationConditioned(t *testing.T) {
	cfg := Config{Server: platform.Desk()}
	sink := obs.NewSink()
	ec := testEnergyConfig(1, power.DefaultIdleFractions())
	res, err := cfg.Simulate(workload.FixedGenerator{P: testProfile()}, SimOptions{
		Seed: 7, WarmupSec: 2, MeasureSec: 10, MaxClients: 64,
		Obs: sink, Energy: ec,
	})
	if err != nil {
		t.Fatal(err)
	}
	tot := res.Energy.Totals()
	idleW := ec.Model.Active.At(ec.Model.Idle, power.Utilizations{}).TotalW()
	if !(tot.MeanW > idleW && tot.MeanW < tot.StaticW) {
		t.Errorf("mean %g W not between idle %g and static %g", tot.MeanW, idleW, tot.StaticW)
	}
	prop := res.Energy.Proportionality()
	if prop.Points == 0 || prop.SlopeWPerUtil <= 0 {
		t.Errorf("driven run shows no proportionality: %+v", prop)
	}
}

// TestEnergyFlatParInvariance: the energy export must be byte-identical
// at any ramp parallelism.
func TestEnergyFlatParInvariance(t *testing.T) {
	run := func(par int) []byte {
		cfg := Config{Server: platform.Desk()}
		sink := obs.NewSink()
		res, err := cfg.Simulate(workload.FixedGenerator{P: testProfile()}, SimOptions{
			Seed: 7, WarmupSec: 2, MeasureSec: 10, MaxClients: 64,
			Obs: sink, Energy: testEnergyConfig(1, power.DefaultIdleFractions()), Parallelism: par,
		})
		if err != nil {
			t.Fatal(err)
		}
		return energyExport(t, res)
	}
	if !bytes.Equal(run(1), run(4)) {
		t.Error("energy export differs between par 1 and par 4")
	}
}

// TestEnergyBatchFlat: the inline-instrumented batch path seals at the
// job's completion time and accounts every completed request.
func TestEnergyBatchFlat(t *testing.T) {
	cfg := Config{Server: platform.Desk()}
	p := batchProfile()
	p.JobRequests = 500
	sink := obs.NewSink()
	res, err := cfg.Simulate(workload.FixedGenerator{P: p}, SimOptions{
		Seed: 3, WarmupSec: 0, MeasureSec: 1, MaxClients: 16,
		Obs: sink, Energy: testEnergyConfig(0.5, power.DefaultIdleFractions()),
	})
	if err != nil {
		t.Fatal(err)
	}
	ws := res.Energy.Windows()
	if len(ws) == 0 {
		t.Fatal("no energy windows collected")
	}
	if last := ws[len(ws)-1]; last.T1 > res.ExecTime {
		t.Errorf("final window T1 %g past job completion %g", last.T1, res.ExecTime)
	}
	tot := res.Energy.Totals()
	if tot.Requests != int64(p.JobRequests) {
		t.Errorf("windows hold %d requests, job ran %d", tot.Requests, p.JobRequests)
	}
	if tot.Joules <= 0 || tot.JoulesPerRequest <= 0 {
		t.Errorf("batch totals %+v", tot)
	}
}

// TestEnergyRackBatch: the rack batch replay carries the energy plane
// to the discovered horizon.
func TestEnergyRackBatch(t *testing.T) {
	cfg := Config{Server: platform.Desk(), MemSlowdown: 0.05}
	p := batchProfile()
	p.JobRequests = 400
	sink := obs.NewSink()
	opt := rackOptions(sink)
	opt.Energy = testEnergyConfig(1, power.DefaultIdleFractions())
	res, err := cfg.Simulate(workload.FixedGenerator{P: p}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Energy == nil {
		t.Fatal("rack batch returned no energy collector")
	}
	tot := res.Energy.Totals()
	if tot.Requests != int64(p.JobRequests) {
		t.Errorf("energy accounts %d requests, job ran %d", tot.Requests, p.JobRequests)
	}
	if ws := res.Energy.Windows(); len(ws) == 0 || ws[len(ws)-1].T1 > res.ExecTime {
		t.Errorf("windows end past the job horizon %g", res.ExecTime)
	}
}

// TestEnergyNormalizeRejectsBadConfig: invalid energy configs surface
// from Normalize, before any simulation runs.
func TestEnergyNormalizeRejectsBadConfig(t *testing.T) {
	cfg := Config{Server: platform.Desk()}
	sink := obs.NewSink()
	bad := testEnergyConfig(0, power.DefaultIdleFractions()) // zero width
	_, err := cfg.Simulate(workload.FixedGenerator{P: testProfile()}, SimOptions{
		Seed: 1, WarmupSec: 1, MeasureSec: 2, MaxClients: 8, Obs: sink, Energy: bad,
	})
	if err == nil {
		t.Fatal("zero-width energy config accepted")
	}
}

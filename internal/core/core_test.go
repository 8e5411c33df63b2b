package core

import (
	"math"
	"sync"
	"testing"

	"warehousesim/internal/cluster"
	"warehousesim/internal/cooling"
	"warehousesim/internal/cost"
	"warehousesim/internal/flashcache"
	"warehousesim/internal/memblade"
	"warehousesim/internal/metrics"
	"warehousesim/internal/platform"
	"warehousesim/internal/stats"
	"warehousesim/internal/workload"
)

func TestBaselineDesignsResolveToCatalog(t *testing.T) {
	for _, d := range AllBaselines() {
		r, err := d.Resolve()
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		orig, _ := platform.ByName(d.Name)
		if r.Server.HardwarePriceUSD() != orig.HardwarePriceUSD() {
			t.Errorf("%s: baseline resolve changed price", d.Name)
		}
		if r.Server.MaxPowerW() != orig.MaxPowerW() {
			t.Errorf("%s: baseline resolve changed power", d.Name)
		}
		if r.Density != 40 {
			t.Errorf("%s: baseline density %d", d.Name, r.Density)
		}
	}
}

func TestDesignValidate(t *testing.T) {
	d := NewN1()
	d.Name = ""
	if d.Validate() == nil {
		t.Error("unnamed design accepted")
	}
	d = NewN2()
	d.Memory.RemoteDiscount = 1.5
	if d.Validate() == nil {
		t.Error("invalid memory scheme accepted")
	}
}

func TestN1Resolution(t *testing.T) {
	r, err := NewN1().Resolve()
	if err != nil {
		t.Fatal(err)
	}
	base := platform.Mobl()
	if r.Server.FanPowerW >= base.FanPowerW {
		t.Errorf("dual-entry fans (%gW) not below 1U fans (%gW)",
			r.Server.FanPowerW, base.FanPowerW)
	}
	if r.Density != 320 {
		t.Errorf("N1 density = %d, paper says 320 blades/rack", r.Density)
	}
	if r.CoolingEfficiency < 1.8 {
		t.Errorf("N1 cooling efficiency = %g", r.CoolingEfficiency)
	}
	// Memory and disk untouched.
	if r.Server.Memory != base.Memory || r.Server.Disk != base.Disk {
		t.Error("N1 changed memory or disk")
	}
}

func TestN2Resolution(t *testing.T) {
	r, err := NewN2().Resolve()
	if err != nil {
		t.Fatal(err)
	}
	base := platform.Emb1()
	if r.Server.Disk.Name != "laptop-san" || !r.Server.Disk.Remote {
		t.Errorf("N2 disk = %+v, want remote laptop", r.Server.Disk)
	}
	if r.Server.Flash == nil {
		t.Fatal("N2 lacks flash cache")
	}
	if r.Server.Memory.PriceUSD >= base.Memory.PriceUSD {
		t.Error("N2 memory sharing did not cut memory cost")
	}
	if r.Server.Memory.PowerW >= base.Memory.PowerW {
		t.Error("N2 memory sharing did not cut memory power")
	}
	if r.Density != 1250 {
		t.Errorf("N2 density = %d, paper says 1250 systems/rack", r.Density)
	}
	if r.Server.MaxPowerW() >= base.MaxPowerW() {
		t.Errorf("N2 power %gW not below emb1 %gW", r.Server.MaxPowerW(), base.MaxPowerW())
	}
}

func TestRackScalesWithDensity(t *testing.T) {
	r, err := NewN2().Resolve()
	if err != nil {
		t.Fatal(err)
	}
	// Per-server switch share stays constant when ports scale with
	// density.
	if math.Abs(r.Rack.SwitchPricePerServer()-2750.0/40) > 1e-9 {
		t.Errorf("switch share per server = %g", r.Rack.SwitchPricePerServer())
	}
	if r.Rack.ServersPerRack != 1250 {
		t.Errorf("rack holds %d", r.Rack.ServersPerRack)
	}
}

func TestStorageKindStrings(t *testing.T) {
	want := map[StorageKind]string{
		LocalDiskStorage:          "local-disk",
		RemoteLaptopStorage:       "remote-laptop",
		RemoteLaptopFlashStorage:  "remote-laptop+flash",
		RemoteLaptop2FlashStorage: "remote-laptop2+flash",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q", int(k), k.String())
		}
	}
}

func TestEvaluateProducesFullSuite(t *testing.T) {
	ev := NewEvaluator()
	tbl, err := ev.EvaluateSuite([]Design{BaselineDesign(platform.Srvr1()), NewN1(), NewN2()})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(tbl.Rows()); got != 3*5 {
		t.Fatalf("rows = %d, want 15", got)
	}
	for _, m := range tbl.Rows() {
		if m.Perf <= 0 || m.TCOUSD <= 0 || m.PowerW <= 0 {
			t.Errorf("degenerate measurement %+v", m)
		}
	}
}

// The headline result (§3.6 / abstract): N1 and N2 deliver large
// Perf/TCO-$ gains on ytube and mapreduce, with N2 ahead of N1, and a
// suite-level harmonic-mean improvement of roughly 1.5-2X.
func TestUnifiedDesignsBeatBaseline(t *testing.T) {
	ev := NewEvaluator()
	tbl, err := ev.EvaluateSuite([]Design{BaselineDesign(platform.Srvr1()), NewN1(), NewN2()})
	if err != nil {
		t.Fatal(err)
	}
	rel := tbl.Relative(metrics.PerfPerTCO, "srvr1")
	for _, w := range []string{"ytube", "mapred-wc", "mapred-wr"} {
		if rel[w]["N1"] < 1.5 {
			t.Errorf("%s: N1 Perf/TCO = %.2fx, expected >= 1.5x", w, rel[w]["N1"])
		}
		if rel[w]["N2"] < 2.5 {
			t.Errorf("%s: N2 Perf/TCO = %.2fx, expected >= 2.5x", w, rel[w]["N2"])
		}
		if rel[w]["N2"] <= rel[w]["N1"] {
			t.Errorf("%s: N2 (%.2fx) not ahead of N1 (%.2fx)", w, rel[w]["N2"], rel[w]["N1"])
		}
	}
	hm := tbl.HMeanRelative(metrics.PerfPerTCO, "srvr1")
	if hm["N1"] < 1.2 || hm["N1"] > 3 {
		t.Errorf("N1 suite hmean = %.2fx, paper ~1.5x", hm["N1"])
	}
	if hm["N2"] < 1.5 || hm["N2"] > 4 {
		t.Errorf("N2 suite hmean = %.2fx, paper ~2x", hm["N2"])
	}
	if hm["N2"] <= hm["N1"] {
		t.Errorf("N2 hmean (%.2f) not ahead of N1 (%.2f)", hm["N2"], hm["N1"])
	}
}

func TestEvaluateDeterministic(t *testing.T) {
	run := func() []metrics.Measurement {
		ev := NewEvaluator()
		ms, err := ev.Evaluate(NewN2(), workload.SuiteProfiles())
		if err != nil {
			t.Fatal(err)
		}
		return ms
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic evaluation at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestFlashHitRatesPlausible(t *testing.T) {
	ev := NewEvaluator()
	for _, p := range workload.SuiteProfiles() {
		hr, err := ev.flashHitRate(p)
		if err != nil {
			t.Fatal(err)
		}
		if hr < 0 || hr > 1 {
			t.Fatalf("%s: hit rate %g", p.Name, hr)
		}
	}
	// Cached: second call must not re-simulate (same value, fast).
	p := workload.WebsearchProfile()
	a, _ := ev.flashHitRate(p)
	b, _ := ev.flashHitRate(p)
	if a != b {
		t.Error("hit rate cache inconsistent")
	}
}

// directHitRate replays a fresh default flash cache warm-then-measure,
// the computation the hit-rate memo stands in for.
func directHitRate(t *testing.T, name string, seed uint64, requests int) float64 {
	t.Helper()
	ws, ok := flashcache.DiskWorkingSet(name)
	if !ok {
		t.Fatalf("no working set for %s", name)
	}
	sim, err := flashcache.New(flashcache.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(seed ^ 0xf1a5)
	flashcache.Replay(sim, ws, r, requests/2)
	warm := sim.Stats()
	st := flashcache.Replay(sim, ws, r, requests)
	return float64(st.ReadHits-warm.ReadHits) / float64(st.Reads-warm.Reads)
}

// Evaluators that differ in Seed or FlashReplayRequests must never
// share a memoized hit rate, including one evaluator whose Seed changes
// between calls.
func TestFlashHitRateMemoKey(t *testing.T) {
	p := workload.WebsearchProfile()
	ev := NewEvaluator()
	for _, c := range []struct {
		seed     uint64
		requests int
	}{{31, 300}, {32, 300}, {31, 600}, {32, 600}, {31, 300}} {
		ev.Seed, ev.FlashReplayRequests = c.seed, c.requests
		got, err := ev.flashHitRate(p)
		if err != nil {
			t.Fatal(err)
		}
		if want := directHitRate(t, p.Name, c.seed, c.requests); got != want {
			t.Errorf("seed %d, %d requests: memoized rate %v, direct replay %v", c.seed, c.requests, got, want)
		}
	}
	if _, err := ev.flashHitRate(workload.Profile{Name: "no-such-workload"}); err == nil {
		t.Error("unknown workload got a hit rate")
	}
}

// Evaluators are shared across experiment-cell workers; concurrent N2
// lowerings on one evaluator must agree and be race-free.
func TestClusterConfigConcurrent(t *testing.T) {
	ev := NewEvaluator()
	ev.Seed, ev.FlashReplayRequests = 41, 500
	p := workload.WebmailProfile()
	cfgs := make([]cluster.Config, 5)
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i := range cfgs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfgs[i], errs[i] = ev.ClusterConfig(NewN2(), p)
		}(i)
	}
	wg.Wait()
	for i := range cfgs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if cfgs[i].Storage != cfgs[0].Storage {
			t.Errorf("worker %d lowered storage %+v, worker 0 %+v", i, cfgs[i].Storage, cfgs[0].Storage)
		}
	}
}

func TestMemorySchemeFeedsSlowdown(t *testing.T) {
	ev := NewEvaluator()
	withMem := NewN2()
	noMem := NewN2()
	noMem.Name = "N2-nomem"
	noMem.Memory = nil

	p := []workload.Profile{workload.YtubeProfile()}
	a, err := ev.Evaluate(withMem, p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ev.Evaluate(noMem, p)
	if err != nil {
		t.Fatal(err)
	}
	// Memory sharing costs ~2% perf but cuts dollars; check both moved
	// in the expected directions.
	if a[0].Perf >= b[0].Perf {
		t.Errorf("memory slowdown did not reduce perf: %g vs %g", a[0].Perf, b[0].Perf)
	}
	if a[0].TCOUSD >= b[0].TCOUSD {
		t.Errorf("memory sharing did not cut TCO: %g vs %g", a[0].TCOUSD, b[0].TCOUSD)
	}
}

func TestResolveRejectsInvalidMemoryScheme(t *testing.T) {
	d := NewN2()
	bad := memblade.Scheme{Name: "bad", LocalFraction: 0, RemoteFraction: 1}
	d.Memory = &bad
	if _, err := d.Resolve(); err == nil {
		t.Error("invalid scheme resolved")
	}
}

func TestServerTCOConsistentWithCostModel(t *testing.T) {
	r, err := NewN1().Resolve()
	if err != nil {
		t.Fatal(err)
	}
	m := cost.DefaultModel()
	inf, pc, tot := r.ServerTCO(m)
	if math.Abs(inf+pc-tot) > 1e-9 || inf <= 0 || pc <= 0 {
		t.Errorf("TCO triple inconsistent: %g + %g != %g", inf, pc, tot)
	}
}

func TestRackFor(t *testing.T) {
	rack, err := RackFor(NewN1())
	if err != nil {
		t.Fatal(err)
	}
	if rack.ServersPerRack != 320 {
		t.Errorf("N1 rack = %d", rack.ServersPerRack)
	}
	if _, err := RackFor(Design{}); err == nil {
		t.Error("empty design accepted")
	}
}

func TestClusterConfigExposesStorage(t *testing.T) {
	ev := NewEvaluator()
	cfg, err := ev.ClusterConfig(NewN2(), workload.YtubeProfile())
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Storage == nil {
		t.Fatal("N2 cluster config lost its storage subsystem")
	}
	if cfg.MemSlowdown != NewN2().Memory.AssumedSlowdown {
		t.Errorf("memory slowdown not carried: %g", cfg.MemSlowdown)
	}
	// Baselines keep the local disk (nil storage override).
	cfg, err = ev.ClusterConfig(BaselineDesign(platform.Desk()), workload.YtubeProfile())
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Storage != nil {
		t.Error("baseline should use the local disk")
	}
	if _, err := ev.ClusterConfig(Design{}, workload.YtubeProfile()); err == nil {
		t.Error("invalid design accepted")
	}
}

func TestFlashSSDStorageResolution(t *testing.T) {
	d := BaselineDesign(platform.Emb1())
	d.Name = "emb1-ssd"
	d.Storage = FlashSSDStorage
	r, err := d.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if r.Server.Disk.Name != "flash-ssd" {
		t.Errorf("disk = %+v", r.Server.Disk)
	}
	ssd := platform.FlashSSD()
	if r.Server.Disk.PriceUSD != ssd.PriceUSD || r.Server.Disk.PowerW != ssd.PowerW {
		t.Error("SSD economics not carried into the BoM")
	}
	// Evaluation must route through the flash-only storage path and
	// boost the IO-bound benchmark.
	ev := NewEvaluator()
	tbl, err := ev.EvaluateSuite([]Design{BaselineDesign(platform.Emb1()), d})
	if err != nil {
		t.Fatal(err)
	}
	rel := tbl.Relative(metrics.Perf, "emb1")
	if rel["ytube"]["emb1-ssd"] < 1.5 {
		t.Errorf("SSD did not unbind ytube: %.2fx", rel["ytube"]["emb1-ssd"])
	}
	// And the BoM must be pricier than the desktop disk baseline.
	base, _ := tbl.Get("ytube", "emb1")
	withSSD, _ := tbl.Get("ytube", "emb1-ssd")
	if withSSD.InfUSD <= base.InfUSD {
		t.Error("SSD should raise infrastructure cost")
	}
}

func TestConventionalEnclosureKeepsCatalogFans(t *testing.T) {
	d := BaselineDesign(platform.Srvr1())
	d.Enclosure = cooling.Conventional
	r, err := d.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if r.Server.FanPowerW != platform.Srvr1().FanPowerW {
		t.Errorf("conventional resolve changed fan power to %g", r.Server.FanPowerW)
	}
}

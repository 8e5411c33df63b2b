package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"

	"warehousesim/internal/stats"
)

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"warehousesim/internal/des.(*Sim).Run":                       "des",
		"warehousesim/internal/des/shard.(*Engine).Run.func1":        "shard",
		"warehousesim/internal/obs/window.(*Tee).Gauge":              "window",
		"warehousesim/internal/obs/energy.(*Collector).SampleUtil":   "energy",
		"warehousesim/internal/obs/span.Analyze":                     "obs",
		"warehousesim/internal/obs.(*Sink).WriteJSONL":               "obs",
		"warehousesim/internal/workload/mapreduce.NewWrite":          "workload",
		"warehousesim/internal/core/cliflags.(*Sharding).Topology":   "core",
		"warehousesim/internal/stats.(*Zipf).Rank":                   "stats",
		"warehousesim/internal/platform.Desk":                        "other",
		"main.(*probe).fold":                                         "bench",
		"runtime.mallocgc":                                           "",
		"hash/crc32.Update":                                          "",
		"warehousesim/internal/flashcache.Replay":                    "flashcache",
		"warehousesim/internal/metrics.(*Table).HMeanRelative.func1": "metrics",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestAttributeCPU profiles an allocation-free loop that spends its
// time in stats and checks the decoder charges most of the CPU there.
func TestAttributeCPU(t *testing.T) {
	z, err := stats.NewZipf(20000, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(1)
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	sum := 0
	for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); {
		for i := 0; i < 1000; i++ {
			sum += z.Rank(r)
		}
	}
	pprof.StopCPUProfile()
	if sum == 0 {
		t.Fatal("Zipf.Rank returned only zeros")
	}
	mods, err := attributeCPU(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	// Samples with no repo frame (background runtime threads) go to
	// "runtime"; of the rest, the loop's stats frames must take nearly
	// all.
	var repo float64
	for m, v := range mods {
		if m != "runtime" {
			repo += v
		}
	}
	if repo == 0 {
		t.Skip("profile took no samples on repo code")
	}
	if mods["stats"] < 0.9*repo {
		t.Errorf("stats got %.2fs of %.2fs repo CPU: %v", mods["stats"], repo, mods)
	}
}

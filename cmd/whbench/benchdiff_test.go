package main

import (
	"os"
	"path/filepath"
	"testing"
)

func doc(recs ...benchRecord) benchDoc {
	return benchDoc{Schema: "warehousesim-bench/v1", Benchmarks: recs}
}

func rec(name string, ns float64, bytes, allocs int64) benchRecord {
	return benchRecord{Name: name, NsPerOp: ns, BytesPerOp: bytes, AllocsPerOp: allocs}
}

func regressions(lines []benchDiffLine) int {
	n := 0
	for _, l := range lines {
		if len(l.regressed) > 0 {
			n++
		}
	}
	return n
}

func TestDiffBenchDocsOK(t *testing.T) {
	oldDoc := doc(rec("a", 100, 1000, 10), rec("b", 50, 0, 0))
	newDoc := doc(rec("a", 105, 900, 8), rec("b", 54, 0, 0)) // ns within 10%, fewer allocs
	lines := diffBenchDocs(oldDoc, newDoc, 0.10, true)
	if got := regressions(lines); got != 0 {
		t.Fatalf("%d regressions, want 0: %+v", got, lines)
	}
}

func TestDiffBenchDocsNsTolerance(t *testing.T) {
	oldDoc := doc(rec("a", 100, 0, 0))
	if got := regressions(diffBenchDocs(oldDoc, doc(rec("a", 125, 0, 0)), 0.10, true)); got != 1 {
		t.Fatalf("ns/op +25%% past 10%% tolerance: %d regressions, want 1", got)
	}
	if got := regressions(diffBenchDocs(oldDoc, doc(rec("a", 125, 0, 0)), 0.30, true)); got != 0 {
		t.Fatalf("ns/op +25%% within 30%% tolerance: %d regressions, want 0", got)
	}
}

func TestDiffBenchDocsAllocRegression(t *testing.T) {
	oldDoc := doc(rec("a", 100, 1000, 100))
	// ns/op improved, but the per-op allocation figures grew past the
	// amortization slack (max of ~1.5% or a small floor) — regression
	// even on a faster run.
	lines := diffBenchDocs(oldDoc, doc(rec("a", 90, 1040, 100)), 0.10, true)
	if got := regressions(lines); got != 1 {
		t.Fatalf("B/op +40 past slack: %d regressions, want 1", got)
	}
	lines = diffBenchDocs(oldDoc, doc(rec("a", 90, 1000, 103)), 0.10, true)
	if got := regressions(lines); got != 1 {
		t.Fatalf("allocs/op +3 past slack: %d regressions, want 1", got)
	}
	// Within the slack: setup-cost amortization over a different b.N,
	// not a code change.
	lines = diffBenchDocs(oldDoc, doc(rec("a", 90, 1001, 101)), 0.10, true)
	if got := regressions(lines); got != 0 {
		t.Fatalf("B/op +1, allocs/op +1 within slack: %d regressions, want 0", got)
	}
}

func TestDiffBenchDocsCrossMachine(t *testing.T) {
	oldDoc := doc(rec("a", 100, 1000, 100))
	// ns/op doubled but gateNs is off (different recording machines):
	// reported, not a regression.
	if got := regressions(diffBenchDocs(oldDoc, doc(rec("a", 200, 1000, 100)), 0.10, false)); got != 0 {
		t.Fatalf("cross-machine ns/op: %d regressions, want 0", got)
	}
	// Allocation figures gate on any machine.
	if got := regressions(diffBenchDocs(oldDoc, doc(rec("a", 200, 2000, 100)), 0.10, false)); got != 1 {
		t.Fatalf("cross-machine B/op doubled: %d regressions, want 1", got)
	}
}

func TestSameMachine(t *testing.T) {
	fp := func(model string, cpus, maxprocs int) benchDoc {
		d := doc()
		d.CPUModel, d.CPUs, d.GOMAXPROCS = model, cpus, maxprocs
		return d
	}
	if !sameMachine(fp("cpu-x", 4, 4), fp("cpu-x", 4, 4)) {
		t.Fatal("matching fingerprints not recognized")
	}
	if sameMachine(fp("cpu-x", 4, 4), fp("cpu-y", 4, 4)) {
		t.Fatal("different models matched")
	}
	if sameMachine(fp("cpu-x", 4, 4), fp("cpu-x", 8, 4)) {
		t.Fatal("different cpu counts matched")
	}
	// Same hardware, different GOMAXPROCS: a GOMAXPROCS=1 record is
	// serial regardless of the CPU count, so the runs are not comparable.
	if sameMachine(fp("cpu-x", 4, 1), fp("cpu-x", 4, 4)) {
		t.Fatal("different GOMAXPROCS matched")
	}
	// Records that predate the gomaxprocs field (0) never match, even
	// against each other: comparability must be proven, not assumed.
	if sameMachine(fp("cpu-x", 4, 0), fp("cpu-x", 4, 0)) {
		t.Fatal("gomaxprocs-less records matched")
	}
	// Records without a fingerprint (pre-cpu_model schema, non-Linux)
	// never match either.
	if sameMachine(fp("", 4, 4), fp("", 4, 4)) {
		t.Fatal("fingerprintless records matched")
	}
}

func TestDiffBenchDocsMissingBenchmark(t *testing.T) {
	oldDoc := doc(rec("a", 100, 0, 0), rec("gone", 10, 0, 0))
	lines := diffBenchDocs(oldDoc, doc(rec("a", 100, 0, 0)), 0.10, true)
	if got := regressions(lines); got != 1 {
		t.Fatalf("disappeared benchmark: %d regressions, want 1", got)
	}
	for _, l := range lines {
		if l.name == "gone" && !l.missing {
			t.Fatal("disappeared benchmark not flagged missing")
		}
	}
	// A benchmark only in the new record is informational, not a diff line.
	lines = diffBenchDocs(oldDoc, doc(rec("a", 100, 0, 0), rec("gone", 10, 0, 0), rec("new", 1, 0, 0)), 0.10, true)
	if got := regressions(lines); got != 0 {
		t.Fatalf("new-only benchmark: %d regressions, want 0", got)
	}
}

func TestReadBenchDocValidatesSchema(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schema":"other/v2","benchmarks":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readBenchDoc(bad); err == nil {
		t.Fatal("wrong schema accepted")
	}
	if _, err := readBenchDoc(filepath.Join(dir, "absent.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestReadBenchDocLoadsOlderRecords: records that carry the retired
// parallel-efficiency blocks still load, so bench-diff can compare
// against them.
func TestReadBenchDocLoadsOlderRecords(t *testing.T) {
	d, err := readBenchDoc(filepath.Join("..", "..", "BENCH_5.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Benchmarks) == 0 {
		t.Fatal("BENCH_5.json loaded with no benchmarks")
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchDiffLine is one benchmark's old-vs-new comparison.
type benchDiffLine struct {
	name               string
	oldNs, newNs       float64
	oldBytes, newBytes int64
	oldAlloc, newAlloc int64
	missing            bool // present in old, absent in new
	regressed          []string
}

// readBenchDoc loads and validates a warehousesim-bench/v1 record.
func readBenchDoc(path string) (benchDoc, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return benchDoc{}, err
	}
	var doc benchDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		return benchDoc{}, fmt.Errorf("%s: %w", path, err)
	}
	if doc.Schema != "warehousesim-bench/v1" {
		return benchDoc{}, fmt.Errorf("%s: unexpected schema %q", path, doc.Schema)
	}
	return doc, nil
}

// relDelta returns (new-old)/old; 0 when old is 0.
func relDelta(oldV, newV float64) float64 {
	if oldV == 0 {
		return 0
	}
	return (newV - oldV) / oldV
}

// allocSlack is the amortization allowance for the per-op allocation
// figures. Steady-state allocations are deterministic for a fixed
// seed, but testing.B divides one-time setup cost (trial tables, sink
// arena chunks) by an iteration count it picks from machine speed — so
// two honest records of identical code can differ by a few bytes/op
// when their b.N differ. The slack covers that rounding (max of ~1.5%
// relative or a small absolute floor) while still catching any real
// per-iteration allocation: one extra heap object per op moves B/op by
// at least 16 bytes on every benchmark whose baseline is under ~1 KB,
// and by >1.5% on the rest.
func allocSlack(oldV, floor int64) int64 {
	if s := oldV / 64; s > floor {
		return s
	}
	return floor
}

// sameMachine reports whether both records carry the same machine
// fingerprint: CPU model, CPU count, and GOMAXPROCS. Records that
// predate any fingerprint component (or come from a platform without
// one) never match: ns/op comparability cannot be assumed, so it must
// be proven by matching fingerprints.
func sameMachine(oldDoc, newDoc benchDoc) bool {
	return oldDoc.CPUModel != "" && oldDoc.CPUModel == newDoc.CPUModel &&
		oldDoc.CPUs == newDoc.CPUs &&
		oldDoc.GOMAXPROCS != 0 && oldDoc.GOMAXPROCS == newDoc.GOMAXPROCS
}

// fingerprint renders a record's machine identity for messages.
func fingerprint(d benchDoc) string {
	return fmt.Sprintf("%q cpus=%d gomaxprocs=%d", d.CPUModel, d.CPUs, d.GOMAXPROCS)
}

// diffBenchDocs compares the two records benchmark by benchmark.
// B/op and allocs/op are deterministic up to setup-cost amortization
// (see allocSlack), so any increase past the slack is a regression on
// any machine. ns/op only regresses beyond nsTolerance (a fraction,
// e.g. 0.10 = +10%), and only when gateNs is set — identical code
// measures tens of percent apart across CPU generations, so callers
// pass gateNs = sameMachine(old, new) and a cross-machine ns/op delta
// is reported without failing the gate.
// Benchmarks present only in the new record are informational;
// benchmarks that disappeared are regressions (a silently dropped
// benchmark hides whatever it guarded).
func diffBenchDocs(oldDoc, newDoc benchDoc, nsTolerance float64, gateNs bool) []benchDiffLine {
	newByName := map[string]benchRecord{}
	for _, r := range newDoc.Benchmarks {
		newByName[r.Name] = r
	}
	var out []benchDiffLine
	for _, o := range oldDoc.Benchmarks {
		n, ok := newByName[o.Name]
		if !ok {
			out = append(out, benchDiffLine{name: o.Name, missing: true,
				regressed: []string{"benchmark disappeared"}})
			continue
		}
		l := benchDiffLine{
			name:  o.Name,
			oldNs: o.NsPerOp, newNs: n.NsPerOp,
			oldBytes: o.BytesPerOp, newBytes: n.BytesPerOp,
			oldAlloc: o.AllocsPerOp, newAlloc: n.AllocsPerOp,
		}
		if d := relDelta(o.NsPerOp, n.NsPerOp); d > nsTolerance && gateNs {
			l.regressed = append(l.regressed, fmt.Sprintf("ns/op +%.1f%% (tolerance %.0f%%)", d*100, nsTolerance*100))
		}
		if n.BytesPerOp > o.BytesPerOp+allocSlack(o.BytesPerOp, 32) {
			l.regressed = append(l.regressed, fmt.Sprintf("B/op %d -> %d", o.BytesPerOp, n.BytesPerOp))
		}
		if n.AllocsPerOp > o.AllocsPerOp+allocSlack(o.AllocsPerOp, 1) {
			l.regressed = append(l.regressed, fmt.Sprintf("allocs/op %d -> %d", o.AllocsPerOp, n.AllocsPerOp))
		}
		out = append(out, l)
	}
	return out
}

// runBenchDiff prints the comparison table and returns an error when
// any benchmark regressed — so `whbench -bench-diff old.json new.json`
// exits non-zero and CI can gate on it.
func runBenchDiff(oldPath, newPath string, nsTolerance float64) error {
	oldDoc, err := readBenchDoc(oldPath)
	if err != nil {
		return err
	}
	newDoc, err := readBenchDoc(newPath)
	if err != nil {
		return err
	}
	gateNs := sameMachine(oldDoc, newDoc)
	lines := diffBenchDocs(oldDoc, newDoc, nsTolerance, gateNs)

	fmt.Printf("bench-diff %s (%s) -> %s (%s)\n", oldPath, oldDoc.GitRev, newPath, newDoc.GitRev)
	if !gateNs {
		fmt.Printf("records come from different machines (fingerprints %s vs %s): ns/op reported but not gated\n",
			fingerprint(oldDoc), fingerprint(newDoc))
	}
	fmt.Printf("%-22s %14s %14s %12s %12s\n", "benchmark", "ns/op Δ", "B/op Δ", "allocs/op Δ", "verdict")
	bad := 0
	for _, l := range lines {
		if l.missing {
			fmt.Printf("%-22s %14s %14s %12s %12s\n", l.name, "-", "-", "-", "MISSING")
			bad++
			continue
		}
		verdict := "ok"
		if len(l.regressed) > 0 {
			verdict = "REGRESSED"
			bad++
		}
		fmt.Printf("%-22s %+13.1f%% %+13.1f%% %+11.1f%% %12s\n",
			l.name,
			relDelta(l.oldNs, l.newNs)*100,
			relDelta(float64(l.oldBytes), float64(l.newBytes))*100,
			relDelta(float64(l.oldAlloc), float64(l.newAlloc))*100,
			verdict)
		for _, r := range l.regressed {
			fmt.Printf("    %s\n", r)
		}
	}
	if bad > 0 {
		return fmt.Errorf("bench-diff: %d of %d benchmarks regressed", bad, len(lines))
	}
	if gateNs {
		fmt.Printf("no regressions (%d benchmarks, ns/op tolerance %.0f%%)\n", len(lines), nsTolerance*100)
	} else {
		fmt.Printf("no regressions (%d benchmarks, allocation figures only)\n", len(lines))
	}
	return nil
}

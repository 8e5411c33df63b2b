// Command perfbench runs one job of the warehousesim benchmark in this
// process and prints one JSON record of it on stdout: host wall and CPU
// time, peak memory, the calls it attempted and how many failed, and a
// digest of every simulated output. Every job runs in a fresh process,
// so each pays the set-up cost a whbench or whsim user pays.
//
//	perfbench -workload rack -seed 1            # one untraced job
//	perfbench -workload rack -seed 1 -trace     # spans, CPU profile, diagnostics
//	perfbench -workload rack -setup-only        # stop where the timed section starts
//
// run.py, next to this file, builds it, runs jobs for a set time and
// reports the benchmark's metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"
)

// record is what one job reports.
type record struct {
	Workload    string             `json:"workload"`
	Seed        uint64             `json:"seed"`
	Params      map[string]string  `json:"params"`
	Env         map[string]any     `json:"env"`
	TimedStart  int64              `json:"timed_start_unix_ns"`
	WallSec     float64            `json:"wall_s"`
	CPUSec      float64            `json:"cpu_s"`
	PeakRSSMB   float64            `json:"peak_rss_mb"`
	AllocMB     float64            `json:"alloc_mb"`
	GCCycles    uint32             `json:"gc_cycles"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Failures    []string           `json:"failures,omitempty"`
	Digest      string             `json:"digest"`
	PaperErrPct *float64           `json:"paper_err_pct,omitempty"`
	PaperCells  int                `json:"paper_cells,omitempty"`
	Counters    map[string]float64 `json:"counters"`
	SpanSeconds map[string]float64 `json:"span_s,omitempty"`
	ModuleCPU   map[string]float64 `json:"module_cpu_s,omitempty"`
	Spans       []spanRec          `json:"spans,omitempty"`
}

func main() {
	name := flag.String("workload", "", "workload to run: paper-tco, paper-memory, rack or fleet-obs")
	seed := flag.Uint64("seed", 1, "benchmark seed (1 reproduces the paper experiments' own seeds)")
	tracing := flag.Bool("trace", false, "record spans, a CPU profile and engine diagnostics")
	setupOnly := flag.Bool("setup-only", false, "exit where the timed section would start")
	runID := flag.String("run-id", "", "identifier stamped on every span")
	flag.Parse()

	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	start := time.Now()
	rec := record{Workload: w.name, Seed: *seed, TimedStart: start.UnixNano()}
	if *setupOnly {
		emit(rec)
		return
	}

	p := newProbe(*tracing, *runID)
	alloc0, gc0 := runtimeTotals()
	cpu0 := processCPUSec()
	var prof bytes.Buffer
	if *tracing {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	end := p.begin("job/"+w.name, "")
	out := w.run(p, *seed)
	end()
	rec.WallSec = time.Since(start).Seconds()
	rec.CPUSec = processCPUSec() - cpu0
	if *tracing {
		pprof.StopCPUProfile()
	}
	alloc1, gc1 := runtimeTotals()
	rec.AllocMB = alloc1 - alloc0
	rec.GCCycles = gc1 - gc0
	rec.PeakRSSMB = peakRSSMB()

	rec.Params = w.params
	rec.Env = map[string]any{
		"go_version": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
	}
	rec.Attempted, rec.Failed, rec.Failures = p.attempted, p.failed, p.failures
	rec.Digest = p.digestHex()
	if out.paperCells > 0 {
		rec.PaperErrPct, rec.PaperCells = &out.paperErr, out.paperCells
	}
	rec.Counters = p.counters
	if *tracing {
		p.finishSpans()
		rec.Spans = p.spans
		rec.SpanSeconds = p.groupSeconds()
		mods, err := attributeCPU(prof.Bytes())
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		rec.ModuleCPU = mods
	}
	emit(rec)
}

func emit(rec record) {
	b, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", b)
}

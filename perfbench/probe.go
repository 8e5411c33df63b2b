package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// spanRec is one traced public call: host start and end, the span that
// enclosed it, and the job run it belongs to. Group names the per-layer
// metric the span's duration adds to (e.g. "core.evaluate_suite_s").
type spanRec struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // -1 for the job's root span
	RunID   string  `json:"run_id"`
	Name    string  `json:"name"`
	Group   string  `json:"group"`
	StartNs int64   `json:"start_unix_ns"`
	EndNs   int64   `json:"end_unix_ns"`
	CPUSec  float64 `json:"cpu_s"`
	SelfSec float64 `json:"self_s"`
}

func (s spanRec) durSec() float64 { return float64(s.EndNs-s.StartNs) / 1e9 }

// probe is the benchmark's own bookkeeping for one job: the calls it
// attempted and how many failed, the digest of every simulated output,
// the counts taken at its call sites, and — when tracing — one span per
// public call, kept in memory until the job ends.
type probe struct {
	tracing   bool
	runID     string
	attempted int
	failed    int
	failures  []string
	counters  map[string]float64
	digest    hash.Hash
	spans     []spanRec
	stack     []int
}

func newProbe(tracing bool, runID string) *probe {
	return &probe{
		tracing:  tracing,
		runID:    runID,
		counters: map[string]float64{},
		digest:   sha256.New(),
	}
}

// begin opens a span (a no-op when tracing is off) and returns the
// function that closes it.
func (p *probe) begin(name, group string) func() {
	if !p.tracing {
		return func() {}
	}
	parent := -1
	if n := len(p.stack); n > 0 {
		parent = p.stack[n-1]
	}
	id := len(p.spans)
	p.spans = append(p.spans, spanRec{
		ID: id, Parent: parent, RunID: p.runID, Name: name, Group: group,
		StartNs: time.Now().UnixNano(),
	})
	p.stack = append(p.stack, id)
	cpu0 := processCPUSec()
	return func() {
		s := &p.spans[id]
		s.EndNs = time.Now().UnixNano()
		s.CPUSec = processCPUSec() - cpu0
		p.stack = p.stack[:len(p.stack)-1]
	}
}

// call runs one top-level public call of the program, together with
// the checks on its output, inside a span. The call counts as attempted;
// an error — returned by the program or by a failed output check —
// counts it as failed.
func (p *probe) call(name, group string, fn func() error) {
	p.attempted++
	end := p.begin(name, group)
	err := fn()
	end()
	if err != nil {
		p.failed++
		p.failures = append(p.failures, fmt.Sprintf("%s: %v", name, err))
	}
}

// fold writes one labelled output value into the job's digest. Floats
// go in bit-exact, so the digest changes whenever any output does.
func (p *probe) fold(label string, vals ...any) {
	fmt.Fprintf(p.digest, "%s", label)
	for _, v := range vals {
		switch x := v.(type) {
		case float64:
			fmt.Fprintf(p.digest, " %x", math.Float64bits(x))
		default:
			fmt.Fprintf(p.digest, " %v", x)
		}
	}
	fmt.Fprintln(p.digest)
}

func (p *probe) digestHex() string { return hex.EncodeToString(p.digest.Sum(nil)) }

// finishSpans derives each span's self time: its duration minus the
// durations of its direct children.
func (p *probe) finishSpans() {
	child := make([]float64, len(p.spans))
	for _, s := range p.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.durSec()
		}
	}
	for i := range p.spans {
		p.spans[i].SelfSec = p.spans[i].durSec() - child[i]
	}
}

// groupSeconds sums span durations per group.
func (p *probe) groupSeconds() map[string]float64 {
	out := map[string]float64{}
	for _, s := range p.spans {
		if s.Group != "" {
			out[s.Group] += s.durSec()
		}
	}
	return out
}

// positive reports an error unless every value is finite and > 0.
func positive(what string, vals ...float64) error {
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			return fmt.Errorf("%s = %g, want a finite positive value", what, v)
		}
	}
	return nil
}

// processCPUSec is the user+system CPU time of this process so far.
func processCPUSec() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSec(ru.Utime) + tvSec(ru.Stime)
}

// peakRSSMB is the process's peak resident set size in MB: VmHWM from
// /proc/self/status. ru_maxrss is no good here, because Linux carries
// the parent's peak across fork and exec into it.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0
			}
			return kib * 1024 / 1e6
		}
	}
	return 0
}

func tvSec(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// runtimeTotals reads the cumulative allocation volume and GC count.
func runtimeTotals() (allocMB float64, gcCycles uint32) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / 1e6, ms.NumGC
}

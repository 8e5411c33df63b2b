// Package window provides virtual-time windowed SLO metrics: fixed
// width tumbling windows over simulated time, each holding a
// log-bucketed latency histogram (p50/p95/p99), request and QoS
// violation counts, per-resource-class utilization, and named ratio
// tracks (remote-memory / flash hit rates), plus a QoS episode
// detector that reduces consecutive violating windows to begin/end
// events with duration and peak excess.
//
// Windows are tumbling, not sliding, on purpose: a tumbling window at
// index floor(t/width) is a pure function of the observation time, so
// two partitions of the same run assign every observation to the same
// window — merging per-partition collectors (MergeFrom, in fixed part
// order, exactly like obs.Sink.MergeFrom) reproduces the single
// collector byte for byte at any parallelism count. A sliding
// window's contents depend on when it is evaluated, which is a
// wall-clock notion the deterministic export must not see.
//
// Like package obs, this package is stdlib-only so any simulator layer
// can feed a Collector without import cycles; the latency histograms
// reuse obs.Hist, whose fixed bucket layout makes window merges exact.
package window

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"warehousesim/internal/obs"
)

// Config sizes a Collector.
type Config struct {
	// WidthSec is the tumbling window width in simulated seconds (> 0).
	WidthSec float64
	// QoSLatencySec is the latency bound the episode detector checks the
	// QoSPercentile against; 0 disables episode detection (windows are
	// still collected).
	QoSLatencySec float64
	// QoSPercentile is the quantile compared against QoSLatencySec,
	// e.g. 0.95. Must be in (0,1) when QoSLatencySec > 0.
	QoSPercentile float64
}

func (c Config) validate() error {
	if !(c.WidthSec > 0) || math.IsInf(c.WidthSec, 0) {
		return fmt.Errorf("window: width must be positive and finite, got %g", c.WidthSec)
	}
	if c.QoSLatencySec < 0 {
		return fmt.Errorf("window: negative QoS bound %g", c.QoSLatencySec)
	}
	if c.QoSLatencySec > 0 && (c.QoSPercentile <= 0 || c.QoSPercentile >= 1) {
		return fmt.Errorf("window: QoS percentile %g outside (0,1)", c.QoSPercentile)
	}
	return nil
}

// win is one tumbling window's accumulators. Latency lives in an exact
// mergeable histogram; utilization and tracks keep (sum, count) pairs
// so merged means are sums-of-sums — order-independent up to the fixed
// part fold order.
type win struct {
	index      int64
	lat        obs.Hist
	requests   int64
	violations int64
	utilSum    map[string]float64
	utilN      map[string]int64
	trackSum   map[string]float64
	trackN     map[string]int64
}

func newWin(index int64) *win {
	return &win{index: index}
}

func (w *win) mergeFrom(o *win) {
	w.lat.Merge(&o.lat)
	w.requests += o.requests
	w.violations += o.violations
	for k, v := range o.utilSum {
		if w.utilSum == nil {
			w.utilSum, w.utilN = map[string]float64{}, map[string]int64{}
		}
		w.utilSum[k] += v
		w.utilN[k] += o.utilN[k]
	}
	for k, v := range o.trackSum {
		if w.trackSum == nil {
			w.trackSum, w.trackN = map[string]float64{}, map[string]int64{}
		}
		w.trackSum[k] += v
		w.trackN[k] += o.trackN[k]
	}
}

// Summary is the exported view of one sealed window. T1 is clamped to
// the seal horizon, so the final partial window reports its true span.
type Summary struct {
	Index      int64   `json:"i"`
	T0         float64 `json:"t0"`
	T1         float64 `json:"t1"`
	Requests   int64   `json:"requests"`
	Violations int64   `json:"violations"`
	// Throughput is Requests over the window's actual span.
	Throughput float64 `json:"throughput"`
	P50        float64 `json:"p50"`
	P95        float64 `json:"p95"`
	P99        float64 `json:"p99"`
	// QLat is the latency at the configured QoS percentile; Violating
	// reports QLat > QoSLatencySec (always false without a bound or
	// without requests).
	QLat      float64            `json:"qos_latency"`
	Violating bool               `json:"violating"`
	Util      map[string]float64 `json:"util,omitempty"`
	Tracks    map[string]float64 `json:"tracks,omitempty"`
}

func (c *Collector) summarize(w *win) Summary {
	width := c.cfg.WidthSec
	t0 := float64(w.index) * width
	t1 := t0 + width
	if c.horizon > 0 && t1 > c.horizon {
		t1 = c.horizon
	}
	s := Summary{
		Index: w.index, T0: t0, T1: t1,
		Requests: w.requests, Violations: w.violations,
		P50: w.lat.Quantile(0.50), P95: w.lat.Quantile(0.95), P99: w.lat.Quantile(0.99),
	}
	if span := t1 - t0; span > 0 {
		s.Throughput = float64(w.requests) / span
	}
	if c.cfg.QoSLatencySec > 0 {
		s.QLat = w.lat.Quantile(c.cfg.QoSPercentile)
		s.Violating = w.requests > 0 && s.QLat > c.cfg.QoSLatencySec
	}
	if len(w.utilSum) > 0 {
		s.Util = make(map[string]float64, len(w.utilSum))
		for k, sum := range w.utilSum {
			s.Util[k] = sum / float64(w.utilN[k])
		}
	}
	if len(w.trackSum) > 0 {
		s.Tracks = make(map[string]float64, len(w.trackSum))
		for k, sum := range w.trackSum {
			s.Tracks[k] = sum / float64(w.trackN[k])
		}
	}
	return s
}

// Collector accumulates one partition's windowed metrics. It is
// single-threaded like obs.Sink — owned by the goroutine running the
// simulation that feeds it — except for LiveSummaries, which readers on
// other goroutines may call concurrently with the owner (sealed-window
// summaries are published through an atomic copy-on-write slice).
type Collector struct {
	cfg     Config
	cur     *win
	sealed  []*win
	horizon float64 // set by Seal; clamps the last window's T1

	live atomic.Pointer[[]Summary]
}

// New builds a Collector; the config is validated (positive width, QoS
// percentile in (0,1) when a bound is set).
func New(cfg Config) (*Collector, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Collector{cfg: cfg}, nil
}

// Config returns the collector's configuration.
func (c *Collector) Config() Config { return c.cfg }

// at returns the open window for time t, sealing the previous one when
// t crosses a window boundary. Observation times must be nondecreasing
// (true for anything recorded on a simulated clock); a stale time is
// clamped into the open window rather than reopening a sealed one.
func (c *Collector) at(t float64) *win {
	idx := int64(math.Floor(t / c.cfg.WidthSec))
	if c.cur == nil {
		c.cur = newWin(idx)
		return c.cur
	}
	if idx <= c.cur.index {
		return c.cur
	}
	c.seal()
	c.cur = newWin(idx)
	return c.cur
}

// seal moves the open window to the sealed list and publishes its
// summary to the live view.
func (c *Collector) seal() {
	if c.cur == nil {
		return
	}
	c.sealed = append(c.sealed, c.cur)
	old := c.live.Load()
	var next []Summary
	if old != nil {
		next = append(next, *old...)
	}
	next = append(next, c.summarize(c.cur))
	c.live.Store(&next)
	c.cur = nil
}

// ObserveLatency records one completed request at simulated time t.
func (c *Collector) ObserveLatency(t, latencySec float64, violation bool) {
	w := c.at(t)
	w.lat.Add(latencySec)
	w.requests++
	if violation {
		w.violations++
	}
}

// SampleUtil records one utilization sample for a resource class
// ("cpu", "net", ...); the window reports the mean of its samples.
func (c *Collector) SampleUtil(class string, t, util float64) {
	w := c.at(t)
	if w.utilSum == nil {
		w.utilSum, w.utilN = map[string]float64{}, map[string]int64{}
	}
	w.utilSum[class] += util
	w.utilN[class]++
}

// Track records one sample of a named ratio track (e.g. a remote
// memory or flash-cache hit rate); the window reports the mean.
func (c *Collector) Track(name string, t, v float64) {
	w := c.at(t)
	if w.trackSum == nil {
		w.trackSum, w.trackN = map[string]float64{}, map[string]int64{}
	}
	w.trackSum[name] += v
	w.trackN[name]++
}

// Seal closes the open window at the end of a run. horizon, when > 0,
// clamps the final window's T1 (and the episode end times) to the
// run's actual end, so a partial last window reports its true span.
// Safe to call with no open window; further observations after Seal
// reopen accumulation (not expected in normal use).
func (c *Collector) Seal(horizon float64) {
	if horizon > 0 && (c.horizon == 0 || horizon < c.horizon) {
		c.horizon = horizon
	}
	c.seal()
}

// Windows returns the sealed windows' summaries in index order.
func (c *Collector) Windows() []Summary {
	out := make([]Summary, len(c.sealed))
	for i, w := range c.sealed {
		out[i] = c.summarize(w)
	}
	return out
}

// LiveSummaries returns the sealed windows' summaries as of the last
// seal. Unlike every other method it is safe to call concurrently with
// the owning goroutine — the live-introspection reader's entry point.
func (c *Collector) LiveSummaries() []Summary {
	if p := c.live.Load(); p != nil {
		return *p
	}
	return nil
}

// MergeFrom folds the parts' sealed windows into c, index-aligned, in
// argument order. The part order must be fixed by the model (enclosure
// order), never by the partitioning — the same discipline as
// obs.Sink.MergeFrom — so the merged collector is byte-identical
// however the parts were produced. Parts must share c's config and
// must be sealed;
// merging a collector into itself panics.
func (c *Collector) MergeFrom(parts ...*Collector) {
	for _, p := range parts {
		if p == c {
			panic("window: Collector.MergeFrom cannot merge a collector into itself")
		}
		if p.cfg != c.cfg {
			panic(fmt.Sprintf("window: MergeFrom config mismatch: %+v vs %+v", p.cfg, c.cfg))
		}
		if p.cur != nil {
			panic("window: MergeFrom of an unsealed collector; call Seal first")
		}
		if p.horizon > 0 && (c.horizon == 0 || p.horizon < c.horizon) {
			c.horizon = p.horizon
		}
	}
	byIndex := map[int64]*win{}
	for _, w := range c.sealed {
		byIndex[w.index] = w
	}
	for _, p := range parts {
		for _, pw := range p.sealed {
			w := byIndex[pw.index]
			if w == nil {
				w = newWin(pw.index)
				byIndex[pw.index] = w
			}
			w.mergeFrom(pw)
		}
	}
	indices := make([]int64, 0, len(byIndex))
	for i := range byIndex {
		indices = append(indices, i)
	}
	sort.Slice(indices, func(a, b int) bool { return indices[a] < indices[b] })
	c.sealed = c.sealed[:0]
	for _, i := range indices {
		c.sealed = append(c.sealed, byIndex[i])
	}
	var summaries []Summary
	for _, w := range c.sealed {
		summaries = append(summaries, c.summarize(w))
	}
	c.live.Store(&summaries)
}

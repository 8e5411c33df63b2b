// Package energy provides time-resolved power and energy telemetry
// over simulated time: tumbling windows (index = floor(t/width), the
// same partition-independent binning as internal/obs/window) that
// accumulate per-resource-class utilization and completed-request
// counts, from which each window derives watts via a utilization-
// conditioned idle/active split layered on the static power model
// (power.Breakdown.At), integrates to joules, and reports
// energy-per-request, energy-per-QoS-satisfied-request and windowed
// perf-per-watt. Across windows the collector exposes an
// energy-proportionality curve — (utilization, watts) points and their
// least-squares slope — the time-resolved comparison the paper's
// static activity-factor model (internal/power) cannot make.
//
// The static model is the degenerate case: with every idle fraction at
// 1.0 the utilization term vanishes and each window's watts reproduce
// power.Breakdown.TotalW() bit-exactly, which the tests pin.
//
// Determinism follows the window package's discipline exactly: windows
// are pure functions of observation time, per-partition collectors
// merge in a fixed model order (MergeFrom), means are sums-of-sums,
// and every exported map marshals with sorted keys — so the -energy-out
// export is byte-identical at any parallelism count.
package energy

import (
	"fmt"
	"math"
	"sort"

	"warehousesim/internal/obs"
	"warehousesim/internal/obs/live"
	"warehousesim/internal/power"
)

// Model is the utilization-conditioned power model of one run: the
// static per-server active breakdown (spec-sheet maxima scaled by the
// activity factor — exactly what power.Model.ServerConsumed returns)
// and the idle fraction per component class.
type Model struct {
	// Active is the per-server active-power breakdown, including the
	// rack-switch share.
	Active power.Breakdown
	// Idle is the idle/active split per component class;
	// power.StaticIdleFractions() (all 1.0) degenerates to the static
	// model.
	Idle power.IdleFractions
}

// Validate reports invalid models.
func (m Model) Validate() error {
	if err := m.Idle.Validate(); err != nil {
		return err
	}
	if w := m.Active.TotalW(); math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
		return fmt.Errorf("energy: invalid active power %g W", w)
	}
	return nil
}

// driverUtil returns the first present class's utilization, clamped to
// [0,1]; a component whose drivers were never observed draws idle power.
func driverUtil(util map[string]float64, classes ...string) float64 {
	for _, c := range classes {
		if v, ok := util[c]; ok {
			if v < 0 {
				return 0
			}
			if v > 1 {
				return 1
			}
			return v
		}
	}
	return 0
}

// WattsAt maps the observed per-resource-class utilizations (the
// classes the simulators' "util.<resource>" gauges produce: cpu, disk,
// net, san, memblade) onto the power model's component classes and
// returns the utilization-conditioned breakdown. The driver mapping is
// fixed and documented in DESIGN.md §10: each component interpolates on
// the utilization of the resource whose activity physically drives it,
// with rack-model names (san, memblade) preferred over their flat-model
// stand-ins when present.
func (m Model) WattsAt(util map[string]float64) power.Breakdown {
	return m.Active.At(m.Idle, power.Utilizations{
		CPU:    driverUtil(util, "cpu"),
		Memory: driverUtil(util, "memblade", "cpu"), // DRAM traffic tracks cores; blade when modeled
		Disk:   driverUtil(util, "disk", "san"),
		Board:  driverUtil(util, "net", "cpu"), // chipset+NIC electronics track I/O
		Fan:    driverUtil(util, "cpu"),        // fan speed tracks thermal (≈ core) load
		Flash:  driverUtil(util, "disk", "san"),
		Switch: driverUtil(util, "net"),
	})
}

// Config sizes a Collector.
type Config struct {
	// WidthSec is the tumbling window width in simulated seconds (> 0).
	WidthSec float64
	// Model derives watts from each window's utilization.
	Model Model
}

func (c Config) validate() error {
	if !(c.WidthSec > 0) || math.IsInf(c.WidthSec, 0) {
		return fmt.Errorf("energy: width must be positive and finite, got %g", c.WidthSec)
	}
	return c.Model.Validate()
}

// win is one tumbling window's accumulators: request/violation counts
// and (sum, count) utilization pairs per observed resource class, so
// merged means are sums-of-sums.
type win struct {
	index      int64
	requests   int64
	violations int64
	utilSum    map[string]float64
	utilN      map[string]int64
}

func (w *win) mergeFrom(o *win) {
	w.requests += o.requests
	w.violations += o.violations
	for k, v := range o.utilSum {
		if w.utilSum == nil {
			w.utilSum, w.utilN = map[string]float64{}, map[string]int64{}
		}
		w.utilSum[k] += v
		w.utilN[k] += o.utilN[k]
	}
}

// Window is the exported view of one sealed window: mean utilization
// per observed class, the derived power draw per component class and
// in total, the integrated joules, and the derived energy-efficiency
// tracks. T1 is clamped to the seal horizon, so the final partial
// window reports its true span.
type Window struct {
	Index    int64   `json:"i"`
	T0       float64 `json:"t0"`
	T1       float64 `json:"t1"`
	Requests int64   `json:"requests"`
	// Violations counts QoS-violating completions; Requests-Violations
	// is the QoS-satisfied ("good") request count.
	Violations int64 `json:"violations"`
	// Util is the mean utilization per observed resource class.
	Util map[string]float64 `json:"util,omitempty"`
	// WattsByClass is the derived draw per power-model component class.
	WattsByClass map[string]float64 `json:"watts_by_class"`
	// Watts is the total derived draw; Joules integrates it over the
	// window's span.
	Watts  float64 `json:"watts"`
	Joules float64 `json:"joules"`
	// JoulesPerRequest and JoulesPerGoodRequest are 0 when the window
	// completed no (good) requests.
	JoulesPerRequest     float64 `json:"joules_per_request"`
	JoulesPerGoodRequest float64 `json:"joules_per_good_request"`
	// PerfPerWatt is the window's throughput over its watts.
	PerfPerWatt float64 `json:"perf_per_watt"`
}

// CurvePoint is one point of the energy-proportionality curve: the
// window's driving (cpu-class) utilization and its derived total watts.
type CurvePoint struct {
	Util  float64 `json:"util"`
	Watts float64 `json:"watts"`
}

// Proportionality summarizes the energy-proportionality curve: the
// least-squares fit of watts against cpu utilization across windows. A
// perfectly proportional server has InterceptW 0; the static model has
// SlopeWPerUtil 0 (watts never move).
type Proportionality struct {
	Points        int     `json:"points"`
	SlopeWPerUtil float64 `json:"slope_w_per_util"`
	InterceptW    float64 `json:"intercept_w"`
	MinWatts      float64 `json:"min_watts"`
	MaxWatts      float64 `json:"max_watts"`
}

// Totals aggregates the sealed windows to run level.
type Totals struct {
	Windows  int     `json:"windows"`
	SpanSec  float64 `json:"span_sec"`
	Joules   float64 `json:"joules"`
	MeanW    float64 `json:"mean_watts"`
	StaticW  float64 `json:"static_watts"`
	Requests int64   `json:"requests"`
	// Violations counts QoS-violating completions over the run.
	Violations           int64   `json:"violations"`
	JoulesPerRequest     float64 `json:"joules_per_request"`
	JoulesPerGoodRequest float64 `json:"joules_per_good_request"`
	PerfPerWatt          float64 `json:"perf_per_watt"`
}

// Collector accumulates one partition's energy telemetry. Like
// window.Collector it is single-threaded — owned by the goroutine
// running the simulation that feeds it — except LiveWindows, which readers
// may call concurrently (sealed summaries publish through a live.View).
type Collector struct {
	cfg     Config
	cur     *win
	sealed  []*win
	horizon float64
	live    live.View[Window]
}

// New builds a Collector with a validated config.
func New(cfg Config) (*Collector, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Collector{cfg: cfg}, nil
}

// Config returns the collector's configuration.
func (c *Collector) Config() Config { return c.cfg }

// at returns the open window for time t, sealing the previous one when
// t crosses a boundary; stale times clamp into the open window.
func (c *Collector) at(t float64) *win {
	idx := int64(math.Floor(t / c.cfg.WidthSec))
	if c.cur == nil {
		c.cur = &win{index: idx}
		return c.cur
	}
	if idx <= c.cur.index {
		return c.cur
	}
	c.seal()
	c.cur = &win{index: idx}
	return c.cur
}

func (c *Collector) seal() {
	if c.cur == nil {
		return
	}
	c.sealed = append(c.sealed, c.cur)
	c.live.Append(c.summarize(c.cur))
	c.cur = nil
}

// ObserveRequest records one completed request at simulated time t.
func (c *Collector) ObserveRequest(t float64, violation bool) {
	w := c.at(t)
	w.requests++
	if violation {
		w.violations++
	}
}

// SampleUtil records one utilization sample for a resource class
// ("cpu", "san", ...); the window derives watts from its class means.
func (c *Collector) SampleUtil(class string, t, util float64) {
	w := c.at(t)
	if w.utilSum == nil {
		w.utilSum, w.utilN = map[string]float64{}, map[string]int64{}
	}
	w.utilSum[class] += util
	w.utilN[class]++
}

// Seal closes the open window at the end of a run; horizon, when > 0,
// clamps the final window's T1 so a partial last window integrates its
// true span.
func (c *Collector) Seal(horizon float64) {
	if horizon > 0 && (c.horizon == 0 || horizon < c.horizon) {
		c.horizon = horizon
	}
	c.seal()
}

func (c *Collector) summarize(w *win) Window {
	width := c.cfg.WidthSec
	t0 := float64(w.index) * width
	t1 := t0 + width
	if c.horizon > 0 && t1 > c.horizon {
		t1 = c.horizon
	}
	s := Window{
		Index: w.index, T0: t0, T1: t1,
		Requests: w.requests, Violations: w.violations,
	}
	var util map[string]float64
	if len(w.utilSum) > 0 {
		util = make(map[string]float64, len(w.utilSum))
		for k, sum := range w.utilSum {
			util[k] = sum / float64(w.utilN[k])
		}
		s.Util = util
	}
	b := c.cfg.Model.WattsAt(util)
	s.WattsByClass = map[string]float64{
		"cpu": b.CPUW, "memory": b.MemoryW, "disk": b.DiskW, "board": b.BoardW,
		"fan": b.FanW, "flash": b.FlashW, "switch": b.SwitchW,
	}
	s.Watts = b.TotalW()
	span := t1 - t0
	if span > 0 {
		s.Joules = s.Watts * span
	}
	if s.Watts > 0 && span > 0 {
		s.PerfPerWatt = float64(w.requests) / span / s.Watts
	}
	if w.requests > 0 {
		s.JoulesPerRequest = s.Joules / float64(w.requests)
	}
	if good := w.requests - w.violations; good > 0 {
		s.JoulesPerGoodRequest = s.Joules / float64(good)
	}
	return s
}

// Windows returns the sealed windows' summaries in index order.
func (c *Collector) Windows() []Window {
	out := make([]Window, len(c.sealed))
	for i, w := range c.sealed {
		out[i] = c.summarize(w)
	}
	return out
}

// LiveWindows returns the sealed summaries as of the last seal. Unlike
// every other method it is safe to call concurrently with the owner.
func (c *Collector) LiveWindows() []Window {
	return c.live.Load()
}

// Totals aggregates the sealed windows to run level.
func (c *Collector) Totals() Totals {
	t := Totals{StaticW: c.cfg.Model.Active.TotalW()}
	for _, w := range c.sealed {
		s := c.summarize(w)
		t.Windows++
		t.SpanSec += s.T1 - s.T0
		t.Joules += s.Joules
		t.Requests += s.Requests
		t.Violations += s.Violations
	}
	if t.SpanSec > 0 {
		t.MeanW = t.Joules / t.SpanSec
	}
	if t.Requests > 0 {
		t.JoulesPerRequest = t.Joules / float64(t.Requests)
	}
	if good := t.Requests - t.Violations; good > 0 {
		t.JoulesPerGoodRequest = t.Joules / float64(good)
	}
	if t.Joules > 0 && t.SpanSec > 0 {
		t.PerfPerWatt = float64(t.Requests) / t.Joules // = throughput / mean watts
	}
	return t
}

// Curve returns the energy-proportionality curve: one (cpu-class
// utilization, total watts) point per sealed window, in index order.
// Windows that never observed a cpu sample are omitted — their 0-util
// point would be an artifact of probe phase, not of load.
func (c *Collector) Curve() []CurvePoint {
	var pts []CurvePoint
	for _, w := range c.sealed {
		if w.utilN["cpu"] == 0 {
			continue
		}
		s := c.summarize(w)
		pts = append(pts, CurvePoint{Util: driverUtil(s.Util, "cpu"), Watts: s.Watts})
	}
	return pts
}

// Proportionality fits the curve by least squares. With fewer than two
// points (or zero utilization variance) the slope and intercept are 0.
func (c *Collector) Proportionality() Proportionality {
	pts := c.Curve()
	p := Proportionality{Points: len(pts)}
	if len(pts) == 0 {
		return p
	}
	p.MinWatts, p.MaxWatts = pts[0].Watts, pts[0].Watts
	var sx, sy, sxx, sxy float64
	for _, pt := range pts {
		if pt.Watts < p.MinWatts {
			p.MinWatts = pt.Watts
		}
		if pt.Watts > p.MaxWatts {
			p.MaxWatts = pt.Watts
		}
		sx += pt.Util
		sy += pt.Watts
		sxx += pt.Util * pt.Util
		sxy += pt.Util * pt.Watts
	}
	n := float64(len(pts))
	if det := n*sxx - sx*sx; det > 0 {
		p.SlopeWPerUtil = (n*sxy - sx*sy) / det
		p.InterceptW = (sy - p.SlopeWPerUtil*sx) / n
	} else {
		p.InterceptW = sy / n
	}
	return p
}

// MergeFrom folds the parts' sealed windows into c, index-aligned, in
// argument order. The part order must be fixed by the model (enclosure
// order, then the rack-global part), never by the partitioning — the
// same discipline as window.Collector.MergeFrom — so the merged
// collector is byte-identical however the parts were produced. Parts
// must share c's config and be sealed; merging a collector into itself
// panics.
func (c *Collector) MergeFrom(parts ...*Collector) {
	for _, p := range parts {
		if p == c {
			panic("energy: Collector.MergeFrom cannot merge a collector into itself")
		}
		if p.cfg != c.cfg {
			panic(fmt.Sprintf("energy: MergeFrom config mismatch: %+v vs %+v", p.cfg, c.cfg))
		}
		if p.cur != nil {
			panic("energy: MergeFrom of an unsealed collector; call Seal first")
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
				w = &win{index: pw.index}
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
	c.live.Reset(c.Windows())
}

// EmitTotals writes the run-level energy summary into the
// deterministic recorder stream: energy.* counters and observations
// plus one "energy_total" event. Everything is computed from the
// merged collector, so the stream is identical at every parallelism
// count. Call after Seal/MergeFrom.
func (c *Collector) EmitTotals(rec obs.Recorder) {
	if !obs.On(rec) {
		return
	}
	t := c.Totals()
	prop := c.Proportionality()
	rec.Count("energy.windows", int64(t.Windows))
	rec.Observe("energy.joules", t.Joules)
	rec.Observe("energy.mean_watts", t.MeanW)
	if t.Requests > 0 {
		rec.Observe("energy.joules_per_request", t.JoulesPerRequest)
	}
	rec.Event("energy_total", t.SpanSec,
		obs.F("joules", t.Joules),
		obs.F("mean_watts", t.MeanW),
		obs.F("static_watts", t.StaticW),
		obs.F("joules_per_request", t.JoulesPerRequest),
		obs.F("joules_per_good_request", t.JoulesPerGoodRequest),
		obs.F("perf_per_watt", t.PerfPerWatt),
		obs.F("prop_slope_w_per_util", prop.SlopeWPerUtil),
		obs.F("prop_intercept_w", prop.InterceptW))
}

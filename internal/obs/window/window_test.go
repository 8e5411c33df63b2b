package window

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"warehousesim/internal/obs"
)

func mustNew(t *testing.T, cfg Config) *Collector {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"valid", Config{WidthSec: 1, QoSLatencySec: 0.1, QoSPercentile: 0.95}, true},
		{"no-bound", Config{WidthSec: 2}, true},
		{"zero-width", Config{WidthSec: 0}, false},
		{"negative-width", Config{WidthSec: -1}, false},
		{"nan-width", Config{WidthSec: math.NaN()}, false},
		{"inf-width", Config{WidthSec: math.Inf(1)}, false},
		{"negative-bound", Config{WidthSec: 1, QoSLatencySec: -0.1}, false},
		{"percentile-zero", Config{WidthSec: 1, QoSLatencySec: 0.1, QoSPercentile: 0}, false},
		{"percentile-one", Config{WidthSec: 1, QoSLatencySec: 0.1, QoSPercentile: 1}, false},
	}
	for _, tc := range cases {
		_, err := New(tc.cfg)
		if (err == nil) != tc.ok {
			t.Errorf("%s: New(%+v) err=%v, want ok=%v", tc.name, tc.cfg, err, tc.ok)
		}
	}
}

func TestWindowAccumulationAndSummaries(t *testing.T) {
	c := mustNew(t, Config{WidthSec: 1, QoSLatencySec: 0.5, QoSPercentile: 0.95})
	// Window 0: two fast requests; window 2: one slow (violating).
	c.ObserveLatency(0.25, 0.010, false)
	c.ObserveLatency(0.75, 0.020, false)
	c.SampleUtil("cpu", 0.5, 0.4)
	c.SampleUtil("cpu", 0.9, 0.6)
	c.Track("memblade.hit_rate", 0.5, 0.8)
	c.ObserveLatency(2.25, 0.9, true)
	c.Seal(2.5)

	ws := c.Windows()
	if len(ws) != 2 {
		t.Fatalf("got %d windows, want 2 (empty window 1 is not materialized)", len(ws))
	}
	w0 := ws[0]
	if w0.Index != 0 || w0.T0 != 0 || w0.T1 != 1 {
		t.Errorf("window 0 span = [%g,%g) idx %d", w0.T0, w0.T1, w0.Index)
	}
	if w0.Requests != 2 || w0.Violations != 0 || w0.Throughput != 2 {
		t.Errorf("window 0 = %+v", w0)
	}
	if w0.Violating {
		t.Error("window 0 should not violate")
	}
	if got := w0.Util["cpu"]; got != 0.5 {
		t.Errorf("window 0 cpu util mean = %g, want 0.5", got)
	}
	if got := w0.Tracks["memblade.hit_rate"]; got != 0.8 {
		t.Errorf("window 0 track = %g, want 0.8", got)
	}
	w2 := ws[1]
	if w2.Index != 2 {
		t.Fatalf("second sealed window has index %d, want 2", w2.Index)
	}
	if w2.T1 != 2.5 {
		t.Errorf("final window T1 = %g, want horizon clamp 2.5", w2.T1)
	}
	if !w2.Violating || w2.Violations != 1 {
		t.Errorf("window 2 = %+v, want violating", w2)
	}
	if w2.QLat <= 0.5 {
		t.Errorf("window 2 QLat = %g, want > bound", w2.QLat)
	}
	if w2.Throughput != 1/0.5 {
		t.Errorf("partial window throughput = %g, want 2 (1 req over 0.5 s)", w2.Throughput)
	}
}

// TestMergeMatchesSingle: splitting a stream across parts and merging
// must reproduce the single-collector export byte for byte — the
// partition-independence property the rack and fleet merges rely on.
func TestMergeMatchesSingle(t *testing.T) {
	cfg := Config{WidthSec: 1, QoSLatencySec: 0.25, QoSPercentile: 0.95}
	type ob struct {
		part int
		t    float64
		lat  float64
	}
	// Dyadic values so float accumulation order cannot matter.
	log := []ob{
		{0, 0.25, 0.125}, {1, 0.5, 0.5}, {0, 1.25, 0.0625},
		{1, 1.5, 0.75}, {1, 2.25, 0.5}, {0, 2.75, 0.5},
		{0, 3.25, 0.125}, {1, 3.5, 0.0625},
	}
	build := func(split bool) *Collector {
		parts := []*Collector{mustNew(t, cfg), mustNew(t, cfg)}
		single := mustNew(t, cfg)
		for _, o := range log {
			dst := single
			if split {
				dst = parts[o.part]
			}
			dst.ObserveLatency(o.t, o.lat, o.lat > cfg.QoSLatencySec)
			dst.SampleUtil("cpu", o.t, o.lat*0.5)
		}
		if !split {
			single.Seal(4)
			return single
		}
		for _, p := range parts {
			p.Seal(4)
		}
		out := mustNew(t, cfg)
		out.MergeFrom(parts...)
		return out
	}
	want, got := build(false), build(true)
	var wb, gb bytes.Buffer
	if err := want.WriteJSONL(&wb); err != nil {
		t.Fatal(err)
	}
	if err := got.WriteJSONL(&gb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wb.Bytes(), gb.Bytes()) {
		t.Errorf("merged export differs from single-collector export:\n--- single\n%s\n--- merged\n%s", wb.String(), gb.String())
	}
}

func TestMergePanics(t *testing.T) {
	cfg := Config{WidthSec: 1}
	c := mustNew(t, cfg)
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	expectPanic("self-merge", func() { c.MergeFrom(c) })
	other := mustNew(t, Config{WidthSec: 2})
	expectPanic("config-mismatch", func() { c.MergeFrom(other) })
	open := mustNew(t, cfg)
	open.ObserveLatency(0.5, 0.1, false)
	expectPanic("unsealed-part", func() { c.MergeFrom(open) })
}

func TestMergeEmptyPart(t *testing.T) {
	cfg := Config{WidthSec: 1}
	a, empty := mustNew(t, cfg), mustNew(t, cfg)
	a.ObserveLatency(0.5, 0.25, false)
	a.Seal(1)
	empty.Seal(1)
	out := mustNew(t, cfg)
	out.MergeFrom(a, empty)
	ws := out.Windows()
	if len(ws) != 1 || ws[0].Requests != 1 {
		t.Fatalf("merge with empty part: %+v", ws)
	}
}

func TestEpisodes(t *testing.T) {
	cfg := Config{WidthSec: 1, QoSLatencySec: 0.1, QoSPercentile: 0.95}
	c := mustNew(t, cfg)
	// Windows 0-1 violate, window 2 ok, window 4 violates (gap at 3).
	c.ObserveLatency(0.5, 0.5, true)
	c.ObserveLatency(1.5, 0.25, true)
	c.ObserveLatency(2.5, 0.01, false)
	c.ObserveLatency(4.5, 0.5, true)
	c.Seal(5)
	eps := c.Episodes()
	if len(eps) != 2 {
		t.Fatalf("got %d episodes, want 2: %+v", len(eps), eps)
	}
	e0 := eps[0]
	if e0.StartSec != 0 || e0.EndSec != 2 || e0.Windows != 2 {
		t.Errorf("episode 0 = %+v, want [0,2) over 2 windows", e0)
	}
	if e0.DurationSec() != 2 {
		t.Errorf("episode 0 duration = %g", e0.DurationSec())
	}
	if e0.PeakLatencySec < 0.5 || e0.PeakExcessSec <= 0 {
		t.Errorf("episode 0 peak = %+v", e0)
	}
	if eps[1].StartSec != 4 || eps[1].EndSec != 5 {
		t.Errorf("episode 1 = %+v", eps[1])
	}
	if got := ViolationSec(eps); got != 3 {
		t.Errorf("ViolationSec = %g, want 3", got)
	}
	if e0.AffectedParts != 1 {
		t.Errorf("partless episode affected = %d, want 1", e0.AffectedParts)
	}
}

// TestEpisodeGapSplitsAtEmptyWindows: an episode must not bridge a
// stretch of windows with no requests — empty windows never violate.
func TestEpisodeGapSplitsAtEmptyWindows(t *testing.T) {
	c := mustNew(t, Config{WidthSec: 1, QoSLatencySec: 0.1, QoSPercentile: 0.9})
	c.ObserveLatency(0.5, 1, true)
	c.ObserveLatency(5.5, 1, true) // windows 1..4 empty
	c.Seal(6)
	eps := c.Episodes()
	if len(eps) != 2 {
		t.Fatalf("got %d episodes, want 2 split by the idle gap", len(eps))
	}
}

func TestEpisodesAffectedParts(t *testing.T) {
	cfg := Config{WidthSec: 1, QoSLatencySec: 0.1, QoSPercentile: 0.9}
	p0, p1 := mustNew(t, cfg), mustNew(t, cfg)
	// Both parts violate in window 0; only p0 violates in window 1.
	p0.ObserveLatency(0.5, 1, true)
	p1.ObserveLatency(0.5, 1, true)
	p0.ObserveLatency(1.5, 1, true)
	p1.ObserveLatency(1.5, 0.01, false)
	p0.Seal(2)
	p1.Seal(2)
	merged := mustNew(t, cfg)
	merged.MergeFrom(p0, p1)
	eps := merged.Episodes(p0, p1)
	if len(eps) != 1 {
		t.Fatalf("got %d episodes, want 1", len(eps))
	}
	if eps[0].AffectedParts != 2 {
		t.Errorf("affected parts = %d, want 2", eps[0].AffectedParts)
	}
}

func TestNoEpisodesWithoutBound(t *testing.T) {
	c := mustNew(t, Config{WidthSec: 1})
	c.ObserveLatency(0.5, 100, false)
	c.Seal(1)
	if eps := c.Episodes(); eps != nil {
		t.Fatalf("unbounded config produced episodes: %+v", eps)
	}
	if w := c.Windows(); w[0].Violating || w[0].QLat != 0 {
		t.Errorf("unbounded window = %+v", w[0])
	}
}

func TestEmitEpisodes(t *testing.T) {
	c := mustNew(t, Config{WidthSec: 1, QoSLatencySec: 0.1, QoSPercentile: 0.9})
	c.ObserveLatency(0.5, 1, true)
	c.ObserveLatency(1.5, 0.01, false)
	c.Seal(2)
	sink := obs.NewSink()
	eps := c.Episodes()
	c.EmitEpisodes(sink, eps)
	if got := sink.CounterValue("slo.windows"); got != 2 {
		t.Errorf("slo.windows = %d, want 2", got)
	}
	if got := sink.CounterValue("slo.windows_violating"); got != 1 {
		t.Errorf("slo.windows_violating = %d, want 1", got)
	}
	if got := sink.CounterValue("slo.episodes"); got != 1 {
		t.Errorf("slo.episodes = %d, want 1", got)
	}
	if got := sink.EventCount("slo_episode"); got != 2 {
		t.Errorf("slo_episode events = %d, want begin+end", got)
	}
	if h := sink.HistByName("slo.episode_sec"); h == nil || h.Count() != 1 {
		t.Errorf("slo.episode_sec hist = %+v", h)
	}
	// Nil/disabled recorders are a no-op.
	c.EmitEpisodes(nil, eps)
	c.EmitEpisodes(obs.Nop{}, eps)
}

func TestLiveSummaries(t *testing.T) {
	c := mustNew(t, Config{WidthSec: 1})
	if got := c.LiveSummaries(); got != nil {
		t.Fatalf("live summaries before any seal: %v", got)
	}
	c.ObserveLatency(0.5, 0.1, false)
	if got := c.LiveSummaries(); len(got) != 0 {
		t.Fatalf("open window leaked into live view: %v", got)
	}
	c.ObserveLatency(1.5, 0.1, false) // seals window 0
	live := c.LiveSummaries()
	if len(live) != 1 || live[0].Index != 0 || live[0].Requests != 1 {
		t.Fatalf("live after first seal = %+v", live)
	}
	c.Seal(2)
	if got := c.LiveSummaries(); len(got) != 2 {
		t.Fatalf("live after Seal = %d windows, want 2", len(got))
	}
}

func TestWriteJSONLShape(t *testing.T) {
	c := mustNew(t, Config{WidthSec: 1, QoSLatencySec: 0.1, QoSPercentile: 0.9})
	c.ObserveLatency(0.5, 1, true)
	c.Seal(1)
	var buf bytes.Buffer
	if err := c.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want manifest+window+episode:\n%s", len(lines), buf.String())
	}
	var man map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &man); err != nil {
		t.Fatal(err)
	}
	if man["schema"] != SchemaSLO || man["type"] != "slo_manifest" {
		t.Errorf("manifest = %v", man)
	}
	var wl map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &wl); err != nil {
		t.Fatal(err)
	}
	if wl["type"] != "window" || wl["requests"] != 1.0 {
		t.Errorf("window line = %v", wl)
	}
	var el map[string]any
	if err := json.Unmarshal([]byte(lines[2]), &el); err != nil {
		t.Fatal(err)
	}
	if el["type"] != "episode" || el["duration_sec"] != 1.0 {
		t.Errorf("episode line = %v", el)
	}
}

func TestWriteFile(t *testing.T) {
	c := mustNew(t, Config{WidthSec: 1})
	c.ObserveLatency(0.5, 0.1, false)
	c.Seal(1)
	path := t.TempDir() + "/slo.jsonl"
	if err := c.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, buf.Bytes()) {
		t.Error("WriteFile and WriteJSONL disagree")
	}
	if err := c.WriteFile(t.TempDir() + "/nope/slo.jsonl"); err == nil {
		t.Error("WriteFile into a missing directory should fail")
	}
}

func TestLiveSnapshot(t *testing.T) {
	cfg := Config{WidthSec: 1, QoSLatencySec: 0.1, QoSPercentile: 0.9}
	p0, p1 := mustNew(t, cfg), mustNew(t, cfg)
	p0.ObserveLatency(0.5, 0.2, true)
	p0.ObserveLatency(1.5, 0.01, false) // seals window 0
	b, err := LiveSnapshot([]*Collector{p0, p1})
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema   string  `json:"schema"`
		WidthSec float64 `json:"width_sec"`
		Parts    []struct {
			Part    int `json:"part"`
			Sealed  int `json:"sealed"`
			Windows []Summary
		} `json:"parts"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("invalid snapshot JSON: %v\n%s", err, b)
	}
	if doc.Schema != SchemaLive || doc.WidthSec != 1 {
		t.Errorf("snapshot header = %+v", doc)
	}
	if len(doc.Parts) != 2 || doc.Parts[0].Sealed != 1 || len(doc.Parts[1].Windows) != 0 {
		t.Errorf("snapshot parts = %+v", doc.Parts)
	}
	// Zero parts still yields a valid document.
	if b, err = LiveSnapshot(nil); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(b) {
		t.Errorf("empty snapshot invalid: %s", b)
	}
}

func TestTeeRouting(t *testing.T) {
	cfg := Config{WidthSec: 1, QoSLatencySec: 0.1, QoSPercentile: 0.9}
	c := mustNew(t, cfg)
	sink := obs.NewSink()
	rec := NewTee(sink, c)
	if !rec.Enabled() {
		t.Fatal("tee over an enabled sink must be enabled")
	}
	rec.Count("requests", 1)
	rec.Observe("latency_sec", 0.25)
	rec.Gauge("util.cpu.e0.b1", 0.5, 0.75)
	rec.Gauge("qlen.cpu.e0.b1", 0.5, 3) // not routed
	rec.Gauge("memblade.hit_rate", 0.5, 0.9)
	rec.Event("request", 0.5, obs.F("latency_sec", 0.25), obs.FB("qos_violation", true), obs.FB("measured", true))
	rec.Event("span", 0.6, obs.F("id", 1)) // not routed
	c.Seal(1)

	// Inner sink saw everything unchanged.
	if sink.CounterValue("requests") != 1 || sink.EventCount("request") != 1 || sink.EventCount("span") != 1 {
		t.Error("tee did not forward to the inner recorder")
	}
	if sink.SeriesByName("util.cpu.e0.b1") == nil || sink.SeriesByName("qlen.cpu.e0.b1") == nil {
		t.Error("tee did not forward gauges")
	}
	ws := c.Windows()
	if len(ws) != 1 {
		t.Fatalf("windows = %+v", ws)
	}
	w := ws[0]
	if w.Requests != 1 || w.Violations != 1 {
		t.Errorf("request event not routed: %+v", w)
	}
	if got := w.Util["cpu"]; got != 0.75 {
		t.Errorf("util class routing: cpu = %g, want 0.75 (from util.cpu.e0.b1)", got)
	}
	if _, ok := w.Util["qlen"]; ok {
		t.Error("qlen gauge leaked into util classes")
	}
	if got := w.Tracks["memblade.hit_rate"]; got != 0.9 {
		t.Errorf("hit-rate track = %g, want 0.9", got)
	}
	// NewTee with a nil collector is the identity.
	if r := NewTee(sink, nil); r != obs.Recorder(sink) {
		t.Error("NewTee(nil collector) should return the inner recorder")
	}
}

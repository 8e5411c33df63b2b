package obs

import (
	"bytes"
	"testing"
)

func TestHistMerge(t *testing.T) {
	a, b := &Hist{Name: "h"}, &Hist{Name: "h"}
	whole := &Hist{Name: "h"}
	// Dyadic values: their partial sums are exact in float64, so the
	// part-wise sum order of Merge cannot differ from sequential adds.
	vals := []float64{0.125, 0.5, 2, 0, -1, 3.5, 0.25}
	for i, v := range vals {
		if i%2 == 0 {
			a.Add(v)
		} else {
			b.Add(v)
		}
		whole.Add(v)
	}
	a.Merge(b)
	if a.Count() != whole.Count() || a.Min() != whole.Min() || a.Max() != whole.Max() {
		t.Errorf("merged count/min/max = %d/%g/%g, want %d/%g/%g",
			a.Count(), a.Min(), a.Max(), whole.Count(), whole.Min(), whole.Max())
	}
	if a.Mean() != whole.Mean() {
		t.Errorf("merged mean %g != %g", a.Mean(), whole.Mean())
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if a.Quantile(q) != whole.Quantile(q) {
			t.Errorf("merged q%.2f %g != %g", q, a.Quantile(q), whole.Quantile(q))
		}
	}
	// Merging into an empty histogram reproduces the source exactly.
	empty := &Hist{Name: "h"}
	empty.Merge(whole)
	if empty.Count() != whole.Count() || empty.Min() != whole.Min() {
		t.Error("merge into empty histogram lost observations")
	}
}

// TestMergeFromDeterministic: when parts never collide in time,
// folding per-part sinks must reproduce what single-sink recording
// would have produced, byte for byte.
func TestMergeFromDeterministic(t *testing.T) {
	type obsRec struct {
		part   int
		t      float64
		stream string
	}
	// A time-ordered event log split across three parts, times strictly
	// increasing so single-sink emission order and part-merge order
	// coincide; times are dyadic so histogram sums stay exact under
	// either accumulation order.
	log := []obsRec{
		{0, 1.0, "req"}, {1, 1.25, "req"}, {2, 1.5, "req"},
		{0, 2.0, "req"}, {1, 2.25, "span"}, {0, 2.5, "req"},
		{2, 3.0, "req"}, {1, 3.5, "req"},
	}
	build := func(split bool) *Sink {
		parts := []*Sink{NewSink(), NewSink(), NewSink()}
		single := NewSink()
		for i, r := range log {
			var dst *Sink
			if split {
				dst = parts[r.part]
			} else {
				dst = single
			}
			dst.Count("requests", 1)
			dst.Observe("latency", r.t/4)
			dst.Gauge("util.p"+string(rune('0'+r.part)), r.t, float64(i))
			dst.Event(r.stream, r.t, F("i", float64(i)), F("part", float64(r.part)))
		}
		if !split {
			return single
		}
		out := NewSink()
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
		t.Errorf("merged export differs from single-sink export:\n--- single\n%s\n--- merged\n%s", wb.String(), gb.String())
	}
	if got.CounterValue("requests") != int64(len(log)) {
		t.Errorf("merged counter %d, want %d", got.CounterValue("requests"), len(log))
	}
}

// TestMergeFromSharedSeriesOrder: when two parts recorded the same
// series name, the fold appends their points in part order — the
// caller's enclosure ordering.
func TestMergeFromSharedSeriesOrder(t *testing.T) {
	a, b := NewSink(), NewSink()
	a.Gauge("util.cpu", 1.0, 0.1)
	a.Gauge("util.cpu", 3.0, 0.3)
	b.Gauge("util.cpu", 2.0, 0.2)
	out := NewSink()
	out.MergeFrom(a, b)
	pts := out.SeriesByName("util.cpu").Points
	if len(pts) != 3 {
		t.Fatalf("got %d points, want 3", len(pts))
	}
	// Part a's points first (t=1, t=3), then part b's (t=2): an append,
	// not a time interleave.
	wantT := []float64{1, 3, 2}
	for i, p := range pts {
		if p.T != wantT[i] {
			t.Errorf("point %d at t=%g, want t=%g", i, p.T, wantT[i])
		}
	}
	// Histograms with the same name merge exactly: the fold sees every
	// part's observations, whichever part recorded them.
	ha, hb := NewSink(), NewSink()
	ha.Observe("latency", 0.25)
	ha.Observe("latency", 4)
	hb.Observe("latency", 1)
	hm := NewSink()
	hm.MergeFrom(ha, hb)
	if got := hm.HistByName("latency"); got.Count() != 3 || got.Min() != 0.25 || got.Max() != 4 {
		t.Errorf("hist merge = count %d min %g max %g", got.Count(), got.Min(), got.Max())
	}
}

// TestMergeFromEmptyAndInto: folding an empty part is a no-op, and
// folding into an empty sink reproduces the source export.
func TestMergeFromEmptyAndInto(t *testing.T) {
	src := NewSink()
	src.Count("requests", 7)
	src.Observe("latency", 0.5)
	src.Gauge("util.cpu", 1.0, 0.25)
	src.Event("req", 1.0, F("i", 1))
	var want bytes.Buffer
	if err := src.WriteJSONL(&want); err != nil {
		t.Fatal(err)
	}

	// No-op: merge an empty part into a populated sink.
	src.MergeFrom(NewSink())
	var after bytes.Buffer
	if err := src.WriteJSONL(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), after.Bytes()) {
		t.Error("merging an empty part changed the sink")
	}

	// Reproduce: merge the populated sink into an empty one.
	dst := NewSink()
	dst.MergeFrom(src)
	var got bytes.Buffer
	if err := dst.WriteJSONL(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Errorf("merge into empty sink lost data:\n--- want\n%s\n--- got\n%s", want.String(), got.String())
	}
}

// TestMergeFromSelfPanics: a sink given as its own merge part would
// double its counters and walk an event stream being appended to.
func TestMergeFromSelfPanics(t *testing.T) {
	s := NewSink()
	s.Count("requests", 1)
	defer func() {
		if recover() == nil {
			t.Error("MergeFrom(self) did not panic")
		}
	}()
	s.MergeFrom(s)
}

// TestMergeFromTieOrder: events at identical times merge in part
// order — the partition-independent tie-break (part order is fixed by
// the model, e.g. enclosure index).
func TestMergeFromTieOrder(t *testing.T) {
	a, b := NewSink(), NewSink()
	a.Event("s", 1.0, F("part", 0))
	a.Event("s", 2.0, F("part", 0))
	b.Event("s", 1.0, F("part", 1))
	b.Event("s", 2.0, F("part", 1))
	out := NewSink()
	out.MergeFrom(a, b)
	evs := out.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	wantParts := []float64{0, 1, 0, 1}
	for i, e := range evs {
		if e.Fields[0].Num != wantParts[i] {
			t.Errorf("event %d at t=%g from part %g, want part %g", i, e.T, e.Fields[0].Num, wantParts[i])
		}
	}
}

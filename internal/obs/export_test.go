package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand/v2"
	"path/filepath"
	"strings"
	"testing"
)

func demoSink() *Sink {
	s := NewSink()
	m := NewManifest("websearch", "emb1", 7)
	m.SimTimeSec = 150
	m.Config["measure_sec"] = "120"
	m.SetEvents(3000)
	m.WallSec = 1.2345 // must NOT appear in exports
	s.SetManifest(m)
	s.Count("requests", 10)
	s.Count("qos_violations", 1)
	s.Observe("latency_sec", 0.02)
	s.Observe("latency_sec", 0.04)
	s.Gauge("util.cpu", 1, 0.5)
	s.Gauge("util.cpu", 2, 0.625)
	s.Event("request", 1.5, F("latency_sec", 0.02), FB("qos_ok", true))
	s.Event("request", 1.8, F("latency_sec", 0.04), FS("station", "cpu"))
	return s
}

func TestWriteJSONLShape(t *testing.T) {
	var buf bytes.Buffer
	if err := demoSink().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// manifest + 2 counters + 1 hist + 2 samples + 2 events
	if len(lines) != 8 {
		t.Fatalf("got %d lines, want 8:\n%s", len(lines), buf.String())
	}
	var first map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if first["type"] != "manifest" || first["workload"] != "websearch" {
		t.Fatalf("first line is not the manifest: %v", first)
	}
	if _, ok := first["wall_sec"]; ok {
		t.Fatal("wall time leaked into the deterministic export")
	}
	for _, l := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(l), &rec); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", l, err)
		}
	}
}

func TestWriteJSONLDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := demoSink().WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := demoSink().WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("identical sinks exported different JSONL bytes")
	}
}

func TestWriteCSVShape(t *testing.T) {
	var buf bytes.Buffer
	if err := demoSink().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if lines[0] != "kind,name,t,value,fields" {
		t.Fatalf("header = %q", lines[0])
	}
	// header + manifest + 2 counters + 1 hist + 2 samples + 2 events
	if len(lines) != 9 {
		t.Fatalf("got %d lines, want 9:\n%s", len(lines), out)
	}
	if !strings.Contains(out, "station=cpu") {
		t.Fatal("string event field missing from CSV")
	}
	if strings.Contains(out, "1.2345") {
		t.Fatal("wall time leaked into the CSV export")
	}
}

func TestWriteFilePicksFormatByExtension(t *testing.T) {
	dir := t.TempDir()
	s := demoSink()
	jl := filepath.Join(dir, "run.jsonl")
	cs := filepath.Join(dir, "run.csv")
	if err := s.WriteFile(jl); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteFile(cs); err != nil {
		t.Fatal(err)
	}
	var jlBuf, csBuf bytes.Buffer
	if err := s.WriteJSONL(&jlBuf); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteCSV(&csBuf); err != nil {
		t.Fatal(err)
	}
	checkFile(t, jl, jlBuf.Bytes())
	checkFile(t, cs, csBuf.Bytes())
}

// The reference encoder below is WriteJSONL as it was before the typed
// appender: every sample and event goes through encoding/json, with an
// event's fields gathered into a map[string]any. The differential tests
// hold the appender to its bytes and its errors.

type refSample struct {
	Type   string  `json:"type"`
	Series string  `json:"series"`
	T      float64 `json:"t"`
	V      float64 `json:"v"`
}

type refEvent struct {
	Type   string         `json:"type"`
	Stream string         `json:"stream"`
	T      float64        `json:"t"`
	Fields map[string]any `json:"f,omitempty"`
}

func referenceJSONL(s *Sink, w io.Writer) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(jsonlManifest{Type: "manifest", Manifest: s.manifest}); err != nil {
		return err
	}
	for _, name := range sortedKeys(s.counters) {
		if err := enc.Encode(jsonlCounter{Type: "counter", Name: name, Value: s.counters[name]}); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.hists) {
		h := s.hists[name]
		rec := jsonlHist{
			Type: "hist", Name: name,
			Count: h.count, Underflow: h.underflow,
			Mean: h.Mean(), Min: h.Min(), Max: h.Max(),
			P50: h.Quantile(0.50), P95: h.Quantile(0.95), P99: h.Quantile(0.99),
		}
		for i, n := range h.buckets {
			if n > 0 {
				rec.Buckets = append(rec.Buckets, jsonlHistBucket{LE: histUpperBound(i), N: n})
			}
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.series) {
		for _, p := range s.series[name].Points {
			if err := enc.Encode(refSample{Type: "sample", Series: name, T: p.T, V: p.V}); err != nil {
				return err
			}
		}
	}
	for _, e := range s.Events() {
		rec := refEvent{Type: "event", Stream: e.Stream, T: e.T}
		if len(e.Fields) > 0 {
			rec.Fields = make(map[string]any, len(e.Fields))
			for _, f := range e.Fields {
				if f.IsStr {
					rec.Fields[f.Key] = f.Str
				} else {
					rec.Fields[f.Key] = f.Num
				}
			}
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}

// checkMatchesReference exports s both ways and fails on any byte or
// error difference.
func checkMatchesReference(t *testing.T, s *Sink) {
	t.Helper()
	var got, want bytes.Buffer
	gerr := s.WriteJSONL(&got)
	werr := referenceJSONL(s, &want)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("WriteJSONL error %v, reference error %v", gerr, werr)
	}
	if werr != nil {
		if gerr.Error() != werr.Error() {
			t.Fatalf("WriteJSONL error %q, reference error %q", gerr, werr)
		}
		return
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		g, w := strings.Split(got.String(), "\n"), strings.Split(want.String(), "\n")
		for i := 0; i < len(g) && i < len(w); i++ {
			if g[i] != w[i] {
				t.Fatalf("line %d differs:\n got %s\nwant %s", i, g[i], w[i])
			}
		}
		t.Fatalf("got %d lines, want %d", len(g), len(w))
	}
}

// edgeFloats are values where encoding/json's float format switches
// between 'f' and 'e', rounds, or prints a sign.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 3, 42, 1e6, -7e15, 1 << 53, 0.5, 0.1, 1.0 / 3,
	1e-6, math.Nextafter(1e-6, 0), 1e-7, -1e-7, 1.5e-9, 1e-10, 1e-100, 1e-300,
	5e-324, -5e-324, 2.2250738585072009e-308, math.SmallestNonzeroFloat64 * 3,
	1e20, math.Nextafter(1e21, 0), 1e21, -1e21, 1.2345e21, 1e100, 1e300,
	math.MaxFloat64, -math.MaxFloat64, 123456789.125, 0.000001234,
}

// edgeStrings need escaping (HTML characters, control bytes, invalid
// UTF-8, the JavaScript line separators) or are plain boundary cases.
var edgeStrings = []string{
	"", "plain", "with space", "a<b", "x>y", "a&b", "<>&", "quote\"", `back\slash`,
	"\x01", "tab\t", "nl\n", "\x7f", "\xff", "bad\xc3", "é", "日本", "\u2028", "\u2029", "z\u2028z",
}

func TestWriteJSONLMatchesReferenceEdgeCases(t *testing.T) {
	s := NewSink()
	s.SetManifest(NewManifest("websearch", "emb1", 1))
	for i, f := range edgeFloats {
		s.Gauge("edge", f, -f)
		s.Event("num", f, F("v", f), F("i", float64(i)))
	}
	for i, str := range edgeStrings {
		s.Gauge("series"+str, float64(i), 1)
		s.Event(str, float64(i), FS(str, str), FS("k", str))
	}
	// Repeated keys: the last field wins, wherever the repeats sit.
	s.Event("dup", 1, F("a", 1), F("a", 2))
	s.Event("dup", 2, F("b", 1), FS("a", "x"), F("b", 3), F("a", 4))
	s.Event("dup", 3, FS("k", "first"), F("z", 0), FS("k", "last"), F("a", 1))
	// Unsorted, sorted, one-field and empty field lists.
	s.Event("order", 4, F("z", 1), F("m", 2), F("a", 3), F("M", 4), F("", 5))
	s.Event("order", 5, F("a", 1), F("b", 2), F("c", 3))
	s.Event("order", 6, F("only", 1))
	s.Event("empty", 7)
	s.Event("empty", 8, []Field{}...)
	s.Count("requests", 3)
	s.Observe("latency_sec", 0.25)
	checkMatchesReference(t, s)

	var buf bytes.Buffer
	if err := s.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	for _, l := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if strings.Contains(l, `"stream":"empty"`) && strings.Contains(l, `"f"`) {
			t.Errorf("event without fields carries an \"f\" key: %s", l)
		}
	}
}

func TestWriteJSONLMatchesReferenceRandom(t *testing.T) {
	r := rand.New(rand.NewPCG(17, 4))
	keys := []string{"a", "b", "id", "parent", "req", "kind", "res", "dur", "latency_sec", "qos_ok", "k<", "é", ""}
	num := func() float64 {
		switch r.IntN(6) {
		case 0:
			return edgeFloats[r.IntN(len(edgeFloats))]
		case 1:
			return float64(r.IntN(1 << 20))
		case 2:
			return math.Float64frombits(r.Uint64()) // any bit pattern, NaN and Inf excluded below
		default:
			return r.NormFloat64() * math.Pow(10, float64(r.IntN(60)-30))
		}
	}
	for trial := 0; trial < 50; trial++ {
		s := NewSink()
		for i := 0; i < 200; i++ {
			fs := make([]Field, r.IntN(8))
			for j := range fs {
				k := keys[r.IntN(len(keys))]
				if r.IntN(4) == 0 {
					fs[j] = FS(k, edgeStrings[r.IntN(len(edgeStrings))])
				} else {
					fs[j] = F(k, finite(num()))
				}
			}
			s.Event(edgeStrings[r.IntN(len(edgeStrings))], finite(num()), fs...)
			s.Gauge(keys[r.IntN(len(keys))], finite(num()), finite(num()))
		}
		checkMatchesReference(t, s)
	}
}

func finite(f float64) float64 {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0
	}
	return f
}

func TestWriteJSONLRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		cases := map[string]func(s *Sink){
			"sample t":    func(s *Sink) { s.Gauge("g", bad, 1) },
			"sample v":    func(s *Sink) { s.Gauge("g", 1, bad) },
			"event t":     func(s *Sink) { s.Event("e", bad) },
			"event field": func(s *Sink) { s.Event("e", 1, F("a", 1), F("b", bad)) },
		}
		for name, record := range cases {
			s := NewSink()
			record(s)
			if err := s.WriteJSONL(io.Discard); err == nil {
				t.Errorf("%s = %v: WriteJSONL returned no error", name, bad)
			}
			checkMatchesReference(t, s)
		}
	}
}

package obs

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"unicode/utf8"
)

// jsonlAppender renders sample and event lines into one reused byte
// buffer, byte for byte as encoding/json renders the equivalent
// records:
//
//	{"type":"sample","series":S,"t":T,"v":V}
//	{"type":"event","stream":S,"t":T,"f":{K:V,...}}
//
// where "f" is the event's fields as a JSON object (omitted when there
// are none) and every string and number is written the way
// encoding/json writes it. A large export is almost entirely these two
// line kinds, so this replaces a map build plus a reflective encode
// per record with plain appends.
type jsonlAppender struct {
	line   []byte  // the rendered line, '\n' included; reused by every call
	fields []Field // scratch for mapOrder
}

// sample renders one series point into a.line.
//
//perf:hotpath
func (a *jsonlAppender) sample(series string, p Point) error {
	b := append(a.line[:0], `{"type":"sample","series":`...)
	b = appendJSONString(b, series)
	b = append(b, `,"t":`...)
	b, ok := appendJSONFloat(b, p.T)
	if !ok {
		return unsupportedFloat(p.T)
	}
	b = append(b, `,"v":`...)
	if b, ok = appendJSONFloat(b, p.V); !ok {
		return unsupportedFloat(p.V)
	}
	a.line = append(b, '}', '\n')
	return nil
}

// event renders one event record into a.line. Its fields are written in
// the order encoding/json writes a map built from them (see mapOrder).
//
//perf:hotpath
func (a *jsonlAppender) event(e *EventRecord) error {
	b := append(a.line[:0], `{"type":"event","stream":`...)
	b = appendJSONString(b, e.Stream)
	b = append(b, `,"t":`...)
	b, ok := appendJSONFloat(b, e.T)
	if !ok {
		return unsupportedFloat(e.T)
	}
	if len(e.Fields) > 0 {
		b = append(b, `,"f":{`...)
		for i, f := range a.mapOrder(e.Fields) {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONString(b, f.Key)
			b = append(b, ':')
			if f.IsStr {
				b = appendJSONString(b, f.Str)
			} else if b, ok = appendJSONFloat(b, f.Num); !ok {
				return unsupportedFloat(f.Num)
			}
		}
		b = append(b, '}')
	}
	a.line = append(b, '}', '\n')
	return nil
}

// mapOrder returns fs in the order encoding/json writes a
// map[string]any built from them: sorted by key (byte order), and for a
// repeated key only the last field, because a later map assignment
// replaces an earlier one. The result lives in a.fields and is valid
// until the next call.
//
//perf:hotpath
func (a *jsonlAppender) mapOrder(fs []Field) []Field {
	// Insertion sort in emission order: a field whose key is already
	// present replaces it, so the last one wins. Events carry a handful
	// of fields, and input already in order costs one pass.
	out := a.fields[:0]
	for _, f := range fs {
		j := len(out)
		for j > 0 && out[j-1].Key > f.Key {
			j--
		}
		if j > 0 && out[j-1].Key == f.Key {
			out[j-1] = f
			continue
		}
		out = append(out, Field{})
		copy(out[j+1:], out[j:])
		out[j] = f
	}
	a.fields = out
	return out
}

// appendJSONFloat appends f as encoding/json's float64 encoder writes
// it: the shortest 'f' form, or 'e' form when |f| < 1e-6 or |f| >= 1e21,
// with a two-digit negative exponent shortened (e-09 becomes e-9). It
// reports false, appending nothing, for NaN and ±Inf, which JSON cannot
// represent.
//
//perf:hotpath
func appendJSONFloat(b []byte, f float64) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
}

// appendJSONString appends s as a JSON string. Printable ASCII without
// '"', '\\' or the HTML-escaped '<', '>' and '&' is copied between
// quotes; anything else takes appendJSONStringEscaped, so escaping
// always matches encoding/json exactly.
//
//perf:hotpath
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return appendJSONStringEscaped(b, s)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendJSONStringEscaped appends s as encoding/json writes it: HTML
// characters, control bytes, invalid UTF-8, U+2028 and U+2029 escaped.
func appendJSONStringEscaped(b []byte, s string) []byte {
	q, _ := json.Marshal(s) // a string always marshals
	return append(b, q...)
}

// unsupportedFloat returns the error encoding/json returns for a NaN or
// infinite float64.
func unsupportedFloat(f float64) error {
	return &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
}

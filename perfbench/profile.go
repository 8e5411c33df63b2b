package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// modules are the repo packages the traced run attributes CPU to. Every
// sample goes to the innermost of them on its stack; "bench" is this
// harness, "other" any other repo package, and "runtime" a sample with
// no repo frame at all (background GC, the scheduler).
var modules = []string{
	"stats", "trace", "flashcache", "memblade", "workload", "core", "cluster",
	"des", "shard", "obs", "window", "energy", "metrics",
}

// moduleOf maps a symbol from a profile to its module, or "" when the
// symbol is not in the repo.
func moduleOf(fn string) string {
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "warehousesim/perfbench.") {
		return "bench"
	}
	const root = "warehousesim/internal/"
	if !strings.HasPrefix(fn, root) {
		return ""
	}
	path := fn[len(root):]
	// The package path ends at the first '.' after its last '/'.
	slash := strings.LastIndexByte(path, '/')
	if dot := strings.IndexByte(path[slash+1:], '.'); dot >= 0 {
		path = path[:slash+1+dot]
	}
	switch {
	case path == "des/shard":
		return "shard"
	case path == "obs/window":
		return "window"
	case path == "obs/energy":
		return "energy"
	case path == "obs" || strings.HasPrefix(path, "obs/"):
		return "obs"
	}
	top, _, _ := strings.Cut(path, "/")
	for _, m := range modules {
		if top == m {
			return m
		}
	}
	return "other"
}

// attributeCPU decodes a gzipped pprof CPU profile and returns CPU
// seconds per module, each sample charged to the innermost repo package
// on its stack.
func attributeCPU(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	prof, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	cpuIdx := -1
	for i, vt := range prof.sampleTypes {
		if prof.str(vt[1]) == "nanoseconds" {
			cpuIdx = i
		}
	}
	if cpuIdx < 0 {
		return nil, errors.New("profile: no nanoseconds sample type")
	}
	out := map[string]float64{}
	for _, s := range prof.samples {
		if cpuIdx >= len(s.values) {
			continue
		}
		mod := "runtime"
	stack:
		for _, loc := range s.locs {
			for _, fid := range prof.locFuncs[loc] {
				if m := moduleOf(prof.str(prof.funcNames[fid])); m != "" {
					mod = m
					break stack
				}
			}
		}
		out[mod] += float64(s.values[cpuIdx]) / 1e9
	}
	return out, nil
}

// profile is the part of a pprof profile the attribution needs.
type profile struct {
	sampleTypes [][2]int64 // (type, unit) string indices
	samples     []sample
	locFuncs    map[uint64][]uint64 // location id -> function ids, innermost first
	funcNames   map[uint64]int64    // function id -> name string index
	strings     []string
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// decodeProfile reads the profile.proto fields used above: sample_type
// (1), sample (2), location (4), function (5) and string_table (6).
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err := eachField(b, func(num int, v uint64, sub []byte) error {
		switch num {
		case 1:
			var vt [2]int64
			err := eachField(sub, func(n int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					vt[n-1] = int64(v)
				}
				return nil
			})
			p.sampleTypes = append(p.sampleTypes, vt)
			return err
		case 2:
			var s sample
			err := eachField(sub, func(n int, v uint64, packed []byte) error {
				switch n {
				case 1:
					return eachUint(v, packed, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return eachUint(v, packed, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var funcs []uint64
			err := eachField(sub, func(n int, v uint64, line []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(line, func(ln int, lv uint64, _ []byte) error {
						if ln == 1 {
							funcs = append(funcs, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = funcs
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(sub, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	return p, err
}

// eachField walks a protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(num int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			sub, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// eachUint handles a repeated varint field in either encoding: one
// value per field, or a packed run of them.
func eachUint(v uint64, packed []byte, fn func(uint64)) error {
	if packed == nil {
		fn(v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		fn(x)
		packed = packed[n:]
	}
	return nil
}

package cluster_test

// Golden digests of rack and fleet runs. Each case drives Simulate the
// way whsim does — topology from the CLI flag groups, cluster config and
// power breakdown from the core evaluator — and pins SHA-256 digests of
// every Result field (floats bit-exact), the obs export, and the SLO and
// energy exports. The digests live in testdata/golden; a deliberate
// model change refreshes them with
//
//	go test ./internal/cluster -run TestRackGolden -update
//
// and the refreshed files are the reviewable record of what moved.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"warehousesim/internal/cluster"
	"warehousesim/internal/core"
	"warehousesim/internal/core/cliflags"
	"warehousesim/internal/obs"
	"warehousesim/internal/obs/energy"
	"warehousesim/internal/platform"
	"warehousesim/internal/power"
	"warehousesim/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden digests in testdata/golden")

// goldenCase is one pinned run: a whsim-style system, workload and rack
// or fleet flags, plus the telemetry planes it records.
type goldenCase struct {
	name, system, workload string
	args                   []string // rack/fleet flags, as whsim takes them
	obs                    bool
	sloSec, energySec      float64
	traceEvery             int64
	par                    int
}

func goldenCases() []goldenCase {
	rack := []string{"-shards", "1", "-enclosures", "4", "-boards", "2"}
	return []goldenCase{
		// desk meets websearch's QoS bound; every plane and span tracing on.
		{name: "desk-websearch", system: "desk", workload: "websearch",
			args: append([]string{"-clients-per-board", "8"}, rack...),
			obs:  true, sloSec: 1, energySec: 1, traceEvery: 50},
		// emb1 at 16 clients a board misses it, so the SLO plane records
		// violation episodes.
		{name: "emb1-websearch", system: "emb1", workload: "websearch",
			args: append([]string{"-clients-per-board", "16"}, rack...),
			obs:  true, sloSec: 1},
		// N2 keeps part of its memory on the enclosure's blade.
		{name: "n2-websearch-blade", system: "N2", workload: "websearch", args: rack,
			obs: true, energySec: 1},
		// Batch on a uniform rack, uninstrumented: the run-dry pass only.
		{name: "desk-mapred-wc", system: "desk", workload: "mapred-wc", args: rack},
		// Batch on a skewed rack, instrumented: the replay to the job's end.
		{name: "desk-mapred-wr-skewed", system: "desk", workload: "mapred-wr",
			args: []string{"-shards", "1", "-boards", "8,2,2,2"},
			obs:  true, sloSec: 1, energySec: 1},
		// A hybrid fleet: two hot DES racks in parallel, ten analytic ones.
		{name: "emb1-fleet-12", system: "emb1", workload: "websearch",
			args: []string{"-racks", "12", "-hot-set", "3,9", "-enclosures", "4", "-boards", "2"},
			obs:  true, sloSec: 1, energySec: 1, par: 2},
	}
}

// goldenTopology resolves rack/fleet flags through the same flag groups
// whsim registers.
func goldenTopology(t *testing.T, args []string) cluster.Topology {
	t.Helper()
	fs := flag.NewFlagSet("golden", flag.ContinueOnError)
	sharding := cliflags.AddSharding(fs)
	fleet := cliflags.AddFleet(fs, sharding)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	if err := cliflags.Validate(sharding, fleet); err != nil {
		t.Fatal(err)
	}
	if ft := fleet.Topology(); ft != nil {
		return ft
	}
	return sharding.Topology()
}

func goldenDesign(t *testing.T, name string) core.Design {
	t.Helper()
	switch name {
	case "N2":
		return core.NewN2()
	}
	s, ok := platform.ByName(name)
	if !ok {
		t.Fatalf("unknown system %q", name)
	}
	return core.BaselineDesign(s)
}

// runGolden simulates one case and returns its named digests.
func runGolden(t *testing.T, ev *core.Evaluator, gc goldenCase) map[string]string {
	t.Helper()
	d := goldenDesign(t, gc.system)
	prof, ok := workload.ProfileByName(gc.workload)
	if !ok {
		t.Fatalf("unknown workload %q", gc.workload)
	}
	cfg, err := ev.ClusterConfig(d, prof)
	if err != nil {
		t.Fatal(err)
	}
	opt := cluster.SimOptions{
		Seed: 11, WarmupSec: 5, MeasureSec: 20, MaxClients: 4096,
		ProbeIntervalSec: 1, TraceEvery: gc.traceEvery, Parallelism: gc.par,
		SLOWindowSec: gc.sloSec,
		Topology:     goldenTopology(t, gc.args),
	}
	var sink *obs.Sink
	if gc.obs || gc.sloSec > 0 || gc.energySec > 0 {
		sink = obs.NewSink()
		opt.Obs = sink
	}
	if gc.energySec > 0 {
		pb, err := ev.PowerBreakdown(d)
		if err != nil {
			t.Fatal(err)
		}
		opt.Energy = &energy.Config{
			WidthSec: gc.energySec,
			Model:    energy.Model{Active: pb, Idle: power.DefaultIdleFractions()},
		}
	}
	res, err := cfg.Simulate(workload.FixedGenerator{P: prof}, opt)
	if err != nil {
		t.Fatal(err)
	}

	sums := map[string]string{}
	digest := func(part string, b []byte) {
		h := sha256.Sum256(b)
		sums[part] = hex.EncodeToString(h[:])
	}
	var buf bytes.Buffer
	if sink != nil {
		if err := sink.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		digest("obs", buf.Bytes())
	}
	if res.SLO != nil {
		buf.Reset()
		if err := res.SLO.WriteJSONL(&buf, res.SLOParts...); err != nil {
			t.Fatal(err)
		}
		digest("slo", buf.Bytes())
	}
	if res.Energy != nil {
		buf.Reset()
		if err := res.Energy.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		digest("energy", buf.Bytes())
	}
	// The collectors are pinned by their exports above; everything else
	// in the Result is rendered field by field.
	res.SLO, res.SLOParts, res.Energy, res.EnergyParts = nil, nil, nil, nil
	buf.Reset()
	canonical(&buf, reflect.ValueOf(res))
	digest("result", buf.Bytes())
	return sums
}

// canonical renders v deterministically: floats as their IEEE bits,
// struct fields by name, map entries in key order.
func canonical(w *bytes.Buffer, v reflect.Value) {
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		fmt.Fprintf(w, "%016x", math.Float64bits(v.Float()))
	case reflect.Bool:
		fmt.Fprintf(w, "%t", v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		fmt.Fprintf(w, "%d", v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		fmt.Fprintf(w, "%d", v.Uint())
	case reflect.String:
		fmt.Fprintf(w, "%q", v.String())
	case reflect.Pointer:
		if v.IsNil() {
			w.WriteString("nil")
			return
		}
		canonical(w, v.Elem())
	case reflect.Slice:
		if v.IsNil() {
			w.WriteString("nil")
			return
		}
		w.WriteString("[")
		for i := 0; i < v.Len(); i++ {
			canonical(w, v.Index(i))
			w.WriteString(" ")
		}
		w.WriteString("]")
	case reflect.Map:
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
		w.WriteString("{")
		for _, k := range keys {
			fmt.Fprintf(w, "%q:", k.String())
			canonical(w, v.MapIndex(k))
			w.WriteString(" ")
		}
		w.WriteString("}")
	case reflect.Struct:
		w.WriteString("{")
		for i := 0; i < v.NumField(); i++ {
			fmt.Fprintf(w, "%s:", v.Type().Field(i).Name)
			canonical(w, v.Field(i))
			w.WriteString(" ")
		}
		w.WriteString("}")
	default:
		panic(fmt.Sprintf("golden: no canonical form for %s", v.Type()))
	}
}

// TestRackGolden pins the rack and fleet outputs. A mismatch means a
// change moved the model's numbers or exports; if that was the intent,
// rerun with -update and review the digest diff.
func TestRackGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden rack runs take a few seconds")
	}
	ev := core.NewEvaluator()
	for _, gc := range goldenCases() {
		t.Run(gc.name, func(t *testing.T) {
			sums := runGolden(t, ev, gc)
			parts := make([]string, 0, len(sums))
			for part := range sums {
				parts = append(parts, part)
			}
			sort.Strings(parts)
			var b strings.Builder
			for _, part := range parts {
				fmt.Fprintf(&b, "%s %s\n", sums[part], part)
			}
			path := filepath.Join("testdata", "golden", gc.name+".sha256")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (generate with -update)", err)
			}
			if string(want) != b.String() {
				t.Errorf("digests moved:\nwant:\n%sgot:\n%s", want, b.String())
			}
		})
	}
}

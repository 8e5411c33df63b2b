package cliflags

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// parseSet builds a quiet FlagSet with every validated group
// registered, parses args, and returns the groups and the parse error.
func parseSet(args ...string) (*Sharding, *SLO, *Energy, error) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	sh := AddSharding(fs)
	slo := AddSLO(fs)
	en := AddEnergy(fs)
	return sh, slo, en, fs.Parse(args)
}

// newSet is parseSet for command lines that must parse.
func newSet(t *testing.T, args ...string) (*Sharding, *SLO, *Energy) {
	t.Helper()
	sh, slo, en, err := parseSet(args...)
	if err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return sh, slo, en
}

func TestValidateFlagCombinations(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string // substring; "" = valid
	}{
		{"empty", nil, ""},
		{"slo-out-implies-window", []string{"-slo-out", "x.jsonl"}, ""},
		{"slo-out-with-window", []string{"-slo-window", "2s", "-slo-out", "x.jsonl"}, ""},
		{"slo-out-with-explicit-zero", []string{"-slo-window", "0s", "-slo-out", "x.jsonl"}, "-slo-window 0"},
		{"slo-explicit-zero-alone", []string{"-slo-window", "0s"}, ""},
		{"energy-out-alone", []string{"-energy-out", "e.jsonl"}, "requires -energy-window"},
		{"energy-out-with-window", []string{"-energy-window", "1s", "-energy-out", "e.jsonl"}, ""},
		{"energy-window-alone", []string{"-energy-window", "1s"}, ""},
		{"shards-flat", []string{"-shards", "0"}, ""},
		{"shards-rack", []string{"-shards", "1"}, ""},
		{"shards-negative", []string{"-shards", "-3"}, "one event heap"},
		{"shards-two", []string{"-shards", "2"}, "one event heap"},
		// -shard-diag and -placement are not flags.
		{"shard-diag-without-shards", []string{"-shard-diag", "d.jsonl"}, "flag provided but not defined: -shard-diag"},
		{"shard-diag-with-shards", []string{"-shards", "1", "-shard-diag", "d.jsonl"}, "flag provided but not defined: -shard-diag"},
		{"placement-without-shards", []string{"-placement", "balanced"}, "flag provided but not defined: -placement"},
		{"placement-with-shards", []string{"-shards", "1", "-placement", "balanced"}, "flag provided but not defined: -placement"},
		{"boards-list", []string{"-shards", "1", "-boards", "8,2,2,2"}, ""},
		{"boards-garbage", []string{"-shards", "1", "-boards", "many"}, "-boards"},
		{"boards-list-garbage", []string{"-shards", "1", "-boards", "8,x,2"}, "entry 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sh, slo, en, err := parseSet(tc.args...)
			if err == nil {
				err = Validate(sh, slo, en)
			}
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate(%v) = %v, want nil", tc.args, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate(%v) accepted, want error containing %q", tc.args, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate(%v) = %q, want substring %q", tc.args, err, tc.wantErr)
			}
		})
	}
}

func TestSLOConventions(t *testing.T) {
	_, slo, _ := newSet(t, "-slo-out", "x.jsonl")
	if got := slo.WindowSec(); got != 1 {
		t.Errorf("-slo-out alone: WindowSec = %g, want the implied 1s", got)
	}
	if !slo.Enabled() || slo.OutPath() != "x.jsonl" {
		t.Errorf("Enabled %v OutPath %q", slo.Enabled(), slo.OutPath())
	}
	_, slo, _ = newSet(t, "-slo-window", "250ms")
	if got := slo.WindowSec(); got != 0.25 {
		t.Errorf("WindowSec = %g, want 0.25", got)
	}
	_, slo, _ = newSet(t)
	if slo.Enabled() {
		t.Error("SLO enabled with no flags")
	}
}

func TestEnergyAccessors(t *testing.T) {
	_, _, en := newSet(t, "-energy-window", "500ms", "-energy-out", "e.jsonl")
	if got := en.WindowSec(); got != 0.5 {
		t.Errorf("WindowSec = %g, want 0.5", got)
	}
	if !en.Enabled() || en.OutPath() != "e.jsonl" {
		t.Errorf("Enabled %v OutPath %q", en.Enabled(), en.OutPath())
	}
	_, _, en = newSet(t)
	if en.Enabled() || en.WindowSec() != 0 || en.OutPath() != "" {
		t.Error("Energy group not zero-valued with no flags")
	}
}

func TestShardingAccessors(t *testing.T) {
	sh, _, _ := newSet(t, "-shards", "1", "-enclosures", "8", "-boards", "2", "-clients-per-board", "3")
	if !sh.Enabled() {
		t.Fatal("rack model not enabled")
	}
	topo := sh.Topology()
	if topo == nil || topo.Enclosures != 8 || topo.BoardsPerEnclosure != 2 || topo.ClientsPerBoard != 3 {
		t.Errorf("topology %+v", topo)
	}
	if tmpl := sh.RackTemplate(); tmpl.Shards != 1 || tmpl.RackTopology.Enclosures != 8 {
		t.Errorf("rack template %+v", tmpl)
	}
	sh, _, _ = newSet(t)
	if sh.Enabled() || sh.Topology() != nil || sh.RackTemplate().Shards != 0 {
		t.Error("flat model should have nil topology")
	}
}

// TestShardingBoardsList: a comma-list -boards yields a heterogeneous
// topology and sizes -enclosures from the list length — unless
// -enclosures was passed explicitly, which wins (and lets Normalize
// report the length mismatch).
func TestShardingBoardsList(t *testing.T) {
	sh, _, _ := newSet(t, "-shards", "1", "-boards", "8,2,2,2")
	topo := sh.Topology()
	if topo == nil || topo.Enclosures != 4 || len(topo.Boards) != 4 ||
		topo.Boards[0] != 8 || topo.Boards[3] != 2 || topo.BoardsPerEnclosure != 0 {
		t.Errorf("list topology %+v", topo)
	}
	sh, _, _ = newSet(t, "-shards", "1", "-boards", "8,2", "-enclosures", "3")
	if topo := sh.Topology(); topo.Enclosures != 3 || len(topo.Boards) != 2 {
		t.Errorf("explicit -enclosures overridden: %+v", topo)
	}
	// Uniform single count: the pre-list behavior, untouched.
	sh, _, _ = newSet(t, "-shards", "1", "-boards", " 6 ")
	if topo := sh.Topology(); topo.BoardsPerEnclosure != 6 || topo.Boards != nil {
		t.Errorf("uniform topology %+v", topo)
	}
}

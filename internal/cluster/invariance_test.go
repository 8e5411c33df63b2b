package cluster_test

import (
	"fmt"
	"reflect"
	"testing"

	"warehousesim/internal/core"
)

// TestExportInvariance: a run's Result and its obs, SLO and energy
// exports are byte-identical at any worker count and, for fleets, under
// any ordering of the same hot set. The flat model's adaptive search
// fans its ramp trials across workers; the fleet fans its hot racks.
// Runs use the golden harness (golden_test.go), so each part is
// compared by digest.
func TestExportInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("invariance runs take a few seconds")
	}
	models := []struct {
		name     string
		hotOrder [][]string // rack/fleet flags per hot-set ordering
	}{
		{"flat", [][]string{nil}},
		{"fleet", [][]string{
			{"-racks", "12", "-hot-set", "3,9", "-balancer", "least-loaded", "-enclosures", "4", "-boards", "2"},
			{"-racks", "12", "-hot-set", "9,3", "-balancer", "least-loaded", "-enclosures", "4", "-boards", "2"},
		}},
	}
	ev := core.NewEvaluator()
	// desk meets websearch's QoS bound on both the analytic and the DES
	// path; emb1 sits next to it so a violating design is covered too.
	for _, system := range []string{"desk", "emb1"} {
		for _, m := range models {
			t.Run(system+"/"+m.name, func(t *testing.T) {
				var ref map[string]string
				for order, args := range m.hotOrder {
					for _, par := range []int{1, 4} {
						got := runGolden(t, ev, goldenCase{
							name: fmt.Sprintf("order%d-par%d", order, par), system: system,
							workload: "websearch", args: args,
							obs: true, sloSec: 1, energySec: 1, par: par,
						})
						for _, part := range []string{"result", "obs", "slo", "energy"} {
							if got[part] == "" {
								t.Fatalf("order %d par %d: no %s digest", order, par, part)
							}
						}
						if ref == nil {
							ref = got
							continue
						}
						if !reflect.DeepEqual(ref, got) {
							t.Errorf("hot-set order %d, par %d: digests differ from order 0, par 1:\n  want %v\n  got  %v",
								order, par, ref, got)
						}
					}
				}
			})
		}
	}
}

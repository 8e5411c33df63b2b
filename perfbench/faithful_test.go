package main

// Faithfulness tests: at the default seed, each workload's composition
// of public calls must reproduce what the user's own tool prints for
// the same job — whbench for paper-tco and paper-memory, whsim for rack
// and fleet-obs.

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"warehousesim/experiments"
	"warehousesim/internal/cluster"
	"warehousesim/internal/memblade"
	"warehousesim/internal/metrics"
	"warehousesim/internal/paper"
	"warehousesim/internal/platform"
	"warehousesim/internal/workload"
)

// runJob runs a workload at a seed and fails the test on any failed
// call.
func runJob(t *testing.T, w benchWorkload, seed uint64) (outputs, *probe) {
	t.Helper()
	p := newProbe(false, "test")
	out := w.run(p, seed)
	if p.failed > 0 || p.attempted == 0 {
		t.Fatalf("%s at seed %d: %d of %d calls failed: %v", w.name, seed, p.failed, p.attempted, p.failures)
	}
	return out, p
}

func mustWorkload(t *testing.T, name string) benchWorkload {
	t.Helper()
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	return w
}

func whbench(t *testing.T, ids ...string) map[string][]string {
	t.Helper()
	reps, err := experiments.Execute(experiments.RunSpec{IDs: ids, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]string{}
	for _, r := range reps {
		out[r.ID] = r.Lines
	}
	return out
}

func pct(v float64) string    { return fmt.Sprintf("%.0f%%", v*100) }
func ratioX(v float64) string { return fmt.Sprintf("%.2fx", v) }

// hasLine reports whether some line starts with prefix.
func hasLine(lines []string, prefix string) bool {
	for _, l := range lines {
		if strings.HasPrefix(l, prefix) {
			return true
		}
	}
	return false
}

var paperTCOOnce = sync.OnceValues(func() (outputs, *probe) {
	w, _ := workloadByName("paper-tco")
	p := newProbe(false, "test")
	return w.run(p, 1), p
})

func TestPaperTCOMatchesWhbench(t *testing.T) {
	if testing.Short() {
		t.Skip("runs table3, fig5 and fig5alt twice")
	}
	out, p := paperTCOOnce()
	if p.failed > 0 {
		t.Fatalf("paper-tco: %v", p.failures)
	}
	reps := whbench(t, "table3", "fig5", "fig5alt")

	t3 := out.tables["table3"]
	for _, d := range metrics.SortedKeys(paper.Table3b) {
		pub := paper.Table3b[d]
		want := fmt.Sprintf("%-22s %6s/%-6s %6s/%-6s %6s/%-6s", d,
			pct(t3.HMeanRelative(metrics.PerfPerInf, "emb1")[d]), pct(pub["Perf/Inf-$"]),
			pct(t3.HMeanRelative(metrics.PerfPerWatt, "emb1")[d]), pct(pub["Perf/W"]),
			pct(t3.HMeanRelative(metrics.PerfPerTCO, "emb1")[d]), pct(pub["Perf/TCO-$"]))
		if !hasLine(reps["table3"], want) {
			t.Errorf("table3: no line %q in\n%s", want, strings.Join(reps["table3"], "\n"))
		}
	}

	f5 := out.tables["fig5"]
	for _, k := range []metrics.Metric{metrics.PerfPerInf, metrics.PerfPerWatt, metrics.PerfPerTCO} {
		rel := f5.Relative(k, "srvr1")
		hm := f5.HMeanRelative(k, "srvr1")
		rows := map[string]map[string]float64{"HMean": hm}
		for _, w := range paper.Workloads {
			rows[w] = rel[w]
		}
		for name, row := range rows {
			want := fmt.Sprintf("  %-11s%-11s%-11s", name, "N1 "+ratioX(row["N1"]), "N2 "+ratioX(row["N2"]))
			if !hasLine(reps["fig5"], want) {
				t.Errorf("fig5 %v: no line starting %q", k, want)
			}
		}
	}

	alt := out.tables["fig5alt"]
	for _, base := range []string{"srvr2", "desk"} {
		hm := alt.HMeanRelative(metrics.PerfPerTCO, base)
		want := fmt.Sprintf("vs %s: N1 hmean %s, N2 hmean %s", base, ratioX(hm["N1"]), ratioX(hm["N2"]))
		if !hasLine(reps["fig5alt"], want) {
			t.Errorf("fig5alt: no line starting %q", want)
		}
	}
}

// TestPaperErrMatchesPrintedPairs recomputes each Figure 5 and Table 3
// cell of paper_err_pct from the model/paper pairs whbench prints and
// checks it agrees with the exact cell up to the printed rounding.
func TestPaperErrMatchesPrintedPairs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fig5 and table3")
	}
	out, p := paperTCOOnce()
	if p.failed > 0 {
		t.Fatalf("paper-tco: %v", p.failures)
	}
	cells := map[string]paperCell{}
	for _, c := range paperCells(out.tables["table3"], out.tables["fig5"]) {
		cells[c.name] = c
	}
	if got := paperError(paperCells(out.tables["table3"], out.tables["fig5"])); got != out.paperErr || out.paperCells != len(cells) {
		t.Fatalf("paper_err_pct %g over %d cells, recomputed %g over %d", out.paperErr, out.paperCells, got, len(cells))
	}
	reps := whbench(t, "table3", "fig5")
	checked := 0
	check := func(name string, model, pub, modelStep float64) {
		c, ok := cells[name]
		if !ok {
			t.Errorf("printed cell %s is not in paper_err_pct", name)
			return
		}
		if math.Abs(c.model-model) > modelStep/2+1e-9 || c.pub != pub {
			t.Errorf("%s: whbench prints %g/%g, paper_err_pct uses %g/%g", name, model, pub, c.model, c.pub)
		}
		checked++
	}
	fig5Line := regexp.MustCompile(`^  (\S+)\s+N1 ([\d.]+)x\s+N2 ([\d.]+)x\s+\(paper ~([\d.]+)x / ~([\d.]+)x\)`)
	for _, l := range reps["fig5"] {
		m := fig5Line.FindStringSubmatch(l)
		if m == nil {
			continue
		}
		w := strings.ToLower(m[1])
		check("fig5/"+w+"/N1", atof(t, m[2]), atof(t, m[4]), 0.01)
		check("fig5/"+w+"/N2", atof(t, m[3]), atof(t, m[5]), 0.01)
	}
	t3Line := regexp.MustCompile(`^(\S+)\s+\d+%/\d+%\s+\d+%/\d+%\s+(\d+)%/(\d+)%`)
	for _, l := range reps["table3"] {
		if m := t3Line.FindStringSubmatch(l); m != nil {
			check("table3/hmean/"+m[1], atof(t, m[2])/100, atof(t, m[3])/100, 0.01)
		}
	}
	if want := 2*len(paper.Workloads) + 2 + len(paper.Table3b); checked != want {
		t.Errorf("checked %d printed cells, want %d", checked, want)
	}
}

func atof(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestPaperMemoryMatchesFig4b renders fig4b's rows from the workload's
// misses per request, the way fig4b derives its slowdowns, and finds
// each row in whbench's report.
func TestPaperMemoryMatchesFig4b(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every engine twice")
	}
	out, _ := runJob(t, mustWorkload(t, "paper-memory"), 1)
	lines := whbench(t, "fig4b")["fig4b"]
	emb1 := cluster.Config{Server: platform.Emb1()}
	for _, p := range workload.SuiteProfiles() {
		mpr := out.mpr[p.Name]
		service := emb1.MeanDemands(p).Total()
		pub := paper.Figure4bSlowdown["pcie-x4"][p.Name]
		scale := pub * service / (mpr[0] * memblade.PCIeX4().StallPerMissSec)
		slow := func(mpr float64, ic memblade.Interconnect) float64 {
			s, err := memblade.Slowdown(memblade.Stats{Misses: int64(mpr * 1e6), Requests: 1e6}, ic, service, scale)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		want := fmt.Sprintf("%-10s %5.1f%%/%4.1f%% %5.1f%%/%4.1f%% %11.1f%% %11.1f%% %7.1f%%",
			p.Name, slow(mpr[0], memblade.PCIeX4())*100, pub*100,
			slow(mpr[0], memblade.CBF())*100, paper.Figure4bSlowdown["cbf"][p.Name]*100,
			slow(mpr[1], memblade.PCIeX4())*100, slow(mpr[1], memblade.CBF())*100,
			slow(mpr[2], memblade.PCIeX4())*100)
		if !hasLine(lines, want) {
			t.Errorf("fig4b: no line %q in\n%s", want, strings.Join(lines, "\n"))
		}
	}
}

// whsim builds whsim from the same sources and runs it.
func whsim(t *testing.T, args ...string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "whsim")
	if b, err := exec.Command("go", "build", "-o", bin, "warehousesim/cmd/whsim").CombinedOutput(); err != nil {
		t.Fatalf("go build whsim: %v\n%s", err, b)
	}
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("whsim %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return stdout.String()
}

// resultLines renders a Result the way whsim prints its DES summary.
func resultLines(r cluster.Result) []string {
	lines := []string{
		fmt.Sprintf("  throughput %.4g rps with %d clients (QoS met: %v)", r.Throughput, r.Clients, r.QoSMet),
		fmt.Sprintf("  latency mean %.1f ms, p95 %.1f ms", r.MeanLatency*1e3, r.P95Latency*1e3),
		fmt.Sprintf("  bottleneck %s; utilization cpu %.0f%% disk %.0f%% net %.0f%%",
			r.Bottleneck, r.Utilization["cpu"]*100, r.Utilization["disk"]*100, r.Utilization["net"]*100),
	}
	if fb := r.Fleet; fb != nil {
		lines = append(lines, fmt.Sprintf("  fleet: %d racks (%d hot DES, %d analytic), balancer %s, %.4g rps/rack demand",
			fb.Racks, len(fb.HotIDs), fb.Racks-len(fb.HotIDs), fb.Balancer, fb.PerRackDemand))
	}
	return lines
}

func checkResultLines(t *testing.T, r cluster.Result, stdout string) {
	t.Helper()
	for _, want := range resultLines(r) {
		if !strings.Contains(stdout, want+"\n") {
			t.Errorf("whsim did not print %q:\n%s", want, stdout)
		}
	}
}

func TestRackMatchesWhsim(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the rack twice")
	}
	out, _ := runJob(t, mustWorkload(t, "rack"), 1)
	checkResultLines(t, out.result, whsim(t, append(rackArgs, "-seed", "1")...))
}

// TestFleetObsMatchesWhsim also compares the three exports with the
// files whsim writes for the same flags: the SLO and energy exports
// whole, the obs export after its manifest line (whsim records more
// run configuration there).
func TestFleetObsMatchesWhsim(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the fleet twice")
	}
	p := newProbe(false, "test")
	out := simulate(p, 1, fleetArgs, "fleet.simulate_s", true)
	if p.failed > 0 {
		t.Fatalf("fleet-obs: %v", p.failures)
	}
	dir := t.TempDir()
	files := []string{filepath.Join(dir, "obs.jsonl"), filepath.Join(dir, "slo.jsonl"), filepath.Join(dir, "energy.jsonl")}
	stdout := whsim(t, append(fleetArgs, "-seed", "1",
		"-obs-out", files[0], "-slo-out", files[1], "-energy-out", files[2])...)
	checkResultLines(t, out.result, stdout)
	for i, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		got := out.exports[i]
		if i == 0 {
			b, got = afterFirstLine(b), afterFirstLine(got)
		}
		if !bytes.Equal(got, b) {
			t.Errorf("%s: export differs from whsim's (%d vs %d bytes)", filepath.Base(f), len(got), len(b))
		}
	}
}

func afterFirstLine(b []byte) []byte {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return nil
}

// TestSecondSeedAndDigest runs the rack at a second seed: every call
// succeeds, the digest repeats exactly, and it differs from seed 1's.
func TestSecondSeedAndDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the rack three times")
	}
	w := mustWorkload(t, "rack")
	_, a := runJob(t, w, 2)
	_, b := runJob(t, w, 2)
	_, c := runJob(t, w, 1)
	if a.digestHex() != b.digestHex() {
		t.Errorf("seed 2 digests differ: %s vs %s", a.digestHex(), b.digestHex())
	}
	if a.digestHex() == c.digestHex() {
		t.Errorf("seeds 1 and 2 give the same digest %s: the seed does not reach the simulation", a.digestHex())
	}
}

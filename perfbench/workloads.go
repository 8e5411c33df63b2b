package main

import (
	"flag"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"warehousesim/internal/cluster"
	"warehousesim/internal/core"
	"warehousesim/internal/core/cliflags"
	"warehousesim/internal/memblade"
	"warehousesim/internal/metrics"
	"warehousesim/internal/obs"
	"warehousesim/internal/obs/energy"
	"warehousesim/internal/paper"
	"warehousesim/internal/platform"
	"warehousesim/internal/power"
	"warehousesim/internal/stats"
	"warehousesim/internal/trace"
	"warehousesim/internal/workload"
	"warehousesim/internal/workload/mapreduce"
	"warehousesim/internal/workload/webmail"
	"warehousesim/internal/workload/websearch"
	"warehousesim/internal/workload/ytube"
)

// benchWorkload is one job a user waits for, composed only of the
// program's public calls.
type benchWorkload struct {
	name string
	// params records what the job runs, for the result's provenance.
	params map[string]string
	run    func(p *probe, seed uint64) outputs
}

// outputs are the simulated results a job leaves behind, kept so the
// faithfulness tests can compare them with whbench and whsim.
type outputs struct {
	tables     map[string]*metrics.Table // paper-tco, by experiment id
	paperErr   float64                   // paper-tco: mean |ln(model/paper)| x 100
	paperCells int
	mpr        map[string][3]float64 // paper-memory: misses/request at pcie@25%, pcie@12.5%, lru@25%
	result     cluster.Result        // rack, fleet-obs
	exports    [3][]byte             // fleet-obs with keep: obs, SLO and energy JSONL
}

var workloads = []benchWorkload{
	{
		name: "paper-tco",
		params: map[string]string{
			"experiments": "table3,fig5,fig5alt", "evaluator_seed": "seed",
			"flash_replay_requests": strconv.Itoa(core.NewEvaluator().FlashReplayRequests),
			"parallelism":           "1",
		},
		run: paperTCO,
	},
	{
		name: "paper-memory",
		params: map[string]string{
			"experiment": "fig4b", "trace_requests": strconv.Itoa(traceRequests),
			"collect_seed": "seed+10", "memblade_seed": "seed+6",
			"replays": "pcie@25%,pcie@12.5%,lru@25%",
		},
		run: paperMemory,
	},
	{
		name:   "rack",
		params: map[string]string{"whsim": strings.Join(rackArgs, " "), "sim_seed": "seed"},
		run:    func(p *probe, seed uint64) outputs { return simulate(p, seed, rackArgs, "cluster.simulate_s", false) },
	},
	{
		name:   "fleet-obs",
		params: map[string]string{"whsim": strings.Join(fleetArgs, " "), "sim_seed": "seed"},
		run:    func(p *probe, seed uint64) outputs { return simulate(p, seed, fleetArgs, "fleet.simulate_s", false) },
	},
}

func workloadByName(name string) (benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

// ---- paper-tco: Table 3, Figure 5 and §3.6 ----

// experiment is one whbench experiment of paper-tco and its designs.
type experiment struct {
	id      string
	designs []core.Design
}

// paperTCODesigns lists each experiment's designs exactly as whbench
// builds them: emb1 with its alternate disk subsystems for table3, and
// the six baselines plus N1 and N2 for fig5 and fig5alt.
func paperTCODesigns() []experiment {
	base := core.BaselineDesign(platform.Emb1())
	table3 := []core.Design{base}
	for _, k := range []core.StorageKind{
		core.RemoteLaptopStorage, core.RemoteLaptopFlashStorage, core.RemoteLaptop2FlashStorage,
	} {
		d := base
		d.Name = k.String()
		d.Storage = k
		table3 = append(table3, d)
	}
	unified := append(core.AllBaselines(), core.NewN1(), core.NewN2())
	return []experiment{{"table3", table3}, {"fig5", unified}, {"fig5alt", unified}}
}

func paperTCO(p *probe, seed uint64) outputs {
	out := outputs{tables: map[string]*metrics.Table{}}
	for _, exp := range paperTCODesigns() {
		id, designs := exp.id, exp.designs
		// Each experiment gets a fresh evaluator, as in whbench, so no
		// flash hit rate is shared between them.
		ev := core.NewEvaluator()
		ev.Seed = seed
		p.call("core.Evaluator.EvaluateSuite/"+id, "core.evaluate_suite_s", func() error {
			tbl, err := ev.EvaluateSuite(designs)
			if err != nil {
				return err
			}
			if want := len(designs) * len(workload.SuiteProfiles()); len(tbl.Rows()) != want {
				return fmt.Errorf("table has %d rows, want %d", len(tbl.Rows()), want)
			}
			for _, m := range tbl.Rows() {
				p.fold(id, m.Workload, m.System, m.Perf, m.QoSMet, m.PowerW, m.InfUSD, m.PCUSD, m.TCOUSD)
				if err := positive(m.System+"/"+m.Workload+" Perf, Perf/TCO-$", m.Perf, m.PerfPerTCOUSD()); err != nil {
					return err
				}
				p.counters["core.measurements"]++
				if !m.QoSMet {
					p.counters["core.qos_infeasible"]++
				}
			}
			out.tables[id] = tbl
			return nil
		})
	}
	if out.tables["table3"] == nil || out.tables["fig5"] == nil {
		return out
	}
	p.call("metrics.Table.Relative/HMeanRelative", "", func() error {
		cells := paperCells(out.tables["table3"], out.tables["fig5"])
		out.paperErr, out.paperCells = paperError(cells), len(cells)
		p.fold("paper_err_pct", out.paperErr, out.paperCells)
		return positive("paper_err_pct", out.paperErr)
	})
	return out
}

// paperCell is one published Perf/TCO-$ value and the model's value
// for the same cell.
type paperCell struct {
	name       string // figure/workload/system, e.g. "fig5/websearch/N2"
	model, pub float64
}

// paperCells pairs the model with the paper on every published
// Perf/TCO-$ cell the job's tables reproduce: Figure 2(c) (baselines vs
// srvr1), Figure 5 (N1/N2 vs srvr1, with its harmonic-mean row) and
// Table 3(b) (disk subsystems vs local-disk emb1, suite harmonic means).
func paperCells(table3, fig5 *metrics.Table) []paperCell {
	var cells []paperCell
	rel := fig5.Relative(metrics.PerfPerTCO, "srvr1")
	hm := fig5.HMeanRelative(metrics.PerfPerTCO, "srvr1")
	for _, w := range paper.Workloads {
		for _, s := range paper.Systems[1:] {
			cells = append(cells, paperCell{"fig2c/" + w + "/" + s, rel[w][s], paper.Figure2cPerfPerTCO[w][s]})
		}
		for _, s := range []string{"N1", "N2"} {
			cells = append(cells, paperCell{"fig5/" + w + "/" + s, rel[w][s], paper.Figure5PerfPerTCO[w][s]})
		}
	}
	for _, s := range []string{"N1", "N2"} {
		cells = append(cells, paperCell{"fig5/hmean/" + s, hm[s], paper.Figure5PerfPerTCO["hmean"][s]})
	}
	hm3 := table3.HMeanRelative(metrics.PerfPerTCO, "emb1")
	for _, d := range metrics.SortedKeys(paper.Table3b) {
		cells = append(cells, paperCell{"table3/hmean/" + d, hm3[d], paper.Table3b[d]["Perf/TCO-$"]})
	}
	return cells
}

// paperError is the mean |ln(model/paper)| x 100 over the cells. A cell
// the model could not produce (missing or non-positive) makes it +Inf.
func paperError(cells []paperCell) float64 {
	var sum float64
	for _, c := range cells {
		if c.model <= 0 || c.pub <= 0 {
			return math.Inf(1)
		}
		sum += math.Abs(math.Log(c.model / c.pub))
	}
	return 100 * sum / float64(len(cells))
}

// ---- paper-memory: the Figure 4(b) pipeline ----

// traceRequests is fig4b's per-workload page-trace length.
const traceRequests = 20000

// memReplays are fig4b's three replay configurations; the CBF columns
// reuse the random-policy miss counts.
var memReplays = []struct {
	name      string
	localFrac float64
	policy    memblade.Policy
}{
	{"pcie@25%", 0.25, memblade.Random},
	{"pcie@12.5%", 0.125, memblade.Random},
	{"lru@25%", 0.25, memblade.LRU},
}

func paperMemory(p *probe, seed uint64) outputs {
	out := outputs{mpr: map[string][3]float64{}}
	tracers := map[string]trace.PageTracer{}
	build := func(name string, mk func() (trace.PageTracer, error)) {
		p.call("workload.New/"+name, "workload.build_s", func() error {
			t, err := mk()
			if err != nil {
				return err
			}
			tracers[name] = t
			return nil
		})
	}
	build("websearch", func() (trace.PageTracer, error) {
		return websearch.New(websearch.DefaultConfig(), workload.WebsearchProfile())
	})
	build("webmail", func() (trace.PageTracer, error) {
		return webmail.New(webmail.DefaultConfig(), workload.WebmailProfile())
	})
	build("ytube", func() (trace.PageTracer, error) {
		return ytube.New(ytube.DefaultConfig(), workload.YtubeProfile())
	})
	build("mapred-wc", func() (trace.PageTracer, error) {
		return mapreduce.NewWordCount(mapreduce.DefaultCorpusConfig(), workload.MapReduceWCProfile())
	})
	build("mapred-wr", func() (trace.PageTracer, error) {
		return mapreduce.NewWrite(mapreduce.DefaultCorpusConfig(), 64, workload.MapReduceWRProfile())
	})

	for _, prof := range workload.SuiteProfiles() {
		tracer, ok := tracers[prof.Name]
		if !ok {
			continue // its build failed and was counted
		}
		var tr *trace.PageTrace
		p.call("trace.CollectPages/"+prof.Name, "trace.collect_s", func() error {
			tr = trace.CollectPages(tracer, stats.NewRNG(seed+10), traceRequests)
			if tr.Requests() != traceRequests || len(tr.Accesses) == 0 {
				return fmt.Errorf("trace has %d requests and %d accesses, want %d requests", tr.Requests(), len(tr.Accesses), traceRequests)
			}
			p.counters["trace.page_accesses"] += float64(len(tr.Accesses))
			return nil
		})
		if tr == nil || tr.Requests() != traceRequests {
			continue
		}
		footprint := int64(prof.MemFootprintMB * 1e6 / 4096)
		var mpr [3]float64
		for i, rc := range memReplays {
			p.call("memblade.Replay/"+prof.Name+"/"+rc.name, "memblade.replay_s", func() error {
				st, err := memReplay(tr, footprint, rc.localFrac, rc.policy, seed+6)
				if err != nil {
					return err
				}
				p.fold("memblade", prof.Name, rc.name, st.Accesses, st.Misses, st.Writebacks, st.Requests)
				p.counters["memblade.accesses"] += float64(st.Accesses)
				mpr[i] = st.MissesPerRequest()
				return positive("misses per request", mpr[i])
			})
		}
		out.mpr[prof.Name] = mpr
	}
	return out
}

// memReplay replays a trace through a fresh two-level memory the way
// fig4b does: the first half of the requests warms local memory and
// only the second half is measured. It returns the measured half's
// stats.
func memReplay(tr *trace.PageTrace, footprintPages int64, localFrac float64, pol memblade.Policy, seed uint64) (memblade.Stats, error) {
	sim, err := memblade.New(memblade.Config{
		FootprintPages: footprintPages,
		LocalFraction:  localFrac,
		Policy:         pol,
		Seed:           seed,
	})
	if err != nil {
		return memblade.Stats{}, err
	}
	half := len(tr.RequestEnds) / 2
	split := tr.RequestEnds[half-1]
	warm := &trace.PageTrace{Accesses: tr.Accesses[:split], RequestEnds: tr.RequestEnds[:half]}
	measure := &trace.PageTrace{Accesses: tr.Accesses[split:], RequestEnds: make([]int, 0, len(tr.RequestEnds)-half)}
	for _, e := range tr.RequestEnds[half:] {
		measure.RequestEnds = append(measure.RequestEnds, e-split)
	}
	before := memblade.Replay(sim, warm)
	after := memblade.Replay(sim, measure)
	return memblade.Stats{
		Accesses:   after.Accesses - before.Accesses,
		Misses:     after.Misses - before.Misses,
		Writebacks: after.Writebacks - before.Writebacks,
		Requests:   after.Requests - before.Requests,
	}, nil
}

// ---- rack and fleet-obs: whsim DES runs ----

// rackArgs is the ROADMAP's re-anchor rack: 128 desk boards on one
// shard, saturating the SAN.
var rackArgs = []string{
	"-system", "desk", "-workload", "websearch", "-des", "-measure", "300",
	"-shards", "1", "-enclosures", "16", "-boards", "8", "-clients-per-board", "16",
	"-par", "1",
}

// fleetArgs is a 400-rack hybrid fleet over the same rack template, two
// hot DES racks in parallel, with every telemetry plane on.
var fleetArgs = []string{
	"-system", "desk", "-workload", "websearch", "-des", "-measure", "300",
	"-shards", "1", "-enclosures", "16", "-boards", "8", "-clients-per-board", "16",
	"-racks", "400", "-hot-racks", "2", "-balancer", "wrr", "-par", "2",
	"-obs", "-slo-window", "1s", "-energy-window", "1s",
}

// simSpec is a whsim command line resolved through whsim's own flag
// groups, so the topology and telemetry options are exactly the ones
// whsim builds from the same flags.
type simSpec struct {
	system, workload string
	measure          float64
	par              int
	obs              bool
	sharding         *cliflags.Sharding
	fleet            *cliflags.Fleet
	slo              *cliflags.SLO
	energy           *cliflags.Energy
}

func parseSimArgs(args []string) (simSpec, error) {
	fs := flag.NewFlagSet("whsim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var s simSpec
	fs.StringVar(&s.system, "system", "srvr1", "")
	fs.StringVar(&s.workload, "workload", "websearch", "")
	des := fs.Bool("des", false, "")
	fs.Float64Var(&s.measure, "measure", 120, "")
	fs.IntVar(&s.par, "par", 1, "")
	fs.BoolVar(&s.obs, "obs", false, "")
	s.sharding = cliflags.AddSharding(fs)
	s.fleet = cliflags.AddFleet(fs, s.sharding)
	s.slo = cliflags.AddSLO(fs)
	s.energy = cliflags.AddEnergy(fs)
	if err := fs.Parse(args); err != nil {
		return s, err
	}
	if !*des {
		return s, fmt.Errorf("not a DES run: %q", strings.Join(args, " "))
	}
	return s, cliflags.Validate(s.sharding, s.fleet, s.slo, s.energy)
}

// simulate runs one whsim DES job: the analytic evaluation whsim prints
// first, then one Simulate call and, with telemetry on, the three
// exports. With keep set the export bytes are returned as well.
func simulate(p *probe, seed uint64, args []string, simGroup string, keep bool) outputs {
	var out outputs
	spec, err := parseSimArgs(args)
	if err != nil {
		p.call("whsim flags", "", func() error { return err })
		return out
	}
	srv, ok := platform.ByName(spec.system)
	prof, okp := workload.ProfileByName(spec.workload)
	if !ok || !okp {
		p.call("whsim flags", "", func() error { return fmt.Errorf("unknown system or workload") })
		return out
	}
	d := core.BaselineDesign(srv)
	ev := core.NewEvaluator()

	var cfg cluster.Config
	p.call("core.Evaluator.Evaluate", "", func() error {
		ms, err := ev.Evaluate(d, []workload.Profile{prof})
		if err != nil {
			return err
		}
		m := ms[0]
		p.fold("analytic", m.Perf, m.QoSMet, m.PowerW, m.TCOUSD)
		if err := positive("analytic Perf", m.Perf); err != nil {
			return err
		}
		cfg, err = ev.ClusterConfig(d, prof)
		return err
	})

	opts := cluster.DefaultSimOptions()
	opts.Seed = seed
	opts.MeasureSec = spec.measure
	opts.ProbeIntervalSec = 1
	opts.Parallelism = spec.par
	if ft := spec.fleet.Topology(); ft != nil {
		opts.Topology = ft
	} else if t := spec.sharding.Topology(); t != nil {
		opts.Topology = t
	}
	var diag, sink *obs.Sink
	if p.tracing {
		diag = obs.NewSink()
		opts.ShardDiag = diag
	}
	if spec.obs || spec.slo.Enabled() || spec.energy.Enabled() {
		sink = obs.NewSink()
		opts.Obs = sink
		opts.SLOWindowSec = spec.slo.WindowSec()
		if spec.energy.Enabled() {
			p.call("core.Evaluator.PowerBreakdown", "", func() error {
				pb, err := ev.PowerBreakdown(d)
				opts.Energy = &energy.Config{
					WidthSec: spec.energy.WindowSec(),
					Model:    energy.Model{Active: pb, Idle: power.DefaultIdleFractions()},
				}
				return err
			})
		}
	}

	var res cluster.Result
	simOK := false
	p.call("cluster.Config.Simulate", simGroup, func() error {
		var err error
		res, err = cfg.Simulate(workload.FixedGenerator{P: prof}, opts)
		if err != nil {
			return err
		}
		foldResult(p, res)
		if res.Clients <= 0 {
			return fmt.Errorf("result has %d clients", res.Clients)
		}
		if err := positive("throughput, Perf", res.Throughput, res.Perf); err != nil {
			return err
		}
		simOK = true
		return nil
	})
	out.result = res
	if !simOK {
		return out
	}
	p.counters["cluster.requests"] = math.Round(res.Throughput * opts.MeasureSec)
	if diag != nil && spec.fleet.Topology() == nil {
		for i := 0; i < spec.sharding.RackTemplate().Shards; i++ {
			p.counters["des.events"] += float64(diag.CounterValue(fmt.Sprintf("shard.fired.s%d", i)))
			p.counters["shard.windows"] += float64(diag.CounterValue(fmt.Sprintf("shard.windows.s%d", i)))
		}
	}
	if sink == nil {
		return out
	}

	man := obs.NewManifest(prof.Name, d.Name, seed)
	man.Config["warmup_sec"] = strconv.FormatFloat(opts.WarmupSec, 'g', -1, 64)
	man.Config["measure_sec"] = strconv.FormatFloat(opts.MeasureSec, 'g', -1, 64)
	man.SimTimeSec = opts.WarmupSec + opts.MeasureSec
	man.SetEvents(sink.CounterValue("des.events"))
	p.counters["des.events"] = float64(sink.CounterValue("des.events"))
	sink.SetManifest(man)
	p.counters["obs.events"] = float64(len(sink.Events()))
	p.counters["obs.dropped_events"] = float64(sink.DroppedEvents())
	if res.SLO != nil {
		p.counters["window.windows"] = float64(len(res.SLO.Windows()))
	}
	if res.Energy != nil {
		p.counters["energy.windows"] = float64(len(res.Energy.Windows()))
	}
	export := func(i int, name string, write func(io.Writer) error, present bool) {
		p.call(name, "obs.export_s", func() error {
			if !present {
				return fmt.Errorf("no collector to export")
			}
			w := &countingWriter{keep: keep}
			if err := write(w); err != nil {
				return err
			}
			p.fold(name, w.n, w.crc)
			p.counters["obs.export_mb"] += float64(w.n) / 1e6
			out.exports[i] = w.buf
			if w.n == 0 {
				return fmt.Errorf("empty export")
			}
			return nil
		})
	}
	export(0, "obs.Sink.WriteJSONL", sink.WriteJSONL, true)
	export(1, "window.Collector.WriteJSONL", func(w io.Writer) error {
		return res.SLO.WriteJSONL(w, res.SLOParts...)
	}, res.SLO != nil)
	export(2, "energy.Collector.WriteJSONL", func(w io.Writer) error {
		return res.Energy.WriteJSONL(w)
	}, res.Energy != nil)
	return out
}

// foldResult writes every reported field of a DES result into the
// digest, per-rack fleet detail included.
func foldResult(p *probe, r cluster.Result) {
	p.fold("result", r.Throughput, r.Perf, r.QoSMet, r.MeanLatency, r.P95Latency,
		r.ExecTime, r.Bottleneck, r.Clients)
	foldUtil(p, "util", r.Utilization)
	if fb := r.Fleet; fb != nil {
		p.fold("fleet", fb.Racks, fmt.Sprint(fb.HotIDs), fb.Balancer, fb.PerRackDemand,
			fb.ColdDemand, fb.ColdUnserved)
		for _, rr := range fb.RackResults {
			p.fold("rack", rr.ID, rr.Hot, rr.Throughput, rr.MeanLatency, rr.P95Latency, rr.QoSMet, rr.Clients)
			foldUtil(p, "rack-util", rr.Utilization)
		}
	}
}

func foldUtil(p *probe, label string, u map[string]float64) {
	keys := make([]string, 0, len(u))
	for k := range u {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		p.fold(label, k, u[k])
	}
}

// countingWriter counts and checksums an export's bytes, keeping them
// only when asked to.
type countingWriter struct {
	n    int64
	crc  uint32
	keep bool
	buf  []byte
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func (w *countingWriter) Write(b []byte) (int, error) {
	w.n += int64(len(b))
	w.crc = crc32.Update(w.crc, castagnoli, b)
	if w.keep {
		w.buf = append(w.buf, b...)
	}
	return len(b), nil
}

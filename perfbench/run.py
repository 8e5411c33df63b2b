#!/usr/bin/env python3
"""Run the warehousesim benchmark: build perfbench, run one workload's
jobs for a set time, each in a fresh process, check every output, and
print the metrics.

    python3 perfbench/run.py --workload rack --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn
    python3 perfbench/run.py --workload rack --trace 1 # per-layer metrics

Run it from anywhere inside a checkout of the repository. The last line
of standard output is one JSON object: {"correct", "attempted",
"failed", "metrics"}. With --trace 0 the metrics are the end-to-end
ones, with --trace 1 the per-layer ones. A readable summary goes to
standard error, and the full record of the run, spans included, to
.bench_build/perfbench/results/. The exit code is 1 when any output
check fails or the program cannot be built.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ("paper-tco", "paper-memory", "rack", "fleet-obs")
MODULES = ("stats", "trace", "flashcache", "memblade", "workload", "core", "cluster",
           "des", "shard", "obs", "window", "energy", "metrics", "bench", "other", "runtime")
# Set-up is short and noisy, so every run samples it this many times.
SETUP_SAMPLES = 41

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(OUT, "perfbench")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Build perfbench from the checkout's sources, keeping the Go build
    cache inside the checkout."""
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(OUT, "gocache"),
        "GOPATH": os.path.join(OUT, "gopath"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
        "GOFLAGS": "",
        "CGO_ENABLED": "0",
    })
    env.pop("GOMAXPROCS", None)
    os.makedirs(OUT, exist_ok=True)
    proc = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                          timeout=850)
    if proc.returncode != 0:
        log(proc.stdout)
        raise RuntimeError("go build failed")


def job(workload, seed, *flags):
    """Run one perfbench process and return its record, with setup_s:
    the time from just before exec to the start of its timed section."""
    cmd = [BINARY, "-workload", workload, "-seed", str(seed), *flags]
    t0 = time.time_ns()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    rec["setup_s"] = (rec["timed_start_unix_ns"] - t0) / 1e9
    return rec


def median(vals):
    return statistics.median(vals) if vals else 0.0


def per_layer(untraced, traced):
    """Per-layer metrics: host and runtime counters from the untraced
    jobs, module CPU, spans and counts from the traced ones, each the
    median over the jobs of the run."""
    m = {}
    for mod in MODULES:
        m[f"{mod}.self_cpu_s"] = (median([r["module_cpu_s"].get(mod, 0.0) for r in traced]), "s")
    m["host.cpu_s"] = (median([r["cpu_s"] for r in untraced]), "s")
    m["host.wall_s"] = (median([r["wall_s"] for r in untraced]), "s")
    m["host.cpu_util"] = (median([r["cpu_s"] / r["wall_s"] for r in untraced]), "ratio")
    m["runtime.alloc_mb"] = (median([r["alloc_mb"] for r in untraced]), "MB")
    m["runtime.gc_cycles"] = (median([r["gc_cycles"] for r in untraced]), "count")

    def span(group):
        return median([r["span_s"].get(group, 0.0) for r in traced])

    def count(name):
        return median([r["counters"].get(name, 0.0) for r in traced])

    for group in ("core.evaluate_suite_s", "workload.build_s", "trace.collect_s",
                  "memblade.replay_s", "cluster.simulate_s", "fleet.simulate_s", "obs.export_s"):
        m[group] = (span(group), "s")
    for name in ("core.measurements", "core.qos_infeasible", "trace.page_accesses",
                 "memblade.accesses", "cluster.requests", "des.events", "shard.windows",
                 "obs.events", "obs.dropped_events", "window.windows", "energy.windows"):
        m[name] = (count(name), "count")
    m["obs.export_mb"] = (count("obs.export_mb"), "MB")
    m["paper_err_pct"] = (median([r.get("paper_err_pct", 0.0) for r in traced]), "%")
    m["paper_cells"] = (median([r.get("paper_cells", 0) for r in traced]), "count")

    def per_event(r):
        events = r["counters"].get("des.events", 0.0)
        sim = r["span_s"].get("cluster.simulate_s", 0.0) + r["span_s"].get("fleet.simulate_s", 0.0)
        return sim * 1e9 / events if events else 0.0

    def per_window(r):
        # The single-shard engine takes its fast path with no barrier
        # windows at all: the whole run counts as one window.
        c = r["counters"]
        if "shard.windows" not in c:
            return 0.0
        return c.get("des.events", 0.0) / max(c["shard.windows"], 1.0)

    def fleet_util(r):
        s = [s for s in r["spans"] if s["group"] == "fleet.simulate_s"]
        dur = sum(x["end_unix_ns"] - x["start_unix_ns"] for x in s) / 1e9
        return sum(x["cpu_s"] for x in s) / dur if dur > 0 else 0.0

    m["des.ns_per_event"] = (median([per_event(r) for r in traced]), "ns")
    m["shard.events_per_window"] = (median([per_window(r) for r in traced]), "count")
    m["fleet.cpu_util"] = (median([fleet_util(r) for r in traced]), "ratio")
    m["trace.overhead_ratio"] = (median([r["cpu_s"] for r in traced]) /
                                 median([r["cpu_s"] for r in untraced]), "ratio")
    return m


def fingerprint(rec):
    fp = dict(rec.get("env", {}))
    fp["cpu_model"] = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    fp["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    fp["git_rev"] = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        if proc.returncode == 0:
            fp["git_rev"] = proc.stdout.strip()
    return fp


def run_workload(workload, seed, seconds, trace):
    """Run one workload for `seconds` and return (result line, record)."""
    start = time.monotonic()
    setup = [job(workload, seed, "-setup-only")["setup_s"] for _ in range(SETUP_SAMPLES)]
    untraced, traced = [], []
    n = 0
    while True:
        t = time.monotonic()
        untraced.append(job(workload, seed))
        if trace:
            traced.append(job(workload, seed, "-trace", "-run-id", f"{workload}-s{seed}-j{n}"))
        n += 1
        step = time.monotonic() - t
        if time.monotonic() - start + step > seconds:
            break

    records = untraced + traced
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    failures = [f for r in records for f in r.get("failures", [])]
    # Every job ran the same binary at the same seed, so every digest
    # must be the reference one; each job that differs counts as a
    # failed call.
    ref = untraced[0]["digest"]
    for r in records:
        if r["digest"] != ref:
            failed += 1
            failures.append(f"digest {r['digest'][:16]} != {ref[:16]} (job is not deterministic)")

    if trace:
        metrics = per_layer(untraced, traced)
    else:
        # The job's time is its CPU time, not its wall time: on a shared
        # host the hypervisor takes the vCPU away (steal) in phases that
        # last tens of seconds, and that alone spread the median wall
        # time of a run by more than 20% between runs of the same code.
        # Wall time stays in the per-layer metrics as host.wall_s.
        metrics = {
            "cpu_s": (median([r["cpu_s"] for r in untraced]), "s"),
            "peak_rss_mb": (median([r["peak_rss_mb"] for r in untraced]), "MB"),
            "setup_s": (median(setup), "s"),
        }
    correct = failed == 0
    line = {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}

    paper = untraced[0].get("paper_err_pct")
    log(f"workload {workload}  seed {seed}  jobs {len(untraced)} untraced + {len(traced)} traced"
        f"  digest {ref[:16]}")
    for k, (v, u) in metrics.items():
        log(f"  {k:28s} {v:14.6g} {u}")
    log(f"  {'error_rate':28s} {failed / attempted:14.6g} ratio")
    if paper is not None:
        log(f"  {'paper_err_pct':28s} {paper:14.6g} % (over {untraced[0]['paper_cells']} cells)")
    for f in failures:
        log(f"  FAILED {f}")

    record = dict(line)
    record.update({
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "params": untraced[0]["params"], "fingerprint": fingerprint(untraced[0]),
        "digest": ref, "error_rate": failed / attempted, "paper_err_pct": paper,
        "failures": failures, "setup_samples_s": setup,
        "jobs": [{k: v for k, v in r.items() if k not in ("params", "env", "spans")}
                 for r in records],
        "spans": [s for r in traced for s in r["spans"]],
    })
    return line, record


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        build()
    except (OSError, RuntimeError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: {e}")
        return 1
    ok = True
    for w in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            line, record = run_workload(w, args.seed, args.seconds, args.trace)
        except (OSError, RuntimeError, ValueError, subprocess.TimeoutExpired) as e:
            log(f"perfbench: {w}: {e}")
            return 1
        os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
        path = os.path.join(OUT, "results", f"{w}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w") as f:
            json.dump(record, f, indent=1)
        print(json.dumps(line), flush=True)
        ok = ok and line["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

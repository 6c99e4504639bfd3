#!/usr/bin/env python3
"""vsmooth benchmark: the paper's experiments and the serve daemon,
measured from outside the program.

    python3 perfbench/run.py --workload sched_study --seed 1 \
        --seconds 20 --trace 0

Run from the repository root. The first run builds the program and the
`perfbench` binary (Release) into $CARGO_TARGET_DIR or .bench_build.

Workloads (see perfbench/README.md for why each exists):
  sched_study   fig17, fig18, fig19, table1 through `vsmooth verify`
  characterize  the other 20 registry experiments, the same way
  serve_mix     a fresh `vsmooth serve --workers 2` daemon, 2 closed-loop
                connections, seeded oracle_cell misses and hits

--trace 0 prints every end-to-end metric; --trace 1 re-runs the
workload with spans and prints every per-layer metric. The last line of
stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}. Everything else goes to stderr or earlier stdout lines.

    python3 perfbench/run.py --selftest
shows that the correctness gate counts a perturbed Result and a flipped
serve response as failures.
"""

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".perfbench")
NPROC = os.cpu_count() or 1

EXPERIMENTS = [
    "fig01_future_swings", "fig02_margin_frequency", "fig04_impedance",
    "fig05_reset_droops", "fig06_decap_swings", "fig07_voltage_cdf",
    "fig08_typical_case", "fig09_future_cdf", "fig10_heatmaps",
    "fig11_tlb_overshoot", "fig12_event_swings", "fig13_interference",
    "fig14_noise_phases", "fig15_stall_correlation", "fig16_sliding_window",
    "fig17_coschedule_spread", "fig18_policy_scatter", "fig19_pass_increase",
    "table1_optimal_margins", "ablation_core_scaling",
    "ablation_mitigations", "ablation_noise_model", "adaptive_margin",
    "fault_injection",
]
SCHED_STUDY = ["fig17_coschedule_spread", "fig18_policy_scatter",
               "fig19_pass_increase", "table1_optimal_margins"]
WORKLOADS = {
    "sched_study": SCHED_STUDY,
    "characterize": [e for e in EXPERIMENTS if e not in SCHED_STUDY],
    "serve_mix": None,
}
# serve_mix covers all 870 cells (435 unordered SPEC pairs x 2 decaps).
# The experiment workloads end with a fixed serve segment (100-cell
# passes for 10 s) so every end-to-end metric exists on every workload.
# Many short passes, because host speed drifts over seconds and the
# latency rows are medians over passes.
SERVE_CELLS = 870
CONTROL_CELLS = 100
CONTROL_SECONDS = 10
SETUP_REPEATS = 10


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def fail(message):
    log("perfbench: " + message)
    sys.exit(1)


def now():
    return time.monotonic()


class Tracer:
    """Spans (name, id, parent, request, start, end) held in memory and
    written out once at exit; a no-op when tracing is off."""

    def __init__(self, on):
        self.on = on
        self.spans = []

    def add(self, name, parent, request, start, end):
        if not self.on:
            return 0
        self.spans.append({"name": name, "id": len(self.spans) + 1,
                           "parent": parent, "request": request,
                           "start": start, "end": end})
        return len(self.spans)

    def write(self, path):
        with open(path, "w") as f:
            json.dump(self.spans, f)


class Build:
    """The program and the `perfbench` binary, built from this checkout."""

    def __init__(self):
        build_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        self.dir = os.path.join(ROOT, build_dir)
        self.vsmooth = os.path.join(self.dir, "vsmooth", "src", "tools",
                                    "vsmooth")
        self.bench_dir = os.path.join(self.dir, "vsmooth", "bench")
        self.perfbench = os.path.join(self.dir, "perfbench")
        self.golden = os.path.join(ROOT, "bench", "golden")

    def make(self):
        for need in ("CMakeLists.txt", "src", "bench/golden"):
            if not os.path.exists(os.path.join(ROOT, need)):
                fail(f"no {need} under {ROOT}: not a vsmooth checkout")
        if not os.path.exists(os.path.join(self.dir, "CMakeCache.txt")):
            self._run(["cmake", "-S", HERE, "-B", self.dir,
                       "-DCMAKE_BUILD_TYPE=Release"])
        self._run(["cmake", "--build", self.dir])

    @staticmethod
    def _run(cmd):
        # Build output goes to stderr: stdout carries only results.
        rc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode
        if rc != 0:
            fail(f"build failed: {' '.join(cmd)}")


def wait_rss(proc):
    """Reap `proc`; returns (exit code, peak RSS in MB over it and the
    children it reaped)."""
    _, status, ru = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, ru.ru_maxrss / 1024.0


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def count(self, ok, reason=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(reason)

    def absorb(self, attempted, failed, reasons):
        self.attempted += attempted
        self.failed += failed
        self.reasons += reasons

    def success_rate(self):
        return (self.attempted - self.failed) / max(1, self.attempted)


def verify(build, experiment, workdir, golden=None):
    """One `vsmooth verify --experiments <experiment>`: the program runs
    the experiment binary and diffs its Result against the golden.
    Returns (ok, peak RSS MB, seconds, output)."""
    env = dict(os.environ, VSMOOTH_JOBS=str(NPROC), TMPDIR=workdir)
    out_path = os.path.join(workdir, experiment + ".out")
    start = now()
    with open(out_path, "w") as out:
        proc = subprocess.Popen(
            [build.vsmooth, "verify", "--bench-dir", build.bench_dir,
             "--golden-dir", golden or build.golden,
             "--experiments", experiment],
            stdout=out, stderr=subprocess.STDOUT, env=env)
        rc, rss = wait_rss(proc)
    seconds = now() - start
    with open(out_path) as f:
        output = f.read()
    return rc == 0, rss, seconds, output


def experiment_setup(build):
    """Everything before the first timed call: a fresh work directory
    and a cold start of the program (`vsmooth verify --list`)."""
    start = now()
    workdir = tempfile.mkdtemp(prefix="pass-",
                               dir=os.path.join(STATE, "tmp"))
    listing = subprocess.run([build.vsmooth, "verify", "--list"],
                             capture_output=True, text=True)
    seconds = now() - start
    if listing.returncode != 0 or SCHED_STUDY[0] not in listing.stdout:
        fail("`vsmooth verify --list` failed")
    return seconds, workdir


def experiment_pass(build, experiments, rng, tally, tracer, spans):
    """Cold-start set-up (repeated; median reported), then every
    experiment of the workload in seeded order. Returns (setup seconds
    list, pass wall seconds, peak RSS MB)."""
    setups = []
    workdir = None
    for _ in range(SETUP_REPEATS):
        if workdir:
            shutil.rmtree(workdir)
        seconds, workdir = experiment_setup(build)
        setups.append(seconds)
    order = list(experiments)
    rng.shuffle(order)
    rss = 0.0
    start = now()
    calls = []
    for experiment in order:
        ok, peak, seconds, output = verify(build, experiment, workdir)
        end = now()
        calls.append((experiment, end - seconds, end))
        rss = max(rss, peak)
        tally.count(ok, f"{experiment}: {output.strip()[-400:]}")
    wall = now() - start
    # Cold state: nothing the program wrote survives the pass.
    shutil.rmtree(workdir)
    if tracer.on:
        top = tracer.add("workload.pass", 0, 0, start, start + wall)
        for i, (experiment, s, e) in enumerate(calls, 1):
            tracer.add("verify." + experiment, top, i, s, e)
            spans.setdefault(experiment, []).append(e - s)
    return setups, wall, rss


def serve_session(build, seed, seconds, cells, trace_out=None):
    cmd = [build.perfbench, "serve", "--vsmooth", build.vsmooth,
           "--work-dir", os.path.join(STATE, "tmp"), "--seed", str(seed),
           "--seconds", str(seconds), "--distinct", str(cells)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        fail("serve session failed: " + proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(build, workload, seed, seconds, tracer, spans):
    """One measurement of the workload. Returns (end-to-end values,
    serve summary, tally)."""
    tally = Tally()
    rng = random.Random(seed)
    trace_out = None
    if tracer.on:
        trace_out = os.path.join(STATE, "traces",
                                 f"{workload}-seed{seed}-serve.json")
    if workload == "serve_mix":
        serve = serve_session(build, seed, seconds, SERVE_CELLS, trace_out)
        values = {"wall_s": serve["wall_s"], "setup_s": serve["setup_s"],
                  "peak_rss_mb": serve["peak_rss_mb"]}
    else:
        setups, walls, peaks = [], [], []
        begin = now()
        while True:
            s, wall, peak = experiment_pass(build, WORKLOADS[workload], rng,
                                            tally, tracer, spans)
            setups += s
            walls.append(wall)
            peaks.append(peak)
            if now() - begin + wall > seconds:
                break
        serve = serve_session(build, seed, CONTROL_SECONDS if seconds else 0,
                              CONTROL_CELLS, trace_out)
        values = {"wall_s": statistics.median(walls),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": statistics.median(peaks)}
    # The serve segment's thousands of items must not dilute the
    # experiments' own few: report the lower of the two rates.
    serve_tally = Tally()
    serve_tally.absorb(serve["attempted"], serve["failed"], serve["failures"])
    rates = [serve_tally.success_rate()]
    if workload != "serve_mix":
        rates.append(tally.success_rate())
    values["success_rate"] = min(rates)
    tally.absorb(serve_tally.attempted, serve_tally.failed,
                 serve_tally.reasons)
    for key in ("items_per_s", "hit_ms_p50", "hit_ms_p90", "miss_ms_p50",
                "miss_ms_p90"):
        values[key] = serve[key]
    return values, serve, tally


def load_benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def experiment_selftest(build):
    """A perturbed expected Result must fail `vsmooth verify`'s golden
    comparison, and be counted by the same tally the workloads use."""
    experiment = "fig04_impedance"
    workdir = tempfile.mkdtemp(prefix="selftest-",
                               dir=os.path.join(STATE, "tmp"))
    golden = os.path.join(workdir, "golden")
    os.mkdir(golden)
    with open(os.path.join(build.golden, experiment + ".json")) as f:
        doc = json.load(f)
    name = next(iter(doc["metrics"]))
    doc["metrics"][name] *= 1.01
    with open(os.path.join(golden, experiment + ".json"), "w") as f:
        json.dump(doc, f, indent=2)
    tally = Tally()
    for golden_dir in (build.golden, golden):
        ok, _, _, output = verify(build, experiment, workdir, golden_dir)
        tally.count(ok, output)
    shutil.rmtree(workdir)
    return tally.attempted == 2 and tally.failed == 1


def selftest(build):
    proc = subprocess.run(
        [build.perfbench, "selftest", "--vsmooth", build.vsmooth,
         "--work-dir", os.path.join(STATE, "tmp"), "--seed", "1"],
        capture_output=True, text=True)
    serve_ok = proc.returncode == 0
    experiment_ok = experiment_selftest(build)
    log(f"selftest: perturbed Result counted as failure: {experiment_ok}; "
        f"flipped serve byte counted as failure: {serve_ok}")
    return serve_ok and experiment_ok


def traced_run(build, workload, seed):
    """The workload untraced once (the overhead base), then traced,
    then the layer probes. Returns (per-layer values, correct, tally)."""
    spans = {}
    base, _, base_tally = run_workload(build, workload, seed, 0,
                                       Tracer(False), spans)
    tracer = Tracer(True)
    traced, serve, tally = run_workload(build, workload, seed, 0, tracer,
                                        spans)
    tally.absorb(base_tally.attempted, base_tally.failed, base_tally.reasons)
    values = {"trace_overhead_frac": traced["wall_s"] / base["wall_s"] - 1.0}

    # verify.<experiment>_s for the experiments this workload did not run.
    others = [e for e in EXPERIMENTS if e not in spans]
    if others:
        workdir = tempfile.mkdtemp(prefix="probe-",
                                   dir=os.path.join(STATE, "tmp"))
        top = tracer.add("probe.verify", 0, 0, now(), 0.0)
        for i, experiment in enumerate(others, 1):
            ok, _, seconds, output = verify(build, experiment, workdir)
            tally.count(ok, f"{experiment}: {output.strip()[-400:]}")
            end = now()
            tracer.add("verify." + experiment, top, i, end - seconds, end)
            spans[experiment] = [seconds]
        tracer.spans[top - 1]["end"] = now()
        shutil.rmtree(workdir)
    for experiment in EXPERIMENTS:
        values[f"verify.{experiment}_s"] = statistics.median(spans[experiment])

    proc = subprocess.run([build.perfbench, "probes", "--workload", workload,
                           "--seed", str(seed)],
                          capture_output=True, text=True)
    if not proc.stdout.strip():
        fail("probes failed: " + proc.stderr[-2000:])
    probes = json.loads(proc.stdout.strip().splitlines()[-1])
    values.update(probes["metrics"])
    values["serve.daemon_overhead_ms"] = (serve["miss_ms_p50"]
                                          - values["serve.run_batch_item_ms"])
    values["serve.ping_rtt_us"] = serve["ping_rtt_us"]
    values["serve.cache_hit_ratio"] = serve["cache_hit_ratio"]
    values["serve.rejected"] = serve["rejected"]

    log(f"stage-replay identity (System::run and LaneGroup::run, bit for "
        f"bit): {json.dumps(probes['identity'])}")
    split = probes["split"]
    log(f"laned split, share of LaneGroup::run "
        f"({split['lanegroup_ns_per_lane_cyc']:.2f} ns/lane-cycle, "
        f"{split['simd']}), beside ROADMAP's gprof split of "
        f"BM_PopulationLaned (avx2x8):")
    for label, share, gprof in (
            ("FastCore tickBlock", split["fastcore"], 0.34),
            ("stepFused self: bank feed + gather/scatter",
             split["bank_feed"] + split["gather_scatter_residual"], 0.31),
            ("lane kernel", split["lane_kernel"], 0.21),
            ("Histogram::addBlock (scope)", split["scope_addblock"], 0.08),
            ("steady conversion", split["steady"], 0.035)):
        log(f"  {label:44s} {share:6.1%}   gprof {gprof:5.1%}")
    log(f"solo: System::run {split['solo_ns_per_cyc']:.2f} ns/cycle, stage "
        f"sum {split['solo_stage_sum_ns_per_cyc']:.2f}, residual "
        f"{split['solo_residual_ns_per_cyc']:.2f}")
    for name, base_text in probes["bases"].items():
        log(f"base of {name}: {base_text}")
    log(f"base of trace_overhead_frac: traced wall {traced['wall_s']:.4f} s "
        f"vs untraced {base['wall_s']:.4f} s")
    log(f"base of serve.daemon_overhead_ms: traced miss p50 "
        f"{serve['miss_ms_p50']:.4f} ms ({serve['miss_samples']} misses) "
        f"minus run_batch_item {values['serve.run_batch_item_ms']:.4f} ms")
    log(f"base of serve.cache_hit_ratio: daemon stats {serve['cache_hits']} "
        f"hits / {serve['cache_hits'] + serve['cache_misses']} lookups; "
        f"planned {serve['planned_hit_ratio']:.4f}")
    tracer.write(os.path.join(STATE, "traces",
                              f"{workload}-seed{seed}-verify.json"))
    # Every planned hit is sent only after its miss was acknowledged, so
    # the daemon's own hit ratio must equal the planned one exactly.
    hits_as_planned = serve["cache_hit_ratio"] == serve["planned_hit_ratio"]
    correct = probes["identity_ok"] and hits_as_planned and selftest(build)
    return values, correct, tally


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="also write the result, tagged "
                        "with workload/seed/trace, to this file "
                        "(input of compare.py)")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    spec = load_benchmark_spec()
    build = Build()
    build.make()
    os.makedirs(os.path.join(STATE, "tmp"), exist_ok=True)
    os.makedirs(os.path.join(STATE, "traces"), exist_ok=True)
    if args.selftest:
        sys.exit(0 if selftest(build) else 1)

    if args.trace:
        metrics = spec["per_layer"]
        values, correct, tally = traced_run(build, args.workload, args.seed)
    else:
        metrics = spec["end_to_end"]
        values, serve, tally = run_workload(build, args.workload, args.seed,
                                            args.seconds, Tracer(False), {})
        correct = True
        log(f"samples: hit {serve['hit_samples']}, miss "
            f"{serve['miss_samples']} ({serve['passes']} serve pass(es))")
    correct = correct and tally.failed == 0
    for reason in tally.reasons[:5]:
        log("failure: " + reason)

    result = {"correct": correct, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": {}}
    for m in metrics:
        value = values[m["name"]]
        result["metrics"][m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{args.workload:13s} {m['name']:40s} {value:>16.6f} "
              f"{m['unit']}")
    if args.save:
        with open(args.save, "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "trace": args.trace, "result": result}, f)
            f.write("\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()

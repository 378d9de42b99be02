#!/usr/bin/env python3
"""The repository benchmark: end-to-end metrics and a per-layer ledger.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper_1core --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Each invocation builds perfbench/ (and through it the fmm library) into
.bench_build/perfbench, checks the correctness accounting with a self-test,
then measures one workload (see WORKLOADS; BENCHMARK.json lists the ones
that are steady enough to gate a change, see README.md) in fresh processes
with every inherited FMM_* and OMP_* variable cleared:

  --trace 0  the end-to-end metrics: one `run` process (set-up plus a
             closed-loop timed phase) and SETUP_REPEATS - 1 further
             `setup`-only processes, tracing off;
  --trace 1  the per-layer ledger: one `ledger` process that runs the
             workload untraced and traced, then times each layer of the
             library through its public functions inside obs spans.  The
             trace is summarised with tools/trace_summary.py.

A table of every metric with its unit and sample count goes to stdout, the
full record to .bench_build/results/, and the last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}.  The exit status is
non-zero when any request failed (a non-OK Status or a failed probe) or
anything could not be built or run.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper_1core", "serve_mixed", "large_parallel")
SETUP_REPEATS = 3        # fresh processes whose set-up time is reported
RUN_DEADLINE_S = 170     # a measuring invocation ends within this
BUILD_DEADLINE_S = 850   # the first build in a fresh checkout


# --- statistics --------------------------------------------------------------

def median(values):
    v = sorted(values)
    if not v:
        raise ValueError("median of no values")
    h = len(v) // 2
    return v[h] if len(v) % 2 else 0.5 * (v[h - 1] + v[h])


def quartiles(values):
    """(q1, median, q3) by linear interpolation between order statistics."""
    return tuple(percentile(values, q) for q in (25, 50, 75))


def percentile(values, q):
    """The q-th percentile (0..100), interpolating between order statistics
    at rank (n - 1) * q / 100."""
    v = sorted(values)
    if not v:
        raise ValueError("percentile of no values")
    pos = (len(v) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def busy_seconds(requests):
    """Wall time during which at least one request was in flight: the
    measure of the union of the [start, start + latency] intervals."""
    total, end = 0.0, None
    for t0, lat, *_ in sorted(requests):
        t1 = t0 + lat
        if end is None or t0 > end:
            total += lat
            end = t1
        elif t1 > end:
            total += t1 - end
            end = t1
    return total * 1e-6


def window_rates(requests):
    """([GFLOP/s], [requests/s]) per measurement window: the window's 2mnk
    and request count over its busy time.  Reported as medians."""
    windows = {}
    for r in requests:
        windows.setdefault(r[3], []).append(r)
    return ([sum(r[2] for r in w) / busy_seconds(w) / 1e9
             for w in windows.values()],
            [len(w) / busy_seconds(w) for w in windows.values()])


def tail_percentile(n):
    """The highest percentile with at least ten of n samples beyond it,
    clamped to [50, 99]: p99 once n >= 1000."""
    return max(50.0, min(99.0, 100.0 * (1.0 - 10.0 / n)))


def self_test_stats():
    assert median([3, 1, 2]) == 2 and median([4, 1, 3, 2]) == 2.5
    assert quartiles([1, 2, 3, 4, 5]) == (2, 3, 4)
    assert percentile(list(range(101)), 99) == 99
    assert percentile([10, 20], 50) == 15
    assert percentile([7], 99) == 7
    # Two overlapping intervals and one disjoint: [0,10] + [5,20] + [30,31].
    assert busy_seconds([(0, 10, 1), (5, 15, 1), (30, 1, 1)]) == 21e-6
    # Window 0 runs 2e9 flops in 1 s, window 1 runs 6e9 in 2 s; and a
    # third at 5 GF/s: medians 3 GF/s and 1 request/s.
    reqs = [(0, 5e5, 1e9, 0), (5e5, 5e5, 1e9, 0), (1e6, 2e6, 6e9, 1),
            (4e6, 1e6, 5e9, 2)]
    assert window_rates(reqs) == ([2.0, 3.0, 5.0], [2.0, 0.5, 1.0])
    assert tail_percentile(10) == 50 and tail_percentile(100) == 90
    assert tail_percentile(24000) == 99


# --- running fmm_perfbench ---------------------------------------------------

def clean_env():
    """The inherited environment minus FMM_* and OMP_*, and what was cut."""
    env, cleared = {}, {}
    for k, v in os.environ.items():
        (cleared if k.startswith(("FMM_", "OMP_")) else env)[k] = v
    return env, cleared


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(root):
    out = os.path.join(root, ".bench_build", "perfbench")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(root, ".bench_build", "build.log")
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "fmm_perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    deadline = time.monotonic() + BUILD_DEADLINE_S
    with open(log_path, "w") as log:
        for cmd in steps:
            left = deadline - time.monotonic()
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=max(1, left)).returncode
            except subprocess.TimeoutExpired:
                rc = -1
            if rc != 0:
                shutil.rmtree(out, ignore_errors=True)
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(out, "fmm_perfbench")


class Runner:
    def __init__(self, root, exe, env, tag, deadline):
        self.root, self.exe, self.env, self.tag = root, exe, env, tag
        self.deadline = deadline
        self.runs = 0

    def __call__(self, mode, *args):
        """Runs one fresh fmm_perfbench process with its own empty state directory
        and returns its JSON output."""
        self.runs += 1
        state = os.path.join(self.root, ".bench_build", "state",
                             f"{self.tag}-{self.runs}")
        shutil.rmtree(state, ignore_errors=True)
        os.makedirs(state)
        cmd = [self.exe, mode, "--dir", state, *map(str, args)]
        left = self.deadline - time.monotonic()
        if left < 1:
            fail(f"out of time before `{mode}`")
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True,
                                  text=True, timeout=left)
        except subprocess.TimeoutExpired:
            fail(f"`{mode}` did not finish in time")
        finally:
            shutil.rmtree(state, ignore_errors=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-4000:])
            fail(f"`{mode}` exited with {proc.returncode}")
        try:
            return json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            fail(f"`{mode}` printed no JSON result")


def check_selftest(r):
    """The C++ accounting must fail a perturbed C and a rejected request and
    pass the untouched one, in both element types."""
    for dt in ("f64", "f32"):
        t = r[dt]
        if not (t["clean_failed"] == 0 and t["perturbed_failed"] == 1
                and t["rejected_failed"] == 1):
            fail(f"self-test failed ({dt}): {t}")
    if r["median_odd"] != 2 or r["median_even"] != 2.5:
        fail(f"self-test failed (median): {r}")


# --- metrics -----------------------------------------------------------------

def declared_units(root, key):
    """Metric name -> unit for one list ("end_to_end" or "per_layer") of
    BENCHMARK.json, which declares what the benchmark reports."""
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            return {m["name"]: m["unit"] for m in json.load(f)[key]}
    except (OSError, KeyError, TypeError, json.JSONDecodeError) as err:
        fail(f"cannot read the metric list from BENCHMARK.json: {err}")


def end_to_end(run, setups):
    reqs = run["requests"]
    if not reqs:
        fail("the timed phase completed no request")
    gflops, rps = window_rates(reqs)
    lat = [r[1] for r in reqs]
    tail = tail_percentile(len(lat))
    values = {"gflops": median(gflops), "requests_per_s": median(rps),
              "latency_p50_us": percentile(lat, 50),
              "latency_tail_us": percentile(lat, tail),
              "setup_s": median(setups),
              "peak_rss_mib": run["peak_rss_mib"]}
    samples = {k: f"{len(reqs)} requests" for k in values}
    for k, rates in (("gflops", gflops), ("requests_per_s", rps)):
        q1, _, q3 = quartiles(rates)
        samples[k] = f"{len(rates)} windows, q1-q3 {q1:.4g}-{q3:.4g}"
    samples["latency_tail_us"] += f", p{tail:.4g}"
    samples["setup_s"] = f"{len(setups)} processes"
    samples["peak_rss_mib"] = "1 process"
    return values, samples


def ratio(a, b):
    return a / b if b else 0.0


def per_layer(led):
    m = dict(led["ledger"])
    d = led["stats_delta"]
    m["engine.exec_hit_ratio"] = ratio(
        d["exec_hits"], d["exec_hits"] + d["exec_misses"])
    m["engine.choice_hit_ratio"] = ratio(
        d["choice_hits"], d["choice_hits"] + d["choice_misses"])
    m["engine.compiles_timed"] = d["exec_misses"]
    m["history.overrides_timed"] = d["history_overrides"]
    m["history.hits_timed"] = d["history_hits"]
    m["recursive.runs"] = d["recursive_runs"]
    hist = led["metrics_report"]["histograms"]
    m["pool.queue_wait_p50_us"] = hist.get("pool.queue_wait", {}).get("p50", 0.0)
    untraced = median(window_rates(led["untraced"])[0])
    traced = median(window_rates(led["traced"])[0])
    m["trace.overhead_frac"] = 1.0 - traced / untraced
    m["check.max_rel_residual.f64"] = led["max_residual_f64"]
    m["check.max_rel_residual.f32"] = led["max_residual_f32"]
    return m


def print_table(title, rows):
    print(title)
    for name, value, unit, samples in rows:
        print(f"  {name:34s} {value:16.6g} {unit:6s} n={samples}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="check the statistics helpers and the correctness "
                         "accounting, then exit")
    a = ap.parse_args()
    if not a.self_test and a.workload is None:
        ap.error("--workload is required")

    root = os.getcwd()
    self_test_stats()
    exe = build(root)
    env, cleared = clean_env()
    tag = f"{a.workload or 'selftest'}-s{a.seed}-t{a.trace}-{os.getpid()}"
    drive = Runner(root, exe, env, tag, time.monotonic() + RUN_DEADLINE_S)
    check_selftest(drive("selftest"))
    if a.self_test:
        print("self-test passed")
        return 0

    common = ("--workload", a.workload, "--seed", a.seed)
    results = os.path.join(root, ".bench_build", "results")
    os.makedirs(results, exist_ok=True)
    base = os.path.join(results, f"{a.workload}-seed{a.seed}-trace{a.trace}")
    if a.trace == 0:
        run = drive("run", *common, "--seconds", a.seconds)
        setups = [run["setup_s"]]
        tallies = [run]
        for _ in range(SETUP_REPEATS - 1):
            s = drive("setup", *common)
            setups.append(s["setup_s"])
            tallies.append(s)
        values, samples = end_to_end(run, setups)
        units = declared_units(root, "end_to_end")
        record = {"run": {k: v for k, v in run.items() if k != "requests"},
                  "setup_s_samples": setups}
    else:
        trace_path = base + ".trace.json"
        led = drive("ledger", *common, "--seconds", a.seconds,
                    "--trace-out", trace_path)
        if not led["trace_written"]:
            fail("the trace file could not be written")
        summary = subprocess.run(
            [sys.executable, os.path.join(root, "tools", "trace_summary.py"),
             trace_path], capture_output=True, text=True, timeout=60)
        if summary.returncode != 0:
            sys.stderr.write(summary.stderr)
            fail("tools/trace_summary.py rejected the trace")
        with open(base + ".trace_summary.txt", "w") as f:
            f.write(summary.stdout)
        tallies = [led]
        values = per_layer(led)
        units = declared_units(root, "per_layer")
        samples = {k: "1 measurement" for k in values}
        samples["trace.overhead_frac"] = (
            f"{len(window_rates(led['untraced'])[0])} + "
            f"{len(window_rates(led['traced'])[0])} windows")
        record = {"ledger": {k: v for k, v in led.items()
                             if k not in ("untraced", "traced")}}

    if set(values) != set(units):
        fail("measured metrics differ from BENCHMARK.json: "
             f"{sorted(set(values) ^ set(units))}")
    attempted = sum(int(t["attempted"]) for t in tallies)
    failed = sum(int(t["failed"]) for t in tallies)
    failures = [t["first_failure"] for t in tallies if t["first_failure"]]
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    info = (run if a.trace == 0 else led)["info"]

    print(f"workload {a.workload}  seed {a.seed}  trace {a.trace}  "
          f"seconds {a.seconds}")
    print("config: " + ", ".join(f"{k}={v}" for k, v in info.items()))
    print("env cleared: " + (", ".join(sorted(cleared)) or "none"))
    if a.trace == 0:
        d = run["stats_delta"]
        print("timed-phase stats: " + ", ".join(f"{k}={int(v)}"
                                                for k, v in d.items()))
    print_table("metrics:", [(k, v, units[k], samples[k])
                             for k, v in values.items()])
    print(f"  {'failed_frac':34s} {ratio(failed, attempted):16.6g} "
          f"{'ratio':6s} n={attempted}")
    if failures:
        print("first failure: " + failures[0])

    record.update({"workload": a.workload, "seed": a.seed, "trace": a.trace,
                   "seconds": a.seconds, "env_cleared": cleared,
                   "metrics": metrics, "samples": samples,
                   "attempted": attempted, "failed": failed,
                   "failures": failures})
    with open(base + ".json", "w") as f:
        json.dump(record, f, indent=1)

    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

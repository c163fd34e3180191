#!/usr/bin/env python3
"""perfbench: the end-to-end and per-layer benchmark of coopsim.

Run from the root of a coopsim checkout:

    python3 perfbench/run.py --workload figs-2c4c --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload figs-2c4c --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --update-references

The first call builds perfbench/ (the coopsim library through the root
CMakeLists.txt, plus the coopbench driver) into $CARGO_TARGET_DIR or
.bench_build. Each repetition is one coopbench process. --trace 0
prints the end-to-end metrics, --trace 1 the per-layer ledger; the last
line of stdout is the result object. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")

# The specs' default seed, and a seed kept out of any tuning so a later
# claim can be re-checked on inputs it was not written against.
DEFAULT_SEED = 42
HELD_OUT_SEED = 9001

# Executor workers, capped by nproc.
THREADS = 4

# Seconds budgeted per repetition of each workload, from repetitions on
# a loaded 4-core host. The repetition count is round(--seconds / rep_s),
# so every run of a workload pools the same number of samples and
# reports the same tail percentile.
REP_S = {
    "figs-2c4c": 7.5,
    "banked-32c": 14.0,
    "sampled-scaling": 4.2,
}

# Set-up-only processes per run; setup_s is their median.
SETUP_PROBES = 31

END_TO_END = {
    "sweep_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "run_s_p50": "s",
    "run_s_tail": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "op_source.ops": "count",
    "op_source.s": "s",
    "op_source.ns_per_op": "ns",
    "sim.stream_cache.generated": "count",
    "sim.stream_cache.replayed": "count",
    "sim.stream_cache.evicted": "count",
    "sim.stream_cache.hit_ratio": "ratio",
    "sim.stream_cache.resident_mb": "MB",
    "sim.stream_cache.open_s": "s",
    "sim.driver.quanta": "count",
    "sim.driver.steps": "count",
    "sim.driver.avg_quantum_ops": "ops",
    "core.residual_s": "s",
    "core.residual_ns_per_op": "ns",
    "llc.access_calls": "count",
    "llc.access_s": "s",
    "llc.access_ns_per_call": "ns",
    "llc.hit_ratio": "ratio",
    "llc.avg_ways_probed": "ways",
    "llc.bank_conflicts": "count",
    "llc.epoch_calls": "count",
    "llc.epoch_s": "s",
    "partition.repartitions": "count",
    "llc.completed_transfers": "count",
    "llc.flushed_lines": "count",
    "mem.dram_reads": "count",
    "mem.dram_writebacks": "count",
    "mem.dram_flushes": "count",
    "sampling.windows": "count",
    "sampling.ops_per_kinst": "ops/kinst",
    "failed_frac": "frac",
    "sim.executor.simulations": "count",
    "sim.executor.failed_runs": "count",
    "sim.executor.queue_wait_s_p50": "s",
    "sim.executor.busy_frac": "frac",
    "api.setup_s": "s",
    "api.keys": "count",
    "ledger.run_s": "s",
    "trace_overhead_frac": "frac",
}


class BenchError(Exception):
    """The benchmark itself could not run (no result is printed)."""


def log(*parts):
    print("perfbench:", *parts, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Build


def build_dir(root):
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(root, base, "perfbench")


def build(root):
    """Configures (once) and builds coopbench; returns the binary path."""
    for needed in ("CMakeLists.txt", "src", "specs"):
        if not os.path.exists(os.path.join(root, needed)):
            raise BenchError(f"{needed} not found: run from a coopsim checkout")
    out = build_dir(root)
    jobs = str(max(1, min(4, nproc())))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "coopbench", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries results only.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))
    return os.path.join(out, "coopbench")


# ---------------------------------------------------------------------------
# Host tags


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def worker_count():
    return max(1, min(THREADS, nproc()))


def compiler(root):
    try:
        with open(os.path.join(build_dir(root), "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    cxx = line.split("=", 1)[1].strip()
                    version = subprocess.run([cxx, "--version"], capture_output=True, text=True)
                    return version.stdout.splitlines()[0]
    except (OSError, IndexError):
        pass
    return "unknown"


def git_rev(root):
    try:
        rev = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True, text=True)
        if rev.returncode == 0:
            return rev.stdout.strip()
    except OSError:
        pass
    return None


def source_digest(root):
    """Identifies the simulated code even where the checkout has no git."""
    h = hashlib.sha256()
    for top in ("src", "include", "specs"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def host_tags(root, args, threads, reps):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": nproc(),
        "cpu": cpu,
        "machine": platform.machine(),
        "compiler": compiler(root),
        "git_rev": git_rev(root),
        "source_digest": source_digest(root),
        "threads": threads,
        "scale": "bench",
        "seed": args.seed,
        "seconds": args.seconds,
        "repetitions": reps,
    }


# ---------------------------------------------------------------------------
# Repetitions


def spawn(binary, workload, mode, seed, scale, threads, order=0):
    """One coopbench process; returns its result record. A non-zero
    order submits the batch in that fixed shuffled order."""
    cmd = [binary, f"--workload={workload}", f"--mode={mode}", f"--seed={seed}",
           f"--scale={scale}", f"--threads={threads}", f"--order={order}"]
    spawn_ns = time.monotonic_ns()  # CLOCK_MONOTONIC, as coopbench reads it
    try:
        proc = subprocess.run(cmd + [f"--spawn-ns={spawn_ns}"], capture_output=True,
                              text=True, timeout=170)
    except subprocess.TimeoutExpired:
        raise BenchError(f"timed out: {' '.join(cmd)}")
    marker = proc.stdout.rfind("COOPBENCH ")
    if proc.returncode != 0 or marker < 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise BenchError(f"exit {proc.returncode}: {' '.join(cmd)}")
    record = json.loads(proc.stdout[marker + len("COOPBENCH "):])
    record["table_digest"] = hashlib.sha256(proc.stdout[:marker].encode()).hexdigest()[:16]
    return record


def load_references():
    try:
        with open(REFERENCES) as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


def reference(refs, workload, scale, seed):
    return refs.get(workload, {}).get(f"{scale}:{seed}")


def digests(record):
    return {"lines": record["lines_digest"], "table": record["table_digest"]}


class Check:
    """The output check: counts runs attempted and failed across every
    repetition and the canary."""

    def __init__(self, expected):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, record, label):
        self.attempted += record["attempted"]
        bad = record["run_failures"] + record["insane_results"]
        if self.expected is None:
            self.expected = digests(record)
        if digests(record) != self.expected:
            self.problems.append(f"{label}: digests {digests(record)} != {self.expected}")
            bad = record["attempted"]
        elif bad:
            self.problems.append(f"{label}: {record['run_failures']} failed, "
                                 f"{record['insane_results']} insane results")
        self.failed += bad


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail_percentile(n):
    """Highest whole percentile with at least ten samples beyond it."""
    for p in range(99, 0, -1):
        if n * (100 - p) / 100 >= 10:
            return p
    return 50


def percentile(values, p):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def summary(samples, unit):
    q1, med, q3 = quartiles(samples)
    return {"value": med, "q1": q1, "q3": q3, "n": len(samples), "unit": unit}


def end_to_end(untraced, setups):
    # Group runs only (see coopbench's group_run_s): the cheap solo
    # baseline runs are a second population, and pooled with them the
    # median sat in the gap between the two.
    per_key = list(zip(*(r["group_run_s"] for r in untraced)))
    run_s = [x for samples in per_key for x in samples if x is not None]
    # The median run is the median over keys of each key's median over
    # repetitions. Where the group runs split into cheap and costly core
    # counts at the middle (sampled-scaling), the pooled median was the
    # slowest sample of one half and the fastest of the other.
    key_medians = [statistics.median(x for x in samples if x is not None)
                   for samples in per_key if any(x is not None for x in samples)]
    p = tail_percentile(len(run_s))
    per_rep = {
        "sweep_s": [r["sweep_s"] for r in untraced],
        "setup_s": setups,
        "cpu_s": [r["cpu_s"] for r in untraced],
        "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
    }
    metrics = {name: summary(values, END_TO_END[name]) for name, values in per_rep.items()}
    q1, med, q3 = quartiles(key_medians)
    metrics["run_s_p50"] = {"value": med, "q1": q1, "q3": q3, "n": len(key_medians), "unit": "s"}
    metrics["run_s_tail"] = {"value": percentile(run_s, p), "percentile": p,
                             "n": len(run_s), "unit": "s"}
    return metrics


def failed_frac(check):
    """Printed in both modes. BENCHMARK.json declares it per layer: an
    end-to-end metric is judged as a share of the parent's median, so
    it must never be 0, while a per-layer metric has no bound."""
    return {"value": check.failed / max(1, check.attempted),
            "n": check.attempted, "unit": "frac"}


def layer_values(t):
    """Per-layer values of one traced repetition."""
    ops = max(1, t["op_ops"])
    calls = max(1, t["llc_access_calls"])
    residual = t["ledger_run_s"] - t["op_s"] - t["llc_access_s"] - t["llc_epoch_s"]
    return {
        "op_source.ops": t["op_ops"],
        "op_source.s": t["op_s"],
        "op_source.ns_per_op": t["op_s"] / ops * 1e9,
        "sim.stream_cache.generated": t["stream_generated"],
        "sim.stream_cache.replayed": t["stream_replayed"],
        "sim.stream_cache.evicted": t["stream_evicted"],
        "sim.stream_cache.hit_ratio": t["stream_replayed"] / max(1, t["stream_opens"]),
        "sim.stream_cache.resident_mb": t["stream_resident_mb"],
        "sim.stream_cache.open_s": t["stream_open_s"],
        "sim.driver.quanta": t["driver_quanta"],
        "sim.driver.steps": t["driver_steps"],
        "sim.driver.avg_quantum_ops": t["driver_steps"] / max(1, t["driver_quanta"]),
        "core.residual_s": residual,
        "core.residual_ns_per_op": residual / ops * 1e9,
        "llc.access_calls": t["llc_access_calls"],
        "llc.access_s": t["llc_access_s"],
        "llc.access_ns_per_call": t["llc_access_s"] / calls * 1e9,
        "llc.hit_ratio": t["llc_access_hits"] / calls,
        "llc.avg_ways_probed": t["llc_ways_probed"] / calls,
        "llc.bank_conflicts": t["bank_conflicts"],
        "llc.epoch_calls": t["llc_epoch_calls"],
        "llc.epoch_s": t["llc_epoch_s"],
        "partition.repartitions": t["repartitions"],
        "llc.completed_transfers": t["completed_transfers"],
        "llc.flushed_lines": t["flushed_lines"],
        "mem.dram_reads": t["dram_reads"],
        "mem.dram_writebacks": t["dram_writebacks"],
        "mem.dram_flushes": t["dram_flushes"],
        "sampling.windows": t["sample_windows"],
        "sampling.ops_per_kinst": t["op_ops"] / max(1, t["represented_insts"] / 1000),
        "ledger.run_s": t["ledger_run_s"],
    }


def ledger_closes(values):
    """op_source + llc.access + llc.epoch + core.residual = ledger.run_s,
    with no part negative (a negative residual means overlapping spans)."""
    parts = [values[k] for k in ("op_source.s", "llc.access_s", "llc.epoch_s", "core.residual_s")]
    total = values["ledger.run_s"]
    return min(parts) >= 0 and abs(sum(parts) - total) <= 1e-9 * max(1.0, total)


def per_layer(untraced, traced, setups, threads):
    layers = [layer_values(t) for t in traced]
    metrics = {name: summary([v[name] for v in layers], PER_LAYER[name]) for name in layers[0]}
    waits = [x for r in untraced for x in r["queue_wait_s"] if x is not None]
    busy = [sum(x for x in r["run_s"] if x is not None) / (r["sweep_s"] * threads)
            for r in untraced]
    metrics["sim.executor.simulations"] = summary(
        [r["executor_simulations"] for r in untraced], "count")
    metrics["sim.executor.failed_runs"] = summary(
        [r["executor_failed_runs"] for r in untraced], "count")
    metrics["sim.executor.queue_wait_s_p50"] = summary([statistics.median(waits)], "s")
    metrics["sim.executor.busy_frac"] = summary(busy, "frac")
    metrics["api.setup_s"] = summary(setups, "s")
    metrics["api.keys"] = summary([untraced[0]["keys"]], "count")
    overhead = (statistics.median(r["sweep_s"] for r in traced) /
                statistics.median(r["sweep_s"] for r in untraced) - 1.0)
    metrics["trace_overhead_frac"] = summary([overhead], "frac")
    closes = all(ledger_closes(v) for v in layers)
    return metrics, closes


def measure(binary, args, refs):
    """One benchmark run at bench scale: set-up probes, repetitions,
    canary, check."""
    rep_s = REP_S[args.workload]
    threads = worker_count()
    check = Check(reference(refs, args.workload, "bench", args.seed))
    setups, api_setups, untraced, traced = [], [], [], []
    for _ in range(SETUP_PROBES):
        probe = spawn(binary, args.workload, "setup", args.seed, "bench", threads)
        setups.append(probe["setup_s"])
        api_setups.append(probe["api_setup_s"])

    reps = max(1, round(args.seconds / rep_s))
    modes = ["untraced"] * reps
    if args.trace:
        # Alternate untraced/traced so both see the same host conditions.
        modes = ["untraced", "traced"] * max(1, round(args.seconds / (2.2 * rep_s)))
    pair = 2 if args.trace else 1
    for i, mode in enumerate(modes):
        # Each repetition (each untraced/traced pair) submits its keys in
        # its own order, the same for every seed: a key's run time is then
        # sampled at a different moment of each repetition.
        record = spawn(binary, args.workload, mode, args.seed, "bench", threads,
                       order=1 + i // pair)
        check.add(record, f"{mode} repetition {i}")
        (traced if mode == "traced" else untraced).append(record)

    # Canary: a fixed-seed test-scale run checked against its reference,
    # so every run checks simulated numbers whatever its seed.
    canary_ref = reference(refs, args.workload, "test", DEFAULT_SEED)
    if canary_ref is None:
        check.problems.append(f"no test-scale reference for {args.workload}")
    else:
        canary = Check(canary_ref)
        canary.add(spawn(binary, args.workload, "untraced", DEFAULT_SEED, "test", threads),
                   "canary")
        check.attempted += canary.attempted
        check.failed += canary.failed
        check.problems += canary.problems

    if args.trace:
        metrics, closes = per_layer(untraced, traced, api_setups, threads)
        if not closes:
            check.problems.append("ledger does not close")
    else:
        metrics = end_to_end(untraced, setups)
    metrics["failed_frac"] = failed_frac(check)
    return metrics, check, threads, len(modes)


# ---------------------------------------------------------------------------
# Entry points


def run(args):
    """Prints every metric, the record line and the result line; exits 1
    when the output check failed."""
    root = os.getcwd()
    binary = build(root)
    metrics, check, threads, reps = measure(binary, args, load_references())
    for problem in check.problems:
        log("CHECK FAILED:", problem)
    for name, m in metrics.items():
        extra = f" q1={m['q1']:.6g} q3={m['q3']:.6g}" if "q1" in m else ""
        if "percentile" in m:
            extra = f" (p{m['percentile']} of {m['n']} runs)"
        print(f"{name:34s} {m['value']:.6g} {m['unit']}{extra}")
    print(json.dumps({"perfbench": {"workload": args.workload,
                                    "host": host_tags(root, args, threads, reps),
                                    "metrics": metrics}}))
    declared = PER_LAYER if args.trace else END_TO_END
    correct = check.failed == 0 and not check.problems
    print(json.dumps({
        "correct": correct,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {k: {"value": metrics[k]["value"], "unit": metrics[k]["unit"]}
                    for k in declared},
    }))
    return 0 if correct else 1


def update_references():
    """Re-records the digests (after a deliberate change in simulated
    numbers): both bench seeds, plus the test-scale canary."""
    root = os.getcwd()
    binary = build(root)
    refs = {}
    threads = worker_count()
    for workload in REP_S:
        refs[workload] = {}
        for scale, seed in (("bench", DEFAULT_SEED), ("bench", HELD_OUT_SEED),
                            ("test", DEFAULT_SEED)):
            record = spawn(binary, workload, "untraced", seed, scale, threads)
            if record["run_failures"] or record["insane_results"]:
                raise BenchError(f"{workload} {scale}:{seed} has failed runs")
            refs[workload][f"{scale}:{seed}"] = digests(record)
            log(workload, f"{scale}:{seed}", digests(record))
    with open(REFERENCES, "w") as f:
        json.dump(refs, f, indent=2, sort_keys=True)
        f.write("\n")
    return 0


def selftest():
    """Test scale, one repetition of each mode per workload: every metric
    prints with its declared unit, the ledger closes, outputs match."""
    root = os.getcwd()
    binary = build(root)
    refs = load_references()
    bench_json = os.path.join(root, "BENCHMARK.json")
    if os.path.exists(bench_json):
        with open(bench_json) as f:
            spec = json.load(f)
        declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
        if declared != {**END_TO_END, **PER_LAYER}:
            log("BENCHMARK.json metrics differ from run.py's")
            return 1
    ok = True
    threads = worker_count()
    for workload in REP_S:
        check = Check(reference(refs, workload, "test", DEFAULT_SEED))
        u = spawn(binary, workload, "untraced", DEFAULT_SEED, "test", threads)
        t = spawn(binary, workload, "traced", DEFAULT_SEED, "test", threads)
        check.add(u, "untraced")
        check.add(t, "traced")
        e2e = end_to_end([u], [u["setup_s"], t["setup_s"]])
        layers, closes = per_layer([u], [t], [u["api_setup_s"]], threads)
        printed = {**e2e, **layers, "failed_frac": failed_frac(check)}
        missing = [n for n, unit in {**END_TO_END, **PER_LAYER}.items()
                   if n not in printed or printed[n]["unit"] != unit
                   or not math.isfinite(printed[n]["value"])]
        good = closes and not missing and check.failed == 0 and not check.problems
        log(workload, "ok" if good else "FAILED",
            f"closes={closes} missing={missing} problems={check.problems}")
        ok = ok and good
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(REP_S))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--update-references", action="store_true")
    args = parser.parse_args()
    try:
        if args.selftest:
            return selftest()
        if args.update_references:
            return update_references()
        if args.workload is None:
            parser.error("--workload is required")
        return run(args)
    except BenchError as e:
        log("error:", e)
        return 1


if __name__ == "__main__":
    sys.exit(main())

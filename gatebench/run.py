#!/usr/bin/env python3
"""End-to-end benchmark entry point.

    python3 gatebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark (and the library, from this checkout's sources) under
``$CARGO_TARGET_DIR`` (default ``.bench_build``) at the checkout root, runs
one workload in a fresh process with that workload's executor count, and
prints the result object as the last line of standard output. With
``--trace 1`` the workload's own layers are measured on its full schedule
and every other workload's layers on a slice of its schedule, each in its
own process, and the per-layer metrics are merged.

    python3 gatebench/run.py --steadiness <runs> [--seconds <s>]

runs every workload listed in BENCHMARK.json <runs> times on seeds
1..<runs>, alternating the workload order, and prints each end-to-end metric's median, quartiles and
quartile distance against its bound from BENCHMARK.json.

See gatebench/README.md for what each workload and metric means.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["serve_socket", "frontier_dense", "frontier_orbit", "concepts_mix"]
# A run must end within 180 s; the binary is stopped a little before.
RUN_TIMEOUT_S = 170
# Share of another workload's schedule measured in a traced run, and the
# seconds it may take. frontier_dense is not a gated workload (see
# README.md), so its layers get a larger slice; serve_socket's slice must
# hold a few budget-starved asks.
TRACE_SLICE = {"serve_socket": 0.25, "frontier_dense": 0.25, "frontier_orbit": 0.1,
               "concepts_mix": 0.1}
TRACE_SLICE_SECONDS = 3.0


def cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def executors(workload):
    """Executor count per workload (BNASH_THREADS)."""
    nproc = cpu_count()
    return {
        "serve_socket": min(2, nproc),
        "frontier_dense": nproc,
        "frontier_orbit": 1,
        "concepts_mix": 1,
    }[workload]


def log(message):
    print("gatebench: " + message, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "gatebench")


def build():
    """Configures and builds the benchmark; returns the binary path or None."""
    out = build_dir()
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(configure, **quiet) != 0:
            log("configure failed")
            return None
    jobs = str(max(1, min(cpu_count(), 4)))
    if subprocess.call(["cmake", "--build", out, "--parallel", jobs], **quiet) != 0:
        log("build failed")
        return None
    binary = os.path.join(out, "gatebench")
    return binary if os.path.exists(binary) else None


def commit():
    if os.environ.get("GATEBENCH_COMMIT"):
        return os.environ["GATEBENCH_COMMIT"]
    try:
        result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=10)
        if result.returncode == 0:
            return result.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def run_binary(binary, workload, seed, seconds, trace, extra, timeout):
    """Runs one workload process; returns (exit code, context, result)."""
    env = dict(os.environ)
    env["BNASH_THREADS"] = str(executors(workload))
    env["GATEBENCH_COMMIT"] = commit()
    command = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "1" if trace else "0"] + extra
    try:
        completed = subprocess.run(command, stdout=subprocess.PIPE, env=env, text=True,
                                   timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish within {timeout} s")
        return 1, None, None
    lines = [line for line in completed.stdout.splitlines() if line.strip()]
    try:
        context = json.loads(lines[-2])["context"]
        result = json.loads(lines[-1])
    except (IndexError, ValueError, KeyError):
        log(f"{workload} printed no result (exit {completed.returncode})")
        return completed.returncode or 1, None, None
    return completed.returncode, context, result


def measure(binary, args, extra):
    """One contract run; prints the context line(s) and the result line."""
    started = time.monotonic()
    code, context, result = run_binary(binary, args.workload, args.seed, args.seconds,
                                       args.trace, extra, RUN_TIMEOUT_S)
    if result is None:
        return code or 1
    contexts = [context]
    if args.trace:
        for other in WORKLOADS:
            if other == args.workload:
                continue
            left = RUN_TIMEOUT_S - (time.monotonic() - started)
            slice_code, slice_context, slice_result = run_binary(
                binary, other, args.seed, TRACE_SLICE_SECONDS, True,
                ["--scale", str(TRACE_SLICE[other])], max(10, int(left)))
            if slice_result is None:
                return slice_code or 1
            code = code or slice_code
            contexts.append(slice_context)
            result["correct"] = result["correct"] and slice_result["correct"]
            result["attempted"] += slice_result["attempted"]
            result["failed"] += slice_result["failed"]
            for name, metric in slice_result["metrics"].items():
                if name != "trace.overhead_share":
                    result["metrics"].setdefault(name, metric)
    for each in contexts:
        print(json.dumps({"context": each}))
    print(json.dumps(result), flush=True)
    return code


def spec():
    """BENCHMARK.json at the checkout root, or {} when absent."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return {}


def steadiness(binary, args):
    """Repeated runs of one build, alternating the workload order."""
    chosen = [workload["name"] for workload in spec().get("workloads", [])] or WORKLOADS
    values = {workload: {} for workload in chosen}
    failures = 0
    for run in range(args.steadiness):
        order = chosen if run % 2 == 0 else list(reversed(chosen))
        for workload in order:
            code, context, result = run_binary(binary, workload, run + 1, args.seconds, False,
                                               [], RUN_TIMEOUT_S)
            if result is None or code != 0 or not result["correct"]:
                failures += 1
                log(f"{workload} seed {run + 1} failed (exit {code})")
                continue
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            calibration = min(context["calibration_ms"].values())
            log(f"{workload} seed {run + 1}: fastest calibration {calibration:.3g} ms, " +
                ", ".join(f"{name}={metric['value']:.6g}"
                          for name, metric in result["metrics"].items()))
    limits = {metric["name"]: metric["bound"] for metric in spec().get("end_to_end", [])}
    ok = failures == 0
    print(f"{'workload':16} {'metric':14} {'runs':>4} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'bound':>6}  verdict")
    for workload in chosen:
        for name, series in sorted(values[workload].items()):
            if len(series) < 2:
                continue
            q1, mid, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / mid if mid else float("inf")
            bound = limits.get(name)
            if bound is None:
                verdict = "-"
            else:
                verdict = "ok" if spread < bound / 3 else "WIDE"
                ok = ok and verdict == "ok"
            print(f"{workload:16} {name:14} {len(series):>4} {mid:>12.6g} {q1:>12.6g} "
                  f"{q3:>12.6g} {spread:>8.4f} {bound if bound is not None else '-':>6}  "
                  f"{verdict}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", type=float, help="share of the schedule to generate")
    parser.add_argument("--corrupt-expected", action="store_true",
                        help="alter one expected answer: the correctness check must fail")
    parser.add_argument("--steadiness", type=int, metavar="RUNS",
                        help="steadiness mode: RUNS runs of every workload")
    args = parser.parse_args()
    if args.steadiness is None and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    if binary is None:
        return 3
    if args.steadiness is not None:
        return steadiness(binary, args)
    extra = []
    if args.scale is not None:
        extra += ["--scale", str(args.scale)]
    if args.corrupt_expected:
        extra.append("--corrupt-expected")
    return measure(binary, args, extra)


if __name__ == "__main__":
    sys.exit(main())

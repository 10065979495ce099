"""End-to-end and per-layer benchmark of the museumflows command line.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Set-up generates the workload's
input files from the seed three times, each in a fresh process, and
reports the median time. A further fresh process then runs the workload's
verbs through ``museumflows.cli.main`` for S seconds and checks every
output. Times in the JSON are rescaled to the reference speed of the
probe in probe.py, because the speed of a shared machine drifts. With ``--trace 0`` the last line of output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of the traced iterations. Workloads and metrics are described in
benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

from probe import REFERENCE_S  # noqa: E402
from workloads import THREAD_VARS, TRUE_BETA, WORKLOADS  # noqa: E402

SETUP_REPEATS = 3
DEADLINE_S = 170.0  # the whole run, set-up included
TAIL_SAMPLES = 10
RECORD = (
    "pipeline.tweets_in", "pipeline.users", "pipeline.homes",
    "pipeline.distinct_home_cells", "pipeline.keyword_share", "input.ndjson_bytes",
)
CALL_COUNTS = (
    "geometry.point_in_polygon.calls",
    "sim.doubly_constrained_flows.calls",
    "synth.generate_corpus.calls",
)


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def call_worker(args: list[str], deadline: float) -> dict:
    """Run worker.py with args; return the JSON object it printed last."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError("out of time before " + args[0])
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), *args],
            env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker {args[0]} did not finish within {remaining:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def median_of(values):
    return statistics.median(values) if values else 0.0


def tail_percentile(values):
    """(percentile, value) of the highest percentile with TAIL_SAMPLES samples above it."""
    n = len(values)
    if n < 2 * TAIL_SAMPLES:
        return None
    ordered = sorted(values)
    return 100.0 * (n - TAIL_SAMPLES) / n, ordered[n - TAIL_SAMPLES - 1]


def summarize(workload, setup, digests, result, trace: bool):
    """Print the human-readable lines; return (correct, attempted, failed, values)."""
    iterations = result["iterations"]
    plain = [it for it in iterations if not it["traced"]]
    traced = [it for it in iterations if it["traced"]]
    errors = [e for it in iterations for e in it["errors"]]
    if len(set(digests)) != 1:
        errors.append("set-up wrote different inputs for the same seed")
    op_results = [(tag, rc) for it in iterations for tag, rc, _ in it["ops"]]
    attempted = len(op_results)
    failed = sum(1 for _, rc in op_results if rc != 0)

    walls = [it["wall_ref_s"] for it in plain]
    raw_walls = [it["wall_s"] for it in plain]
    scored = median_of([it["grid_points_scored"] for it in plain])
    grid = median_of([it["grid_points_attempted"] for it in plain])
    print(f"workload {workload}: {len(plain)} untraced and {len(traced)} traced iterations")
    setup_ref_times, setup_times = setup
    print(f"  setup_s            {median_of(setup_ref_times):.4f} s (median of {len(setup_times)}; "
          f"{median_of(setup_times):.4f} s unscaled)")
    tail = tail_percentile(walls)
    tail_text = (f"p{tail[0]:.0f} {tail[1]:.4f} s" if tail
                 else f"no tail percentile below {2 * TAIL_SAMPLES} samples")
    print(f"  wall_ref_s         {median_of(walls):.4f} s (median of {len(walls)}; {tail_text})")
    print(f"  wall_s             {median_of(raw_walls):.4f} s unscaled; probe kernel "
          f"{1e6 * median_of([it['kernel_s'] for it in plain]):.1f} us")
    print(f"  peak_rss_mb        {result['peak_rss_kb'] / 1024:.1f} MB")
    print(f"  failed_ops_ratio   {failed}/{attempted} = {failed / attempted:.4f}")
    print(f"  grid_points_scored {scored:g} of {grid:g} per iteration")
    per_op: dict[str, list[float]] = {}
    for it in plain:
        for tag, rc, seconds in it["ops"]:
            per_op.setdefault(f"{tag} (exit {rc})", []).append(seconds)
    for tag, seconds in per_op.items():
        print(f"    {tag:<34} {median_of(seconds):.4f} s")
    recovered = [b for it in plain for b in it["recovered_betas"]]
    if recovered:
        worst = max(abs(b - TRUE_BETA) for b in recovered)
        print(f"  recovered betas    {sorted(set(recovered))}, largest |error| {worst:.2f}")
    if not trace:
        print("  environment        " + json.dumps(result["environment"], sort_keys=True))
        values = {
            "wall_ref_s": median_of(walls),
            "peak_rss_mb": result["peak_rss_kb"] / 1024,
            "setup_s": median_of(setup_ref_times),
            "ops_completed_ratio": (attempted - failed) / attempted,
        }
    else:
        for name in CALL_COUNTS:
            if len({it["layers"][name] for it in traced}) != 1:
                errors.append(f"{name} differs between traced iterations")
        values = {k: median_of([it["layers"][k] for it in traced]) for k in traced[0]["layers"]}
        values["input.ndjson_bytes"] = median_of([it["ndjson_bytes"] for it in traced])
        values["failed_ops_ratio"] = failed / attempted
        values["grid_points_scored"] = median_of([it["grid_points_scored"] for it in traced])
        values["trace.overhead_s"] = median_of([it["wall_ref_s"] for it in traced]) - median_of(walls)
        values["wall_s"] = median_of(raw_walls)
        values["probe.kernel_s"] = median_of([it["kernel_s"] for it in iterations])
        record = {k: values[k] for k in RECORD}
        record.update(result["environment"])
        print("  record             " + json.dumps(record, sort_keys=True))
        for name, value in sorted(values.items()):
            print(f"    {name:<40} {value:.6g}")
    for e in errors:
        print(f"  CHECK FAILED: {e}")
    return not errors, attempted, failed, values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "museumflows", "cli.py")):
        print(f"error: no museumflows sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    base = os.path.join(ROOT, ".bench_out")
    work = os.path.join(base, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    common = ["--workload", args.workload, "--seed", str(args.seed), "--dir", work]
    try:
        setup_times, setup_ref_times, digests = [], [], []
        for _ in range(SETUP_REPEATS):
            began = time.perf_counter()
            setup = call_worker(["setup", *common], deadline)
            setup_times.append(time.perf_counter() - began)
            setup_ref_times.append(setup_times[-1] * REFERENCE_S / setup["kernel_s"])
            digests.append(setup["digest"])
        trace_file = os.path.join(base, f"trace-{args.workload}-s{args.seed}.json")
        result = call_worker(
            ["run", *common, "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--trace-file", trace_file],
            deadline,
        )
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct, attempted, failed, values = summarize(
        args.workload, (setup_ref_times, setup_times), digests, result, bool(args.trace)
    )
    declared = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"error: no value for declared metrics {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

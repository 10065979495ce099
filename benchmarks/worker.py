"""Child process of run.py: writes a workload's inputs, or times its verbs.

    python3 benchmarks/worker.py setup --workload W --seed N --dir D
    python3 benchmarks/worker.py run --workload W --seed N --dir D --seconds S --trace 0|1

``setup`` writes the inputs under D/inputs and prints their sha256 and
the median probe kernel time while it ran.
``run`` calls ``museumflows.cli.main`` in-process, one verb after the
other, for S seconds of whole workload iterations, checks every output,
and prints one JSON object. With ``--trace 1`` untraced and traced
iterations alternate, so the two can be compared in the same process.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
from probe import SpeedProbe  # noqa: E402
from tracer import Tracer, self_times, span_totals  # noqa: E402
from workloads import (  # noqa: E402
    GRID_POINTS, THREAD_VARS, TRUE_BETA, WORKLOADS, ops, tree_digest, write_inputs,
)

RECOVERY_TOLERANCE = 0.05
PIPELINE_STAGES = {
    "pipeline.bot_removal_s": "pipeline.remove_automated_accounts",
    "pipeline.home_inference_s": "pipeline.infer_home_locations",
    "pipeline.zone_assignment_s": "pipeline.assign_home_zone",
    "pipeline.semantic_s": "pipeline.semantic_filter",
    "pipeline.spatial_s": "pipeline.spatial_filter",
    "pipeline.dedup_s": "pipeline.dedup",
    "pipeline.checkin_s": "pipeline.remove_checkins",
    "pipeline.aggregate_s": "pipeline.build_observed_matrix",
}
PIPELINE_COUNTS = ("tweets_in", "users", "homes", "distinct_home_cells", "museum_tweets")


def run_op(cli, op):
    """Run one verb; return (exit code, seconds, stderr tail)."""
    err = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            rc = cli.main(list(op.argv))
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a bug, not a reported error: count it and go on
            rc = 1
            traceback.print_exc()
    seconds = time.perf_counter() - start
    return rc, seconds, err.getvalue().strip()[-300:]


def pipeline_summary(args, kwargs, result):
    """Input properties of one run_pipeline call."""
    tweets = args[0]
    semantic = next(s for s in result.report.stages if s.stage == "semantic")
    return {
        "tweets_in": len(tweets),
        "users": len({t.user_id for t in tweets}),
        "homes": len(result.homes),
        "distinct_home_cells": len({h.cell for h in result.homes}),
        "museum_tweets": len(result.museum_tweets),
        "keyword_in": semantic.tweets_in,
        "keyword_out": semantic.tweets_out,
    }


class OutputChecker:
    """Checks each op's outputs once per distinct content, and across iterations.

    A calibrate verb may exit non-zero; that is a failed operation, counted
    by the caller. flows and simulate outputs feed the correctness checks,
    so those verbs must succeed.
    """

    def __init__(self, inputs):
        self.inputs = inputs
        self.region = checks.Region(
            os.path.join(inputs, "zones.geojson"), os.path.join(inputs, "museums.geojson")
        )
        self.digests: dict[str, str] = {}
        self.best: dict[str, float] = {}
        self.checked: set[str] = set()

    def examine(self, plan, results) -> dict:
        errors: list[str] = []
        scored = attempted = 0
        ndjson_bytes = 0
        recovered = []
        for op, (rc, _, stderr) in zip(plan, results):
            verb, out = op.argv[0], op.out_dir()
            if op.sweeps():
                attempted += GRID_POINTS
            if rc != 0:
                if verb != "calibrate":
                    errors.append(f"{op.tag} exited {rc}: {stderr}")
                continue
            digest = tree_digest(out)
            if self.digests.setdefault(op.tag, digest) != digest:
                errors.append(f"{op.tag}: output bytes differ from the first iteration")
            if verb == "flows":
                if digest not in self.checked:
                    errors += checks.check_flows(out, self.inputs)
                    self.checked.add(digest)
                ndjson_bytes += os.path.getsize(os.path.join(self.inputs, "corpus.ndjson"))
                continue
            if verb == "calibrate":
                constraint = op.argv[op.argv.index("--constraint") + 1]
                betas, r_values, best = checks.read_sweep_json(os.path.join(out, "sweep.json"))
                observed_path = op.argv[op.argv.index("--observed") + 1]
            else:
                constraint = "unconstrained"
                betas, r_values = checks.read_sweep_csv(os.path.join(out, "sweep.csv"))
                with open(os.path.join(out, "recovery.json"), encoding="utf-8") as fh:
                    best = json.load(fh)["best_beta"]
                observed_path = os.path.join(out, "truth.csv")
                recovered.append(best)
                ndjson_bytes += os.path.getsize(os.path.join(out, "corpus.ndjson"))
            scored += checks.finite_points(r_values)
            if self.best.setdefault(op.tag, best) != best:
                errors.append(f"{op.tag}: best beta {best} differs from the first iteration's")
            if digest in self.checked:
                continue
            if constraint == "doubly":
                if len(betas) != GRID_POINTS or best not in betas:
                    errors.append(f"{op.tag}: best beta {best} is not a grid point")
            else:
                observed = self.region.aligned(observed_path)
                errors += checks.check_sweep(self.region, observed, constraint, betas, r_values, best)
            self.checked.add(digest)
        if recovered:
            mean_error = abs(statistics.fmean(recovered) - TRUE_BETA)
            if mean_error > RECOVERY_TOLERANCE + 1e-9:
                errors.append(f"mean recovered beta {statistics.fmean(recovered)} is not within "
                              f"{RECOVERY_TOLERANCE} of {TRUE_BETA}")
        return {
            "errors": errors,
            "grid_points_scored": scored,
            "grid_points_attempted": attempted,
            "ndjson_bytes": ndjson_bytes,
            "recovered_betas": recovered,
        }


def layer_metrics(tracer) -> dict:
    totals, selfs = span_totals(tracer.spans), self_times(tracer.spans)
    calls = tracer.calls
    layers = {
        "fileio.read_tweets_s": totals.get("fileio.read_tweets", 0.0),
        "fileio.write_tweets_s": totals.get("fileio.write_tweets", 0.0),
        "fileio.write_outputs_s": sum(
            v for k, v in totals.items() if k.startswith("fileio.write_") and k != "fileio.write_tweets"
        ),
    }
    for metric, span in PIPELINE_STAGES.items():
        layers[metric] = totals.get(span, 0.0)
    layers["pipeline.self_s"] = selfs.get("pipeline.run_pipeline", 0.0)
    layers["geometry.point_in_polygon.calls"] = calls["geometry.point_in_polygon"][0]
    for regime in ("unconstrained", "origin", "doubly"):
        layers[f"calibration.sweep_s.{regime}"] = totals.get(f"calibration.sweep_beta[{regime}]", 0.0)
    layers["sim.doubly_constrained_flows.calls"] = calls["sim.doubly_constrained_flows"][0]
    layers["sim.doubly_constrained_flows.failed"] = calls["sim.doubly_constrained_flows"][1]
    layers["synth.generate_corpus_s"] = totals.get("synth.generate_corpus", 0.0)
    layers["synth.generate_corpus.calls"] = calls["synth.generate_corpus"][0]
    layers["synth.recovery_report_s"] = totals.get("synth.recovery_report", 0.0)
    layers["cli.self_s"] = selfs.get("cli.main", 0.0)

    summaries = [obs for name, obs in tracer.observations if name == "pipeline.run_pipeline"]
    for key in PIPELINE_COUNTS:
        layers[f"pipeline.{key}"] = sum(s[key] for s in summaries)
    keyword_in = sum(s["keyword_in"] for s in summaries)
    layers["pipeline.keyword_share"] = (
        sum(s["keyword_out"] for s in summaries) / keyword_in if keyword_in else 0.0
    )
    return layers


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def run(args) -> dict:
    workload = WORKLOADS[args.workload]
    inputs, out = os.path.join(args.dir, "inputs"), os.path.join(args.dir, "out")
    plan = ops(workload, args.seed, inputs, out)
    from museumflows import cli

    tracer = Tracer("museumflows", {"pipeline.run_pipeline": pipeline_summary}) if args.trace else None
    checker = OutputChecker(inputs)
    iterations, spans = [], []
    start = time.perf_counter()
    with SpeedProbe() as probe:
        while True:
            traced = tracer is not None and len(iterations) % 2 == 1
            shutil.rmtree(out, ignore_errors=True)
            if traced:
                tracer.reset()
            mark = probe.mark()
            with tracer if traced else nullcontext():
                began = time.perf_counter()
                results = [run_op(cli, op) for op in plan]
                wall = time.perf_counter() - began
            factor, kernel_s = probe.scale(mark)
            iteration = {
                "traced": traced,
                "wall_s": wall,
                "wall_ref_s": wall * factor,
                "kernel_s": kernel_s,
                "ops": [[op.tag, rc, seconds] for op, (rc, seconds, _) in zip(plan, results)],
                **checker.examine(plan, results),
            }
            if traced:
                layers = layer_metrics(tracer)
                iteration["layers"] = {
                    k: v * factor if k.endswith("_s") else v for k, v in layers.items()
                }
                spans.append({"iteration": len(iterations), "spans": list(tracer.spans)})
            iterations.append(iteration)
            # stop before an iteration of typical length would overrun the budget
            typical = statistics.median(it["wall_s"] for it in iterations)
            overrun = time.perf_counter() - start + typical > args.seconds
            if overrun and len(iterations) >= (2 if tracer else 1):
                break
    shutil.rmtree(out, ignore_errors=True)
    if tracer is not None:
        with open(args.trace_file, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent"], "iterations": spans}, fh)
    return {
        "iterations": iterations,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "environment": environment(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-file")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        with SpeedProbe() as probe:
            digest = write_inputs(WORKLOADS[args.workload], args.seed, os.path.join(args.dir, "inputs"))
        print(json.dumps({"digest": digest, "kernel_s": statistics.median(probe.samples)}))
    else:
        print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

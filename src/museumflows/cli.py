"""Command-line front end.

Eight verbs: museums, filter, homes, flows, model, calibrate, simulate,
report. Each reads the referenced files, runs the matching library calls,
and writes fixed-name outputs into --out. All outputs are deterministic,
so re-running a verb over unchanged inputs reproduces identical bytes.
The filter and homes verbs run the pipeline's own stage runners, the ones
run_pipeline uses for flows and calibrate --tweets, so the chain and its
stage order are written once, in the pipeline module.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import fileio
from .calibration import SPEC_FLAGS, BetaGrid, sweep_beta
from .errors import FlowModelError
from .pipeline import (
    DEFAULT_BUFFER_M,
    DEFAULT_KEYWORDS,
    DEFAULT_MERGE_RADIUS_M,
    FILTER_STAGES,
    PipelineReport,
    _located_homes,
    _run_filters,
    corpus_frame,
    extract_museums,
    run_pipeline,
)
from .sim import CONSTRAINTS, DETERRENCE_KINDS, Deterrence, ModelSpec, model_matrix
from .synth import SynthConfig, demo_region, recovery_report


class _UsageError(Exception):
    """Bad flag combination, reported before any file is read."""


def _keyword_list(text: str):
    words = tuple(w.strip() for w in text.split(",") if w.strip())
    if not words:
        raise argparse.ArgumentTypeError("empty keyword list")
    return words


def _stage_list(text: str):
    stages = tuple(s.strip() for s in text.split(",") if s.strip())
    unknown = [s for s in stages if s not in FILTER_STAGES]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown stages: {', '.join(unknown)} (choose from {', '.join(FILTER_STAGES)})"
        )
    if not stages:
        raise argparse.ArgumentTypeError("empty stage list")
    return stages


def _add_grid_flags(sub):
    sub.add_argument("--beta-start", type=float, default=BetaGrid.start)
    sub.add_argument("--beta-step", type=float, default=BetaGrid.step)
    sub.add_argument("--beta-count", type=int, default=BetaGrid.count)


def _add_spec_flags(sub, with_constraint=True):
    sub.add_argument("--spec", choices=sorted(SPEC_FLAGS), default="baseline")
    sub.add_argument("--deterrence", choices=DETERRENCE_KINDS, default=Deterrence.kind)
    if with_constraint:
        sub.add_argument("--constraint", choices=CONSTRAINTS, default=ModelSpec.constraint)


def _add_pipeline_flags(sub):
    sub.add_argument("--keywords", type=_keyword_list, default=DEFAULT_KEYWORDS)
    sub.add_argument("--footprints")
    sub.add_argument("--buffer-m", type=float, default=DEFAULT_BUFFER_M)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="museumflows",
        description="Build museum-visit flow matrices from geotagged messages and fit spatial interaction models.",
    )
    verbs = parser.add_subparsers(dest="verb", required=True)

    p = verbs.add_parser("museums", help="distill raw map features into one museum per site")
    p.add_argument("--features", required=True)
    p.add_argument("--merge-radius-m", type=float, default=DEFAULT_MERGE_RADIUS_M)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_museums)

    p = verbs.add_parser("filter", help="run selected corpus filter stages")
    p.add_argument("--tweets", required=True)
    p.add_argument("--zones")
    p.add_argument("--museums")
    p.add_argument("--stages", type=_stage_list, default=None,
                   help="comma list from: " + ", ".join(FILTER_STAGES))
    _add_pipeline_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_filter)

    p = verbs.add_parser("homes", help="infer each user's home cell and zone")
    p.add_argument("--tweets", required=True)
    p.add_argument("--zones", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_homes)

    p = verbs.add_parser("flows", help="full pipeline: observed flow matrix and flow map")
    p.add_argument("--tweets", required=True)
    p.add_argument("--zones", required=True)
    p.add_argument("--museums", required=True)
    _add_pipeline_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_flows)

    p = verbs.add_parser("model", help="evaluate a model matrix at a fixed beta")
    p.add_argument("--zones", required=True)
    p.add_argument("--museums", required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--observed", help="observed matrix CSV (required for constrained models)")
    _add_spec_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_model)

    p = verbs.add_parser("calibrate", help="sweep beta against an observed matrix")
    p.add_argument("--zones", required=True)
    p.add_argument("--museums", required=True)
    p.add_argument("--observed", help="observed matrix CSV; alternative to --tweets")
    p.add_argument("--tweets", help="tweet NDJSON to aggregate; alternative to --observed")
    _add_pipeline_flags(p)
    _add_spec_flags(p)
    _add_grid_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_calibrate)

    p = verbs.add_parser("simulate", help="synthetic corpus plus parameter recovery")
    p.add_argument("--zones", help="zone GeoJSON; omit to generate a demo region")
    p.add_argument("--museums", help="museum GeoJSON; used with --zones")
    p.add_argument("--n-zones", type=int, default=20)
    p.add_argument("--n-museums", type=int, default=5)
    p.add_argument("--n-trips", type=int, default=5000)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--beta", type=float, default=1.0, help="true deterrence exponent")
    p.add_argument("--seed", type=int, default=0)
    _add_spec_flags(p, with_constraint=False)
    _add_grid_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_simulate)

    p = verbs.add_parser("report", help="pretty-print a pipeline report")
    p.add_argument("--report", required=True)
    p.set_defaults(handler=_cmd_report)

    return parser


def _outdir(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _build_spec(args, beta: float, constraint: str | None = None) -> ModelSpec:
    attract, demand = SPEC_FLAGS[args.spec]
    return ModelSpec(
        deterrence=Deterrence(args.deterrence, beta),
        use_attractiveness=attract,
        use_demand=demand,
        constraint=constraint or getattr(args, "constraint", ModelSpec.constraint),
    )


def _cmd_museums(args) -> int:
    features = fileio.read_tagged_features(args.features)
    museums = extract_museums(features, merge_radius_m=args.merge_radius_m)
    out = _outdir(args)
    fileio.write_museums(museums, os.path.join(out, "museums.geojson"))
    print(f"wrote {len(museums)} museums to {out}/museums.geojson")
    return 0


def _cmd_filter(args) -> int:
    if args.stages is not None and "spatial" in args.stages and not (args.footprints and args.museums):
        raise _UsageError("the spatial stage needs --footprints and --museums")
    if args.footprints and not args.museums:
        raise _UsageError("--footprints needs --museums to resolve ids")

    tweets = fileio.read_tweets(args.tweets)
    if args.zones:
        _, ref = fileio.read_zones(args.zones)
    else:
        ref = corpus_frame(tweets)
    footprints = None
    if args.footprints:
        museums = fileio.read_museums(args.museums)
        footprints = fileio.read_footprints(args.footprints, museums, ref)

    corpus, entries = _run_filters(tweets, ref, args.stages, footprints, args.keywords, args.buffer_m)

    out = _outdir(args)
    fileio.write_tweets(corpus, os.path.join(out, "filtered.ndjson"))
    fileio.write_report_json(PipelineReport(tuple(entries)), os.path.join(out, "report.json"))
    print(f"kept {len(corpus)} of {len(tweets)} tweets; wrote {out}/filtered.ndjson")
    return 0


def _cmd_homes(args) -> int:
    tweets = fileio.read_tweets(args.tweets)
    zones, ref = fileio.read_zones(args.zones)
    _, _, homes = _located_homes(tweets, zones, ref)
    out = _outdir(args)
    fileio.write_homes_csv(homes, os.path.join(out, "homes.csv"))
    placed = int((homes.zone >= 0).sum())
    cells = len(set(zip(homes.ix.tolist(), homes.iy.tolist())))
    print(
        f"located {len(homes)} users ({placed} inside a zone) "
        f"in {cells} distinct home cells; wrote {out}/homes.csv"
    )
    return 0


def _read_region(args):
    zones, ref = fileio.read_zones(args.zones)
    museums = fileio.read_museums(args.museums)
    return zones, museums, ref


def _pipeline_from_tweets(args, zones, museums, ref):
    """run_pipeline over --tweets, with --footprints, --keywords and --buffer-m."""
    tweets = fileio.read_tweets(args.tweets)
    footprints = (
        fileio.read_footprints(args.footprints, museums, ref) if args.footprints else None
    )
    return run_pipeline(
        tweets, zones, museums, ref, footprints=footprints, keywords=args.keywords, buffer_m=args.buffer_m
    )


def _cmd_flows(args) -> int:
    zones, museums, ref = _read_region(args)
    result = _pipeline_from_tweets(args, zones, museums, ref)
    out = _outdir(args)
    fileio.write_matrix_csv(result.matrix, os.path.join(out, "observed.csv"))
    fileio.write_flow_lines(result.matrix, zones, museums, os.path.join(out, "flows.geojson"))
    fileio.write_report_json(result.report, os.path.join(out, "report.json"))
    print(f"observed {result.matrix.total():g} trips; wrote {out}/observed.csv")
    return 0


def _cmd_model(args) -> int:
    if args.constraint != "unconstrained" and not args.observed:
        raise _UsageError(f"--constraint {args.constraint} needs --observed for its margins")
    zones, museums, _ = _read_region(args)
    observed = fileio.read_matrix_csv(args.observed) if args.observed else None
    spec = _build_spec(args, args.beta)
    matrix = model_matrix(zones, museums, spec, observed=observed)
    out = _outdir(args)
    fileio.write_matrix_csv(matrix, os.path.join(out, "model.csv"))
    print(f"wrote {out}/model.csv")
    return 0


def _cmd_calibrate(args) -> int:
    if bool(args.observed) == bool(args.tweets):
        raise _UsageError("give exactly one of --observed or --tweets")
    zones, museums, ref = _read_region(args)
    if args.observed:
        observed = fileio.read_matrix_csv(args.observed)
    else:
        observed = _pipeline_from_tweets(args, zones, museums, ref).matrix
    grid = BetaGrid(args.beta_start, args.beta_step, args.beta_count)
    spec = _build_spec(args, args.beta_start)
    sweep = sweep_beta(zones, museums, observed, spec, grid)
    out = _outdir(args)
    fileio.write_sweep_csv(sweep, os.path.join(out, "sweep.csv"))
    fileio.write_sweep_json(sweep, os.path.join(out, "sweep.json"))
    print(f"best beta {sweep.best_beta:g} (r={sweep.best_r:.4f}); wrote {out}/sweep.csv")
    return 0


def _cmd_simulate(args) -> int:
    if bool(args.zones) != bool(args.museums):
        raise _UsageError("--zones and --museums go together")
    spec = _build_spec(args, args.beta, constraint="unconstrained")
    cfg = SynthConfig(true_spec=spec, n_trips=args.n_trips, noise=args.noise, seed=args.seed)
    grid = BetaGrid(args.beta_start, args.beta_step, args.beta_count)
    out = _outdir(args)
    if args.zones:
        zones, museums, ref = _read_region(args)
    else:
        region = demo_region(args.n_zones, args.n_museums, args.seed)
        zones, museums, ref = region.zones, region.museums, region.ref
        fileio.write_zones(zones, ref, os.path.join(out, "zones.geojson"))
        fileio.write_museums(museums, os.path.join(out, "museums.geojson"))

    rep = recovery_report(zones, museums, cfg, ref, grid)
    fileio.write_tweets(rep.corpus, os.path.join(out, "corpus.ndjson"))
    fileio.write_matrix_csv(rep.truth, os.path.join(out, "truth.csv"))
    fileio.write_sweep_csv(rep.sweep, os.path.join(out, "sweep.csv"))
    fileio.write_recovery_json(rep, os.path.join(out, "recovery.json"))
    print(
        f"simulated {args.n_trips} trips; recovered beta {rep.best_beta:g} "
        f"(true {rep.true_beta:g}); wrote {out}/recovery.json"
    )
    return 0


def _cmd_report(args) -> int:
    report = fileio.read_report_json(args.report)
    print(fileio.format_report(report))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (FlowModelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's three workloads: their inputs and the verbs they run.

Each workload is one set of input files, written by :func:`write_inputs`
during set-up, and a fixed sequence of command-line invocations (``ops``)
that one caller runs in a closed loop. The study area of each workload is
fixed, as the paper's study area is; ``--seed`` draws the message corpus.

This module imports nothing from the package at import time, so the
parent process can read the workload table without loading numpy.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

TRUE_BETA = 0.95
GRID_POINTS = 200  # the CLI's default beta grid: 0.01, 0.02, ..., 2.00
RECOVERY_SEEDS = 4
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    name: str
    n_zones: int
    n_museums: int
    region_seed: int
    n_trips: int
    noise: float
    footprints: bool = False
    corpus: bool = True  # False: the verb generates its own corpus
    regimes: tuple[str, ...] = ()  # constraint regimes calibrated after flows


WORKLOADS = {
    w.name: w
    for w in (
        # ROADMAP "large case": NDJSON parsing and every per-tweet stage,
        # the spatial filter included; no beta sweep.
        Workload("flows-large", 20, 5, region_seed=7, n_trips=50_000, noise=0.2, footprints=True),
        # ROADMAP "paper case": 179 zones x 15 museums; zone assignment and
        # the three constraint regimes of the beta sweep.
        Workload(
            "calibrate-paper", 179, 15, region_seed=11, n_trips=5_000, noise=0.2,
            regimes=("unconstrained", "origin", "doubly"),
        ),
        # Acceptance criterion 1 over four corpus seeds: corpus generation and
        # NDJSON writing on the timed path, no NDJSON parsing.
        Workload("recovery-study", 20, 5, region_seed=7, n_trips=5_000, noise=0.2, corpus=False),
    )
}


@dataclass(frozen=True)
class Op:
    """One verb invocation: a tag naming it and the argv for ``cli.main``."""

    tag: str
    argv: tuple[str, ...]

    def out_dir(self) -> str:
        return self.argv[self.argv.index("--out") + 1]

    def sweeps(self) -> bool:
        return self.argv[0] in ("calibrate", "simulate")


def ops(workload: Workload, seed: int, inputs: str, out: str) -> list[Op]:
    """The verbs of one workload iteration, in the order they run."""
    zones = os.path.join(inputs, "zones.geojson")
    museums = os.path.join(inputs, "museums.geojson")
    if not workload.corpus:
        return [
            Op(
                f"simulate-{s}",
                (
                    "simulate", "--zones", zones, "--museums", museums,
                    "--n-trips", str(workload.n_trips), "--noise", str(workload.noise),
                    "--beta", str(TRUE_BETA), "--seed", str(s),
                    "--out", os.path.join(out, f"simulate-{s}"),
                ),
            )
            for s in range(RECOVERY_SEEDS * seed, RECOVERY_SEEDS * (seed + 1))
        ]
    flows = [
        "flows", "--tweets", os.path.join(inputs, "corpus.ndjson"),
        "--zones", zones, "--museums", museums,
    ]
    if workload.footprints:
        flows += ["--footprints", os.path.join(inputs, "footprints.geojson")]
    flows_out = os.path.join(out, "flows")
    result = [Op("flows", tuple(flows + ["--out", flows_out]))]
    observed = os.path.join(flows_out, "observed.csv")
    for constraint in workload.regimes:
        result.append(
            Op(
                f"calibrate-{constraint}",
                (
                    "calibrate", "--zones", zones, "--museums", museums,
                    "--observed", observed, "--constraint", constraint,
                    "--out", os.path.join(out, f"calibrate-{constraint}"),
                ),
            )
        )
    return result


def write_inputs(workload: Workload, seed: int, inputs: str) -> str:
    """Generate and write the workload's input files; return their digest."""
    from museumflows import fileio
    from museumflows.geometry import unproject
    from museumflows.sim import Deterrence, ModelSpec
    from museumflows.synth import SynthConfig, demo_region, generate_corpus

    os.makedirs(inputs, exist_ok=True)
    region = demo_region(workload.n_zones, workload.n_museums, workload.region_seed)
    fileio.write_zones(region.zones, region.ref, os.path.join(inputs, "zones.geojson"))
    fileio.write_museums(region.museums, os.path.join(inputs, "museums.geojson"))
    if workload.footprints:
        features = []
        for museum, poly in region.footprints:
            ring = [unproject(q, region.ref) for q in poly.exterior]
            ring.append(ring[0])
            features.append({
                "type": "Feature",
                "properties": {"museum_id": museum.id},
                "geometry": {"type": "Polygon", "coordinates": [[[p.lon, p.lat] for p in ring]]},
            })
        with open(os.path.join(inputs, "footprints.geojson"), "w", encoding="utf-8") as fh:
            json.dump({"type": "FeatureCollection", "features": features}, fh, sort_keys=True)
    if workload.corpus:
        spec = ModelSpec(deterrence=Deterrence("exponential", TRUE_BETA))
        cfg = SynthConfig(true_spec=spec, n_trips=workload.n_trips, noise=workload.noise, seed=seed)
        corpus, truth = generate_corpus(region.zones, region.museums, cfg, region.ref)
        fileio.write_tweets(corpus, os.path.join(inputs, "corpus.ndjson"))
        fileio.write_matrix_csv(truth, os.path.join(inputs, "truth.csv"))
    return tree_digest(inputs)


def tree_digest(root: str) -> str:
    """sha256 over the relative paths and bytes of every file under root."""
    h = hashlib.sha256()
    for path in sorted(_files(root)):
        h.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


def _files(root: str):
    for dirpath, _, names in os.walk(root):
        for name in names:
            yield os.path.join(dirpath, name)

"""Output checks, with a numpy oracle for the beta sweeps.

The oracle reads only the files the verbs read or wrote and shares no code
with the package: zone centroids are the vertex means of the (rectangular)
zone rings, distances use the chord-angle great-circle form instead of
haversine, and r is computed for the whole grid at once.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

EARTH_RADIUS_KM = 6371.0088  # the package's fixed mean radius
R_TOL = 1e-9


def read_matrix(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    cols = rows[0][1:]
    ids = [r[0] for r in rows[1:]]
    return ids, cols, np.array([[float(v) for v in r[1:]] for r in rows[1:]])


class Region:
    """Zone centroids and populations, museum locations, from GeoJSON."""

    def __init__(self, zones_path, museums_path):
        with open(zones_path, encoding="utf-8") as fh:
            zones = json.load(fh)["features"]
        with open(museums_path, encoding="utf-8") as fh:
            museums = json.load(fh)["features"]
        self.zone_ids = [f["properties"]["id"] for f in zones]
        self.museum_ids = [f["properties"]["id"] for f in museums]
        self.population = np.array([float(f["properties"]["population"]) for f in zones])
        centroids = np.array([np.mean(f["geometry"]["coordinates"][0][:-1], axis=0) for f in zones])
        points = np.array([f["geometry"]["coordinates"] for f in museums], dtype=float)
        self.dist = _great_circle_km(centroids, points)

    def aligned(self, path):
        """The matrix at path, reordered to this region's zone and museum order."""
        ids, cols, values = read_matrix(path)
        rows = [ids.index(z) for z in self.zone_ids]
        columns = [cols.index(m) for m in self.museum_ids]
        return values[np.ix_(rows, columns)]


def _great_circle_km(a_lonlat, b_lonlat):
    def unit(lonlat):
        lon, lat = np.radians(lonlat[:, 0]), np.radians(lonlat[:, 1])
        return np.stack([np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon), np.sin(lat)], axis=1)

    a, b = unit(a_lonlat), unit(b_lonlat)
    cross = np.linalg.norm(np.cross(a[:, None, :], b[None, :, :]), axis=2)
    return EARTH_RADIUS_KM * np.arctan2(cross, a @ b.T)


def oracle_r(region: Region, observed, constraint: str, betas):
    """Pearson r of the baseline exponential model against observed, per beta."""
    f = np.exp(-np.asarray(betas)[:, None, None] * region.dist[None, :, :])
    if constraint == "unconstrained":
        model = region.population[None, :, None] * f
    elif constraint == "origin":
        model = observed.sum(axis=1)[None, :, None] * f / f.sum(axis=2, keepdims=True)
    else:
        raise ValueError(f"no oracle for the {constraint} regime")
    x = model.reshape(len(betas), -1)
    x = x - x.mean(axis=1, keepdims=True)
    y = observed.ravel() - observed.mean()
    return (x @ y) / (np.linalg.norm(x, axis=1) * np.linalg.norm(y))


def check_sweep(region, observed, constraint, betas, r_values, best_beta) -> list[str]:
    """Compare a written sweep with the oracle; return the failures found."""
    grid = 0.01 + 0.01 * np.arange(len(betas))
    if not np.allclose(betas, grid, rtol=0, atol=1e-12):
        return [f"{constraint} sweep: beta grid is not 0.01, 0.02, ..."]
    expected = oracle_r(region, observed, constraint, grid)
    got = np.array([math.nan if r is None else r for r in r_values], dtype=float)
    bad = np.flatnonzero(~(np.abs(got - expected) <= R_TOL))
    errors = []
    if bad.size:
        k = int(bad[0])
        errors.append(
            f"{constraint} sweep: r at beta {grid[k]:.2f} is {float(got[k])!r}, oracle {float(expected[k])!r}"
            f" ({bad.size} points differ)"
        )
    k = int(np.argmin(np.abs(grid - best_beta)))
    if abs(grid[k] - best_beta) > 1e-12 or expected[k] < expected.max() - R_TOL:
        errors.append(
            f"{constraint} sweep: best beta {best_beta!r}, oracle argmax {grid[int(np.argmax(expected))]:.2f}"
        )
    return errors


def read_sweep_json(path):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    points = doc["points"]
    return [p["beta"] for p in points], [p["r"] for p in points], doc["best_beta"]


def read_sweep_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return [float(r["beta"]) for r in rows], [float(r["r"]) for r in rows]


def finite_points(r_values) -> int:
    return sum(1 for r in r_values if r is not None and math.isfinite(r))


def same_bytes(a, b) -> bool:
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


def check_flows(out_dir, inputs) -> list[str]:
    observed = os.path.join(out_dir, "observed.csv")
    if not os.path.isfile(observed):
        return ["flows wrote no observed.csv"]
    if not same_bytes(observed, os.path.join(inputs, "truth.csv")):
        return ["observed.csv differs from the generator's truth.csv"]
    return []

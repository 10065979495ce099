"""Shared fixture builders and oracles for the test suite."""

import math

import numpy as np

from museumflows.geometry import GeoPoint
from museumflows.sim import Museum, Zone

ANCHOR = GeoPoint(53.7919, -1.5323)


def deg_for_km(km: float) -> float:
    """Degrees of latitude spanning the given great-circle distance."""
    return math.degrees(km / 6371.0088)


def make_zone(zid, lat, lon, population=1000.0, arts_share=0.0, earnings_proxy=0.0, boundary=None):
    return Zone(
        id=zid,
        name=f"zone {zid}",
        centroid=GeoPoint(lat, lon),
        population=population,
        arts_share=arts_share,
        earnings_proxy=earnings_proxy,
        boundary=boundary,
    )


def make_museum(mid, lat, lon, floor_area_m2=1000.0, media_mentions=5.0):
    return Museum(
        id=mid,
        name=f"museum {mid}",
        location=GeoPoint(lat, lon),
        floor_area_m2=floor_area_m2,
        media_mentions=media_mentions,
    )


def ipf_oracle(O, D, f, n_sweeps=20000):
    """Oracle: scale the kernel matrix itself, no balancing factors."""
    M = np.array(f, dtype=float)
    for _ in range(n_sweeps):
        before = M.copy()
        rows = M.sum(axis=1)
        M = M * np.divide(O, rows, out=np.zeros_like(rows), where=rows > 0)[:, None]
        cols = M.sum(axis=0)
        M = M * np.divide(D, cols, out=np.zeros_like(cols), where=cols > 0)[None, :]
        if np.max(np.abs(M - before)) < 1e-13:
            break
    # finish on a row scaling to share the row-exact convention
    rows = M.sum(axis=1)
    return M * np.divide(O, rows, out=np.zeros_like(rows), where=rows > 0)[:, None]

"""Shared fixture builders and oracles for the test suite."""

import math

import numpy as np
from hypothesis import settings

from museumflows.errors import FlowModelError
from museumflows.geometry import GeoPoint, containment_boxes, edge_tests, ring_edges
from museumflows.pipeline import Homes
from museumflows.sim import Museum, Zone

ANCHOR = GeoPoint(53.7919, -1.5323)

# On CI, Hypothesis loads its derandomized "ci" profile and replays the same
# examples every run; this one draws new ones from --hypothesis-seed.
settings.register_profile("explore", derandomize=False, database=None, print_blob=True)


def deg_for_km(km: float) -> float:
    """Degrees of latitude spanning the given great-circle distance."""
    return math.degrees(km / 6371.0088)


def containment_box(poly):
    """(xmin, ymin, xmax, ymax): the entry of one polygon in :func:`containment_boxes`."""
    return tuple(float(v[0]) for v in containment_boxes(ring_edges([poly])))


def kernel_edge_distance(x, y, poly):
    """Each point's distance to the nearest ring edge of ``poly``: ``np.hypot`` of the edge kernel's offsets."""
    ax, ay, bx, by = (v[:, None] for v in ring_edges([poly])[:4])
    _, _, ex, ey = edge_tests(ax, ay, bx, by, np.asarray(x), np.asarray(y))
    return np.hypot(ex, ey).min(axis=0)


def outcome(fn, *args):
    """("ok", value) of ``fn(*args)``, or ("error", type, message, residual) of the FlowModelError it raised."""
    try:
        return "ok", fn(*args)
    except FlowModelError as exc:
        return "error", type(exc), str(exc), getattr(exc, "residual", None)


def assert_same_outcome(got, expected, *context):
    """Assert that both outcomes are ok, or are the same error field by field; return whether both are ok.

    A NaN residual equals a NaN residual. The values of two ok outcomes are
    left to the caller, which compares them exactly in its own terms.
    ``context`` goes into the assertion messages.
    """
    assert got[0] == expected[0], (got, expected, *context)
    if got[0] == "error":
        assert got[1:3] == expected[1:3], (got, expected, *context)  # type and message
        residual, want = got[3], expected[3]
        assert residual == want or (residual != residual and want != want), (got, expected, *context)  # or both NaN
    return got[0] == "ok"


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


def corpus_columns(corpus):
    """Every column and table of a Corpus, floats by their bits."""
    return (
        corpus.ids.tolist(), corpus.users, corpus.user.tolist(), corpus.stamp_us.tolist(), corpus.tzinfos,
        corpus.tz.tolist(), corpus.lat.tobytes(), corpus.lon.tobytes(), corpus.texts.tolist(), corpus.sources.tolist(),
    )


def home_rows(homes):
    """Each home as (user id, ix, iy, count, zone id), codes resolved to names: corpora in two orders code users apart."""
    zone_ids = homes.zone_ids + (None,)
    return list(zip(
        [homes.users[c] for c in homes.user.tolist()], homes.ix.tolist(), homes.iy.tolist(), homes.count.tolist(),
        [zone_ids[z] for z in homes.zone.tolist()],
    ))


def make_homes(rows, users=None):
    """A Homes holding the given UserHome rows in their order.

    User codes index ``users`` (a corpus's table, holding every row's user)
    or, without it, the rows' users in first-seen order. Zone codes index
    the rows' zone ids in first-seen order.
    """
    users = list(dict.fromkeys(h.user_id for h in rows)) if users is None else list(users)
    zone_ids = list(dict.fromkeys(h.zone_id for h in rows if h.zone_id is not None))
    return Homes(
        users,
        [users.index(h.user_id) for h in rows],
        [h.cell.ix for h in rows],
        [h.cell.iy for h in rows],
        [h.tweet_count_at_cell for h in rows],
        zone_ids,
        [-1 if h.zone_id is None else zone_ids.index(h.zone_id) for h in rows],
    )


def ipf_oracle(O, D, f, tol=1e-11, max_sweeps=50_000):
    """Oracle: scale the kernel matrix itself, no balancing factors.

    Each sweep scales the rows to O, then the columns to D. It returns
    right after a row scaling, once every column with D_j > 0 is within
    ``tol`` of D_j relative and every column with D_j = 0 is empty, and
    raises if ``max_sweeps`` pass first.
    """
    O = np.asarray(O, dtype=float)
    D = np.asarray(D, dtype=float)
    M = np.array(f, dtype=float)
    live = D > 0
    residual = math.inf
    for _ in range(max_sweeps):
        rows = M.sum(axis=1)
        M = M * np.divide(O, rows, out=np.zeros_like(rows), where=rows > 0)[:, None]
        cols = M.sum(axis=0)
        residual = np.max(np.abs(cols[live] - D[live]) / D[live], initial=0.0)
        if residual <= tol and not cols[~live].any():
            return M
        M = M * np.divide(D, cols, out=np.zeros_like(cols), where=cols > 0)[None, :]
    raise AssertionError(f"IPF oracle: margin residual {residual:.3g} after {max_sweeps} sweeps")

"""Command-line verbs: dispatch, outputs, idempotence, diagnostics."""

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import museumflows
from museumflows.cli import main
from museumflows.fileio import (
    read_matrix_csv,
    read_museums,
    read_zones,
    write_matrix_csv,
    write_museums,
    write_report_json,
    write_zones,
)
from museumflows.pipeline import PipelineReport, StageCount
from museumflows.sim import Deterrence, ModelSpec, unconstrained_flows
from museumflows.synth import demo_region


def ndjson_line(tid, user, minute, lat, lon, text, source=None):
    obj = {
        "id": tid,
        "user_id": user,
        "timestamp": f"2013-06-01T12:{minute:02d}:00Z",
        "lat": lat,
        "lon": lon,
        "text": text,
    }
    if source is not None:
        obj["source"] = source
    return json.dumps(obj)


def zone_feature(zid, lon0, lat0, side_deg=0.02, population=1000.0):
    ring = [
        [lon0, lat0],
        [lon0 + side_deg, lat0],
        [lon0 + side_deg, lat0 + side_deg],
        [lon0, lat0 + side_deg],
        [lon0, lat0],
    ]
    return {
        "type": "Feature",
        "properties": {"id": zid, "name": f"Zone {zid}", "population": population},
        "geometry": {"type": "Polygon", "coordinates": [ring]},
    }


def museum_feature(mid, lon, lat, floor_area=1000.0):
    return {
        "type": "Feature",
        "properties": {
            "id": mid,
            "name": f"Museum {mid}",
            "floor_area_m2": floor_area,
            "media_mentions": 1.0,
        },
        "geometry": {"type": "Point", "coordinates": [lon, lat]},
    }


@pytest.fixture
def small_region(tmp_path):
    """Three zones, two museums, and a corpus giving flows zA->m1 x2, zB->m2 x1."""
    zones_doc = {
        "type": "FeatureCollection",
        "features": [
            zone_feature("zA", -1.60, 53.78, population=3000.0),
            zone_feature("zB", -1.58, 53.78, population=1000.0),
            zone_feature("zC", -1.56, 53.78, population=500.0),
        ],
    }
    museums_doc = {
        "type": "FeatureCollection",
        "features": [
            museum_feature("m1", -1.595, 53.795),
            museum_feature("m2", -1.565, 53.795, floor_area=2500.0),
        ],
    }
    zones_path = tmp_path / "zones.geojson"
    museums_path = tmp_path / "museums.geojson"
    zones_path.write_text(json.dumps(zones_doc), encoding="utf-8")
    museums_path.write_text(json.dumps(museums_doc), encoding="utf-8")

    lines = [
        # u1 lives in zA (3 tweets in one cell), visits m1 twice
        ndjson_line("t1", "u1", 0, 53.79, -1.59, "breakfast"),
        ndjson_line("t2", "u1", 1, 53.79, -1.59, "still raining"),
        ndjson_line("t3", "u1", 2, 53.79, -1.59, "off we go"),
        ndjson_line("t4", "u1", 10, 53.795, -1.595, "great museum morning"),
        ndjson_line("t5", "u1", 40, 53.795, -1.595, "museum round two"),
        # u2 lives in zB, visits m2 once
        ndjson_line("t6", "u2", 3, 53.79, -1.57, "quiet day"),
        ndjson_line("t7", "u2", 4, 53.79, -1.57, "tea time"),
        ndjson_line("t8", "u2", 20, 53.795, -1.565, "lovely gallery visit"),
    ]
    tweets_path = tmp_path / "tweets.ndjson"
    tweets_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {"zones": str(zones_path), "museums": str(museums_path), "tweets": str(tweets_path)}


def test_unknown_verb_and_flag_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["model", "--zones", "z", "--museums", "m", "--beta", "1", "--out", "o", "--wat"])
    assert exc.value.code == 2


def test_help_via_module_invocation():
    # the child imports the package from where this process found it
    package_root = os.path.dirname(os.path.dirname(museumflows.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "museumflows.cli", "--help"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "calibrate" in proc.stdout and "simulate" in proc.stdout


def test_missing_file_reports_error(tmp_path, capsys):
    code = main(
        [
            "flows",
            "--tweets", str(tmp_path / "absent.ndjson"),
            "--zones", str(tmp_path / "absent.geojson"),
            "--museums", str(tmp_path / "absent2.geojson"),
            "--out", str(tmp_path / "out"),
        ]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_parse_error_names_file_and_line(tmp_path, small_region, capsys):
    bad = tmp_path / "bad.ndjson"
    bad.write_text(ndjson_line("t1", "u", 0, 53.79, -1.59, "hi") + "\n{broken\n", encoding="utf-8")
    code = main(
        [
            "flows",
            "--tweets", str(bad),
            "--zones", small_region["zones"],
            "--museums", small_region["museums"],
            "--out", str(tmp_path / "out"),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "bad.ndjson:2" in err


def test_museums_verb(tmp_path):
    doc = {
        "type": "FeatureCollection",
        "features": [
            {
                "type": "Feature",
                "properties": {"id": "n1", "tourism": "museum", "name": "City Museum"},
                "geometry": {"type": "Point", "coordinates": [-1.55, 53.80]},
            },
            {
                "type": "Feature",
                "properties": {"name": "The Corn Exchange"},
                "geometry": {"type": "Point", "coordinates": [-1.54, 53.80]},
            },
        ],
    }
    features_path = tmp_path / "raw.geojson"
    features_path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["museums", "--features", str(features_path), "--out", str(out)]) == 0
    museums = read_museums(out / "museums.geojson")
    assert [m.id for m in museums] == ["n1"]


def test_filter_verb_default_stages(tmp_path, small_region):
    out = tmp_path / "out"
    code = main(["filter", "--tweets", small_region["tweets"], "--out", str(out)])
    assert code == 0
    kept = (out / "filtered.ndjson").read_text(encoding="utf-8").strip().splitlines()
    assert len(kept) == 3  # the three keyword tweets
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert [s["stage"] for s in report["stages"]] == ["semantic", "dedup", "checkin-removal"]
    assert report["stages"][0]["tweets_in"] == 8
    assert report["stages"][0]["tweets_out"] == 3


def test_filter_verb_single_stage(tmp_path, small_region):
    out = tmp_path / "out"
    code = main(
        ["filter", "--tweets", small_region["tweets"], "--stages", "semantic", "--out", str(out)]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert [s["stage"] for s in report["stages"]] == ["semantic"]


def test_filter_spatial_without_footprints_is_a_usage_error(tmp_path, small_region, capsys):
    out = tmp_path / "out"
    code = main(
        ["filter", "--tweets", small_region["tweets"], "--stages", "spatial", "--out", str(out)]
    )
    assert code == 2
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()  # rejected before anything was written


def test_unknown_stage_rejected_before_io(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["filter", "--tweets", "nonexistent.ndjson", "--stages", "sematic", "--out", "o"])
    assert exc.value.code == 2


def test_homes_verb(tmp_path, small_region, capsys):
    # u3 shares u1's home cell, so three users resolve through two cells
    with open(small_region["tweets"], encoding="utf-8") as fh:
        lines = fh.read() + ndjson_line("t9", "u3", 5, 53.79, -1.59, "next door") + "\n"
    tweets = tmp_path / "with_neighbour.ndjson"
    tweets.write_text(lines, encoding="utf-8")
    out = tmp_path / "out"
    assert (
        main(
            [
                "homes",
                "--tweets", str(tweets),
                "--zones", small_region["zones"],
                "--out", str(out),
            ]
        )
        == 0
    )
    with open(out / "homes.csv", newline="", encoding="utf-8") as fh:
        rows = {r["user_id"]: r for r in csv.DictReader(fh)}
    assert rows["u1"]["zone_id"] == "zA"
    assert rows["u2"]["zone_id"] == "zB"
    assert rows["u3"]["zone_id"] == "zA"
    assert "located 3 users (3 inside a zone) in 2 distinct home cells" in capsys.readouterr().out


def test_flows_verb_counts_and_lines(tmp_path, small_region):
    out = tmp_path / "out"
    code = main(
        [
            "flows",
            "--tweets", small_region["tweets"],
            "--zones", small_region["zones"],
            "--museums", small_region["museums"],
            "--out", str(out),
        ]
    )
    assert code == 0
    matrix = read_matrix_csv(out / "observed.csv")
    assert matrix.total() == 3.0
    doc = json.loads((out / "flows.geojson").read_text(encoding="utf-8"))
    assert len(doc["features"]) == 2
    by_origin = {f["properties"]["origin"]: f["properties"] for f in doc["features"]}
    assert by_origin["zA"]["destination"] == "m1" and by_origin["zA"]["count"] == 2
    assert by_origin["zB"]["destination"] == "m2" and by_origin["zB"]["count"] == 1
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["stages"][0]["stage"] == "bot-removal"


def test_model_verb_beta_zero_baseline_rows_are_population_shares(tmp_path, small_region):
    out = tmp_path / "out"
    code = main(
        [
            "model",
            "--zones", small_region["zones"],
            "--museums", small_region["museums"],
            "--beta", "0",
            "--spec", "baseline",
            "--out", str(out),
        ]
    )
    assert code == 0
    matrix = read_matrix_csv(out / "model.csv")
    production = {"zA": 3000.0, "zB": 1000.0, "zC": 500.0}
    for i, zid in enumerate(matrix.origin_ids):
        for j in range(len(matrix.destination_ids)):
            assert matrix.values[i, j] == pytest.approx(production[zid], rel=1e-12)


def test_model_csv_round_trip_matches_in_memory(tmp_path, small_region):
    out = tmp_path / "out"
    main(
        [
            "model",
            "--zones", small_region["zones"],
            "--museums", small_region["museums"],
            "--beta", "0.7",
            "--spec", "attract",
            "--out", str(out),
        ]
    )
    zones, _ = read_zones(small_region["zones"])
    museums = read_museums(small_region["museums"])
    spec = ModelSpec(deterrence=Deterrence("exponential", 0.7), use_attractiveness=True)
    expected = unconstrained_flows(zones, museums, spec)
    back = read_matrix_csv(out / "model.csv")
    np.testing.assert_allclose(back.values, expected.values, rtol=0, atol=1e-12)


def test_model_constrained_requires_observed(tmp_path, small_region, capsys):
    code = main(
        [
            "model",
            "--zones", small_region["zones"],
            "--museums", small_region["museums"],
            "--beta", "0.5",
            "--constraint", "doubly",
            "--out", str(tmp_path / "out"),
        ]
    )
    assert code == 2
    assert "--observed" in capsys.readouterr().err


def test_calibrate_verb_default_grid(tmp_path, small_region):
    zones, _ = read_zones(small_region["zones"])
    museums = read_museums(small_region["museums"])
    spec = ModelSpec(deterrence=Deterrence("exponential", 0.95))
    observed = unconstrained_flows(zones, museums, spec)
    obs_path = tmp_path / "observed.csv"
    write_matrix_csv(observed, obs_path)

    out = tmp_path / "out"
    code = main(
        [
            "calibrate",
            "--zones", small_region["zones"],
            "--museums", small_region["museums"],
            "--observed", str(obs_path),
            "--out", str(out),
        ]
    )
    assert code == 0
    with open(out / "sweep.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["beta", "r", "rms", "spec"]
    assert len(rows) == 201  # header + default 200-point grid
    doc = json.loads((out / "sweep.json").read_text(encoding="utf-8"))
    assert doc["best_beta"] == pytest.approx(0.95)


def test_calibrate_from_tweets(tmp_path, small_region):
    out = tmp_path / "out"
    code = main(
        [
            "calibrate",
            "--zones", small_region["zones"],
            "--museums", small_region["museums"],
            "--tweets", small_region["tweets"],
            "--beta-start", "0.1",
            "--beta-step", "0.1",
            "--beta-count", "5",
            "--out", str(out),
        ]
    )
    assert code == 0
    doc = json.loads((out / "sweep.json").read_text(encoding="utf-8"))
    assert len(doc["points"]) == 5


def test_calibrate_needs_exactly_one_source(tmp_path, small_region, capsys):
    base = [
        "calibrate",
        "--zones", small_region["zones"],
        "--museums", small_region["museums"],
        "--out", str(tmp_path / "out"),
    ]
    assert main(base) == 2
    assert main(base + ["--observed", "a.csv", "--tweets", "b.ndjson"]) == 2
    capsys.readouterr()


def test_simulate_verb_outputs_and_idempotence(tmp_path):
    args = [
        "simulate",
        "--n-zones", "8",
        "--n-museums", "3",
        "--n-trips", "200",
        "--beta", "0.95",
        "--seed", "13",
        "--beta-start", "0.05",
        "--beta-step", "0.05",
        "--beta-count", "40",
    ]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    names = ["corpus.ndjson", "truth.csv", "zones.geojson", "museums.geojson", "sweep.csv", "recovery.json"]
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    # re-running into the same directory leaves identical bytes too
    before = {name: (out1 / name).read_bytes() for name in names}
    assert main(args + ["--out", str(out1)]) == 0
    assert all((out1 / name).read_bytes() == before[name] for name in names)

    truth = read_matrix_csv(out1 / "truth.csv")
    assert truth.total() == 200.0
    recovery = json.loads((out1 / "recovery.json").read_text(encoding="utf-8"))
    assert recovery["true_beta"] == 0.95
    assert recovery["abs_error"] == abs(recovery["best_beta"] - 0.95)


def test_simulate_with_explicit_region(tmp_path):
    region = demo_region(6, 2, seed=3)
    zones_path = tmp_path / "zones.geojson"
    museums_path = tmp_path / "museums.geojson"
    write_zones(region.zones, region.ref, zones_path)
    write_museums(region.museums, museums_path)
    out = tmp_path / "out"
    code = main(
        [
            "simulate",
            "--zones", str(zones_path),
            "--museums", str(museums_path),
            "--n-trips", "50",
            "--beta", "0.8",
            "--seed", "2",
            "--beta-count", "30",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert (out / "corpus.ndjson").exists()
    assert not (out / "zones.geojson").exists()  # region came from the caller


def test_flows_rerun_is_byte_identical(tmp_path, small_region):
    out = tmp_path / "out"
    args = [
        "flows",
        "--tweets", small_region["tweets"],
        "--zones", small_region["zones"],
        "--museums", small_region["museums"],
        "--out", str(out),
    ]
    assert main(args) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(args) == 0
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first == second


def test_report_verb(tmp_path, capsys):
    report = PipelineReport(
        (
            StageCount("bot-removal", 1222, 22, 5),
            StageCount("semantic", 22, 8, 4),
        )
    )
    path = tmp_path / "report.json"
    write_report_json(report, path)
    assert main(["report", "--report", str(path)]) == 0
    text = capsys.readouterr().out
    assert "bot-removal" in text and "1222" in text

"""Command-line verbs: dispatch, outputs, idempotence, diagnostics."""

import csv
import hashlib
import itertools
import json
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest

import museumflows
from museumflows import fileio, pipeline
from museumflows.cli import main
from museumflows.fileio import (
    read_footprints,
    read_matrix_csv,
    read_museums,
    read_tweets,
    read_zones,
    write_matrix_csv,
    write_museums,
    write_report_json,
    write_tweets,
    write_zones,
)
from museumflows.pipeline import DEFAULT_BUFFER_M, DEFAULT_KEYWORDS, FILTER_STAGES, PipelineReport, StageCount, tokenize
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


@pytest.mark.parametrize("tag, value", [("media_mentions", "lots"), ("floor_area_m2", "big")])
def test_museums_verb_reports_a_tag_that_is_not_a_number(tmp_path, capsys, tag, value):
    # float() of the tag used to escape main as a bare ValueError
    props = {"id": "n1", "tourism": "museum", "name": "City Museum", tag: value}
    doc = {"type": "FeatureCollection", "features": [
        {"type": "Feature", "properties": props, "geometry": {"type": "Point", "coordinates": [-1.55, 53.80]}},
    ]}
    features_path = tmp_path / "raw.geojson"
    features_path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["museums", "--features", str(features_path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {features_path}: museum n1: {tag} {value!r} is not a number\n"


def run_museums(tmp_path, *features):
    """Run the museums verb on (properties, geometry) pairs; return its exit code and the --out path."""
    doc = {"type": "FeatureCollection", "features": [
        {"type": "Feature", "properties": props, "geometry": geom} for props, geom in features
    ]}
    features_path = tmp_path / "raw.geojson"
    features_path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    return main(["museums", "--features", str(features_path), "--out", str(out)]), out


@pytest.mark.parametrize("first, second, repeated", [
    ({"id": "m1", "name": "Leeds Museum"}, {"id": "m1", "name": "Bradford Museum"}, "m1"),
    # the untagged site's fallback id, museum-0, is the other site's tag
    ({"name": "Leeds Museum"}, {"id": "museum-0", "name": "Bradford Museum"}, "museum-0"),
], ids=["tagged", "tag-meets-fallback"])
def test_museums_verb_rejects_a_repeated_id_before_writing(tmp_path, capsys, first, second, repeated):
    code, out = run_museums(
        tmp_path,
        (first, {"type": "Point", "coordinates": [-1.55, 53.80]}),
        (second, {"type": "Point", "coordinates": [-1.75, 53.79]}),
    )
    assert code == 1
    assert capsys.readouterr().err == f"error: {tmp_path / 'raw.geojson'}: repeated museum ids: {repeated}\n"
    assert not out.exists()


def test_museums_verb_names_the_file_and_feature_of_a_polygon_of_no_area(tmp_path, capsys):
    collinear = {"type": "Polygon", "coordinates": [[[-1.55, 53.80], [-1.54, 53.80], [-1.53, 53.80], [-1.55, 53.80]]]}
    code, out = run_museums(tmp_path, ({"id": "n1", "tourism": "museum"}, collinear))
    assert code == 1
    path = tmp_path / "raw.geojson"
    assert capsys.readouterr().err == f"error: {path}: feature 'n1': polygon area must be positive, got 0.0\n"
    assert not out.exists()


def test_museums_verb_names_the_file_and_feature_of_a_point_off_the_globe(tmp_path, capsys):
    code, out = run_museums(tmp_path, ({"id": "n1", "name": "City Museum"}, {"type": "Point", "coordinates": [-1.55, 95]}))
    assert code == 1
    path = tmp_path / "raw.geojson"
    assert capsys.readouterr().err == f"error: {path}: feature 'n1': latitude 95.0 outside [-90, 90]\n"
    assert not out.exists()


def test_museums_verb_keeps_a_namesake_point_far_outside_a_polygon_frame(tmp_path):
    ring = [[-1.5, 53.8], [-1.499, 53.8], [-1.499, 53.801], [-1.5, 53.801], [-1.5, 53.8]]
    code, out = run_museums(
        tmp_path,
        ({"name": "Science Museum"}, {"type": "Polygon", "coordinates": [ring]}),
        ({"name": "Science Museum"}, {"type": "Point", "coordinates": [-74.0, 40.7]}),
    )
    assert code == 0
    museums = read_museums(out / "museums.geojson")
    assert [(m.id, m.name) for m in museums] == [("museum-0", "Science Museum"), ("museum-1", "Science Museum")]
    assert (museums[1].location.lat, museums[1].location.lon) == (40.7, -74.0)


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


def test_filter_footprints_without_museums_is_a_usage_error_before_io(tmp_path, capsys):
    argv = ["filter", "--tweets", str(tmp_path / "missing.ndjson"), "--footprints", str(tmp_path / "f.geojson")]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "--footprints needs --museums" in err
    assert not (tmp_path / "out").exists()


def test_non_utf8_tweets_are_a_reported_error(tmp_path, small_region, capsys):
    bad = tmp_path / "bad.ndjson"
    line = ndjson_line("t1", "u", 0, 53.79, -1.59, "caf@")
    bad.write_bytes((ndjson_line("t0", "u", 0, 53.79, -1.59, "hi") + "\n" + line + "\n").encode().replace(b"@", b"\xe9"))
    flows = ["flows", "--tweets", str(bad), "--zones", small_region["zones"], "--museums", small_region["museums"]]
    assert main(flows + ["--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "bad.ndjson:2: not valid UTF-8" in err


def test_a_stamp_outside_datetime_in_utc_is_a_reported_error(tmp_path, capsys):
    # each is a valid local time whose UTC instant datetime cannot hold; the row used to
    # be read, and rebuilding it died with an OverflowError traceback
    for stamp in ("9999-12-31T23:00:00-05:30", "0001-01-01T00:30:00+01:00"):
        path = tmp_path / "late.ndjson"
        line = json.dumps({"id": "t0", "user_id": "u", "timestamp": stamp, "lat": 53.79, "lon": -1.59, "text": "museum visit"})
        path.write_text(line + "\n", encoding="utf-8")
        assert main(["filter", "--tweets", str(path), "--out", str(tmp_path / "out")]) == 1
        expected = f"error: {path}:1: timestamp {stamp!r} is outside 0001-01-01T00:00:00Z .. 9999-12-31T23:59:59.999999Z\n"
        assert capsys.readouterr().err == expected
        assert not (tmp_path / "out").exists()


def test_unknown_stage_rejected_before_io(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["filter", "--tweets", "nonexistent.ndjson", "--stages", "sematic", "--out", "o"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, message", [
    (["flows", "--tweets", "t.ndjson", "--zones", "z.geojson", "--museums", "m.geojson", "--keywords", " , "],
     "empty keyword list"),
    (["filter", "--tweets", "t.ndjson", "--stages", ","], "empty stage list"),
])
def test_an_empty_list_flag_is_rejected_before_io(tmp_path, capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def footprints_file(tmp_path):
    """Squares of about 70 m by 110 m around small_region's two museums."""
    features = []
    d = 0.0005
    for mid, lon, lat in (("m1", -1.595, 53.795), ("m2", -1.565, 53.795)):
        ring = [[lon - d, lat - d], [lon + d, lat - d], [lon + d, lat + d], [lon - d, lat + d], [lon - d, lat - d]]
        features.append({
            "type": "Feature",
            "properties": {"museum_id": mid},
            "geometry": {"type": "Polygon", "coordinates": [ring]},
        })
    path = tmp_path / "footprints.geojson"
    path.write_text(json.dumps({"type": "FeatureCollection", "features": features}), encoding="utf-8")
    return str(path)


REPORTED_AS = {"semantic": "semantic", "spatial": "spatial", "dedup": "dedup", "checkin": "checkin-removal"}


def test_filter_reports_every_stage_subset_in_pipeline_order(tmp_path, small_region):
    argv = [
        "filter", "--tweets", small_region["tweets"], "--zones", small_region["zones"],
        "--museums", small_region["museums"], "--footprints", footprints_file(tmp_path),
    ]
    subsets = [s for k in range(1, 5) for s in itertools.combinations(FILTER_STAGES, k)]
    assert len(subsets) == 15
    for subset in subsets:
        out = tmp_path / "-".join(subset)
        assert main(argv + ["--stages", ",".join(reversed(subset)), "--out", str(out)]) == 0
        stages = json.loads((out / "report.json").read_text(encoding="utf-8"))["stages"]
        assert [s["stage"] for s in stages] == [REPORTED_AS[s] for s in subset], subset
        assert stages[0]["tweets_in"] == 8
        assert all(a["tweets_out"] == b["tweets_in"] for a, b in zip(stages, stages[1:]))


STAGE_FUNCTIONS = (
    "remove_automated_accounts", "infer_home_locations", "assign_home_zone", "semantic_filter",
    "spatial_filter", "dedup", "remove_checkins", "build_observed_matrix",
)


def test_run_pipeline_filter_and_homes_call_the_stages_by_their_pipeline_names(tmp_path, small_region, monkeypatch):
    # a tracer times a stage by rebinding its name in the pipeline module
    calls = dict.fromkeys(STAGE_FUNCTIONS, 0)
    for name in STAGE_FUNCTIONS:
        def counted(*args, _name=name, _fn=getattr(pipeline, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(pipeline, name, counted)

    def calls_of(run, *args, **kwargs):
        calls.update(dict.fromkeys(calls, 0))
        result = run(*args, **kwargs)
        return result, {name: n for name, n in calls.items() if n}

    zones, ref = read_zones(small_region["zones"])
    museums = read_museums(small_region["museums"])
    footprints_path = footprints_file(tmp_path)
    footprints = read_footprints(footprints_path, museums, ref)
    tweets = read_tweets(small_region["tweets"])
    result, counts = calls_of(pipeline.run_pipeline, tweets, zones, museums, ref, footprints=footprints)
    assert counts == dict.fromkeys(STAGE_FUNCTIONS, 1)
    assert result.matrix.total() == 3.0

    filter_argv = [
        "filter", "--tweets", small_region["tweets"], "--zones", small_region["zones"],
        "--museums", small_region["museums"], "--footprints", footprints_path, "--out", str(tmp_path / "f"),
    ]
    filters = ("semantic_filter", "spatial_filter", "dedup", "remove_checkins")
    assert calls_of(main, filter_argv) == (0, dict.fromkeys(filters, 1))
    homes_argv = ["homes", "--tweets", small_region["tweets"], "--zones", small_region["zones"], "--out", str(tmp_path / "h")]
    homes = ("remove_automated_accounts", "infer_home_locations", "assign_home_zone")
    assert calls_of(main, homes_argv) == (0, dict.fromkeys(homes, 1))


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


def test_flows_rejects_a_nan_buffer(tmp_path, small_region, capsys):
    # a NaN buffer used to keep only the tweets inside a footprint
    argv = [
        "flows", "--tweets", small_region["tweets"], "--zones", small_region["zones"],
        "--museums", small_region["museums"], "--footprints", footprints_file(tmp_path),
        "--buffer-m", "nan", "--out", str(tmp_path / "out"),
    ]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: buffer nan must be >= 0\n"


REGION = ["--zones", "z.geojson", "--museums", "m.geojson"]


@pytest.mark.parametrize("argv, message", [
    # a negative buffer without footprints used to run the whole verb and exit 0
    (["flows", "--tweets", "t.ndjson", *REGION, "--buffer-m", "-1"], "buffer -1.0 must be >= 0"),
    (["flows", "--tweets", "t.ndjson", *REGION, "--footprints", "f.geojson", "--buffer-m", "-1"], "buffer -1.0 must be >= 0"),
    (["calibrate", "--tweets", "t.ndjson", *REGION, "--buffer-m", "-0.5"], "buffer -0.5 must be >= 0"),
    (["filter", "--tweets", "t.ndjson", "--buffer-m", "nan"], "buffer nan must be >= 0"),
    (["museums", "--features", "raw.geojson", "--merge-radius-m", "-1"], "merge radius -1.0 must be >= 0"),
    # the grid and the model used to be built after the whole pipeline had run
    (["calibrate", "--tweets", "t.ndjson", *REGION, "--beta-step", "0"], "grid step 0.0 must be > 0"),
    (["calibrate", "--observed", "o.csv", *REGION, "--beta-start", "-1"], "grid start -1.0 must be >= 0"),
    (["model", *REGION, "--beta", "-1"], "deterrence beta -1.0 must be >= 0"),
    # a grid past the largest float used to fail at beta inf, after every input was read
    (["calibrate", "--observed", "o.csv", *REGION, "--beta-start", "1e308", "--beta-step", "1e308", "--beta-count", "3"],
     "grid start 1e+308 step 1e+308 count 3 overflows"),
    # a count too large for a float used to end in a bare OverflowError
    (["calibrate", "--observed", "o.csv", *REGION, "--beta-count", "9" * 401],
     f"grid start 0.01 step 0.01 count {'9' * 401} overflows"),
])
def test_a_bad_parameter_is_reported_before_any_input_is_read(tmp_path, capsys, monkeypatch, argv, message):
    for name in ("read_tweets", "read_zones", "read_museums", "read_footprints", "read_tagged_features", "read_matrix_csv"):
        monkeypatch.setattr(fileio, name, mock.Mock(side_effect=AssertionError(f"{name} was called")))
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


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


def test_calibrate_on_a_constant_observed_matrix_names_it(tmp_path, small_region, capsys):
    obs_path = tmp_path / "observed.csv"
    obs_path.write_text("zone_id,m1,m2\nzA,0,0\nzB,0,0\nzC,0,0\n", encoding="utf-8")
    code = main(
        [
            "calibrate",
            "--zones", small_region["zones"],
            "--museums", small_region["museums"],
            "--observed", str(obs_path),
            "--out", str(tmp_path / "out"),
        ]
    )
    assert code == 1
    assert "observed matrix constant (0 in every cell)" in capsys.readouterr().err


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


def test_simulate_zones_without_museums_is_a_usage_error_before_io(tmp_path, capsys):
    assert main(["simulate", "--zones", "z.geojson", "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "usage error: --zones and --museums go together\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("explicit_region", [False, True])
def test_simulate_with_a_negative_seed_is_a_reported_error_before_io(tmp_path, capsys, explicit_region):
    argv = ["simulate", "--n-trips", "50", "--seed", "-1", "--out", str(tmp_path / "out")]
    if explicit_region:
        region = demo_region(6, 2, seed=3)
        write_zones(region.zones, region.ref, tmp_path / "zones.geojson")
        write_museums(region.museums, tmp_path / "museums.geojson")
        argv += ["--zones", str(tmp_path / "zones.geojson"), "--museums", str(tmp_path / "museums.geojson")]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: seed -1 must be >= 0\n"
    assert not (tmp_path / "out").exists()


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


DEMO = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "data", "demo")
# sha256 of the demo outputs as written before the corpus became columnar;
# a change to any of them is a change of results, not of speed
DEMO_DIGESTS = {
    "observed.csv": "c618dfffa97f116f0d77a6f4300ac19da6f72fe50acbd747e7c3d3218bc6d52e",
    "report.json": "5431f6b9b9fd018b27fa7075d2f54b442b41cc364a81f0a40a0565e4ee19725e",
    "flows.geojson": "c6017b1d6e35a6b68b979cba622b5f5ba6b20dc1462d676947066f5f76a93f7a",
    "homes.csv": "6be57a171df4b8fe10031d3b5a66c1e24a8814f7e760f329682b214cfef995fb",
}
# sha256 of sweep.csv from calibrate --observed truth.csv --spec attract-demand,
# the attractiveness and demand weights' only byte-level pin; the doubly and
# power sweeps go through LAPACK and may differ in the last place across BLAS
# builds, so they are not pinned
ATTRACT_DEMAND_SWEEP_DIGESTS = {
    "unconstrained": "d0e4623c915dc4bace49965bbd925a528f921dee1a3fac9f5e6ba776736f5018",
    "origin": "c2269d6fd4508bc45ffc152c94165038fe071c0892ed65f42891452748cb663d",
}


def test_demo_flows_and_homes_outputs_match_recorded_digests(tmp_path):
    tweets, zones = os.path.join(DEMO, "corpus.ndjson"), os.path.join(DEMO, "zones.geojson")
    museums = os.path.join(DEMO, "museums.geojson")
    flows = ["flows", "--tweets", tweets, "--zones", zones, "--museums", museums]
    assert main(flows + ["--out", str(tmp_path)]) == 0
    assert main(["homes", "--tweets", tweets, "--zones", zones, "--out", str(tmp_path)]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in DEMO_DIGESTS}
    assert digests == DEMO_DIGESTS


def test_flows_keywords_flag_is_the_pipeline_run_with_those_keywords(tmp_path):
    tweets, zones_path = os.path.join(DEMO, "corpus.ndjson"), os.path.join(DEMO, "zones.geojson")
    museums_path = os.path.join(DEMO, "museums.geojson")
    argv = ["flows", "--tweets", tweets, "--zones", zones_path, "--museums", museums_path, "--keywords", "gallery"]
    assert main(argv + ["--out", str(tmp_path / "cli")]) == 0
    zones, ref = read_zones(zones_path)
    result = pipeline.run_pipeline(read_tweets(tweets), zones, read_museums(museums_path), ref, keywords=("gallery",))
    write_matrix_csv(result.matrix, tmp_path / "observed.csv")
    write_report_json(result.report, tmp_path / "report.json")
    for name in ("observed.csv", "report.json"):
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / name).read_bytes(), name
    semantic = next(s for s in result.report.stages if s.stage == "semantic")
    assert 0 < semantic.tweets_out < semantic.tweets_in  # gallery alone keeps some museum tweets, not all


def test_filter_keeps_every_text_it_writes_whether_or_not_it_runs_the_semantic_stage(tmp_path):
    # filter reads with its keywords only when it runs the semantic stage; without it, filtered.ndjson
    # holds every kept row's full text. Two rows carry a check-in source, which the check-in stage reads.
    rows = [json.loads(line) for line in open(os.path.join(DEMO, "corpus.ndjson"), encoding="utf-8")]
    keyword = {row["id"] for row in rows if any(t.casefold().startswith(DEFAULT_KEYWORDS) for t in tokenize(row["text"]))}
    relays = {next(row["id"] for row in rows if row["id"] in keyword), next(row["id"] for row in rows if row["id"] not in keyword)}
    tweets = tmp_path / "corpus.ndjson"
    tweets.write_text("".join(
        json.dumps(dict(row, source="Foursquare for iPhone") if row["id"] in relays else row, sort_keys=True) + "\n"
        for row in rows
    ), encoding="utf-8")
    texts = {row["id"]: row["text"] for row in rows}
    zones_path, museums_path = os.path.join(DEMO, "zones.geojson"), os.path.join(DEMO, "museums.geojson")
    footprints_path = tmp_path / "footprints.geojson"
    museums = read_museums(museums_path)
    squares = [[[m.location.lon + dx, m.location.lat + dy] for dx, dy in ((-.005, -.005), (.005, -.005), (.005, .005), (-.005, .005), (-.005, -.005))]
               for m in museums]
    footprints_path.write_text(json.dumps({"type": "FeatureCollection", "features": [
        {"type": "Feature", "properties": {"museum_id": m.id}, "geometry": {"type": "Polygon", "coordinates": [ring]}}
        for m, ring in zip(museums, squares)
    ]}), encoding="utf-8")
    _, ref = read_zones(zones_path)
    footprints = read_footprints(footprints_path, museums, ref)
    for stages, spatial in (("spatial,dedup", True), ("checkin", False), (None, False), (None, True)):
        out = tmp_path / f"{stages}-{spatial}"
        argv = ["filter", "--tweets", str(tweets), "--zones", zones_path, "--out", str(out)]
        argv += ["--museums", museums_path, "--footprints", str(footprints_path)] if spatial else []
        assert main(argv + (["--stages", stages] if stages else [])) == 0
        plain = read_tweets(tweets)
        *_, (kept, _) = pipeline._run_filters(plain, ref, stages and stages.split(","), footprints if spatial else None,
                                              DEFAULT_KEYWORDS, DEFAULT_BUFFER_M)
        write_tweets(kept, tmp_path / "expected.ndjson")
        assert (out / "filtered.ndjson").read_bytes() == (tmp_path / "expected.ndjson").read_bytes(), (stages, spatial)
        written = {row["id"]: row["text"] for row in map(json.loads, (out / "filtered.ndjson").read_text(encoding="utf-8").splitlines())}
        assert written and all(text == texts[tid] for tid, text in written.items())
        assert bool(set(written) - keyword) == (stages is not None), (stages, spatial)  # rows without a keyword are written
        assert not relays & set(written) or stages == "spatial,dedup", (stages, spatial)


def test_demo_attract_demand_sweeps_match_recorded_digests(tmp_path):
    region = ["--zones", os.path.join(DEMO, "zones.geojson"), "--museums", os.path.join(DEMO, "museums.geojson")]
    for constraint, digest in ATTRACT_DEMAND_SWEEP_DIGESTS.items():
        out = tmp_path / constraint
        argv = ["calibrate", *region, "--observed", os.path.join(DEMO, "truth.csv"), "--spec", "attract-demand",
                "--constraint", constraint, "--out", str(out)]
        assert main(argv) == 0
        assert hashlib.sha256((out / "sweep.csv").read_bytes()).hexdigest() == digest, constraint


def test_simulate_reproduces_the_demo_fixture(tmp_path):
    # the README's command for data/demo; pins the generator and the writers
    argv = [
        "simulate", "--n-zones", "12", "--n-museums", "4", "--n-trips", "800", "--noise", "0.1",
        "--beta", "0.95", "--seed", "20130601", "--out", str(tmp_path),
    ]
    assert main(argv) == 0
    for name in ("corpus.ndjson", "truth.csv", "sweep.csv", "recovery.json", "zones.geojson", "museums.geojson"):
        with open(os.path.join(DEMO, name), "rb") as fh:
            assert (tmp_path / name).read_bytes() == fh.read(), name


def repeated_zone_file(tmp_path):
    """data/demo's zones with the second feature given the first one's id."""
    with open(os.path.join(DEMO, "zones.geojson"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["features"][1]["properties"]["id"] = doc["features"][0]["properties"]["id"]
    zones = tmp_path / "zones.geojson"
    zones.write_text(json.dumps(doc), encoding="utf-8")
    return zones


def test_flows_with_a_repeated_zone_id_is_a_reported_error(tmp_path, capsys):
    # as a zone whose multipolygon is split over several features would give
    zones = repeated_zone_file(tmp_path)
    argv = [
        "flows", "--tweets", os.path.join(DEMO, "corpus.ndjson"), "--zones", str(zones),
        "--museums", os.path.join(DEMO, "museums.geojson"), "--out", str(tmp_path / "out"),
    ]
    assert main(argv) == 1
    assert f"error: {zones}: repeated zone ids: z000\n" == capsys.readouterr().err


def repeated_museum_file(tmp_path):
    """data/demo's museums with the second feature given the first one's id."""
    with open(os.path.join(DEMO, "museums.geojson"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["features"][1]["properties"]["id"] = doc["features"][0]["properties"]["id"]
    museums = tmp_path / "museums.geojson"
    museums.write_text(json.dumps(doc), encoding="utf-8")
    return museums


def test_flows_with_a_repeated_museum_id_names_the_file(tmp_path, capsys):
    museums = repeated_museum_file(tmp_path)
    argv = [
        "flows", "--tweets", os.path.join(DEMO, "corpus.ndjson"), "--zones", os.path.join(DEMO, "zones.geojson"),
        "--museums", str(museums), "--out", str(tmp_path / "out"),
    ]
    assert main(argv) == 1
    assert f"error: {museums}: repeated museum ids: m00\n" == capsys.readouterr().err


def test_calibrate_with_a_repeated_museum_id_names_the_file(tmp_path, capsys):
    museums = repeated_museum_file(tmp_path)
    argv = [
        "calibrate", "--zones", os.path.join(DEMO, "zones.geojson"), "--museums", str(museums),
        "--observed", os.path.join(DEMO, "truth.csv"), "--out", str(tmp_path / "out"),
    ]
    assert main(argv) == 1
    assert f"error: {museums}: repeated museum ids: m00\n" == capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_homes_with_a_repeated_zone_id_is_the_same_reported_error(tmp_path, capsys):
    # homes used to label both features' users z000 and exit 0
    zones = repeated_zone_file(tmp_path)
    argv = ["homes", "--tweets", os.path.join(DEMO, "corpus.ndjson"), "--zones", str(zones), "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    assert f"error: {zones}: repeated zone ids: z000\n" == capsys.readouterr().err
    assert not (tmp_path / "out" / "homes.csv").exists()

"""Scenario runner: loading, validation, exit codes, reports."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from eulerchar.cli import (
    ScenarioError,
    bundled_scenarios,
    load_scenario,
    main,
    run_scenario,
    validate_scenario,
)


def write_scenario(tmp_path, obj, name="sc.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def test_at_least_ten_bundled_scenarios():
    assert len(bundled_scenarios()) >= 10


def test_every_bundled_scenario_validates():
    for name in bundled_scenarios():
        sc = load_scenario(name)
        assert sc["name"] == name


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "s2-rotation" in out
    assert "disk-constant-field" in out


def test_list_json_and_filter(capsys):
    assert main(["list", "--json"]) == 0
    listing = json.loads(capsys.readouterr().out)
    assert len(listing["scenarios"]) >= 10
    assert main(["list", "--filter", "boundary"]) == 0
    out = capsys.readouterr().out
    names = [ln.split()[0] for ln in out.splitlines()
             if ln.startswith("  ")]
    assert names and all(
        "boundary-theorem" in json.loads(
            (bundled_scenarios()[n]).read_text())["methods"]
        for n in names if n in bundled_scenarios()
    )
    assert "annulus-hedgehog" not in out


def test_run_s2_rotation(tmp_path, capsys):
    code = main(["run", "s2-rotation", "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "s2-rotation.report.json").read_text())
    rows = {r["method"]: r for r in report["summary"]}
    assert rows["index-sum"]["rounded"] == 2
    assert rows["index-sum"]["oracle"] == 2
    assert rows["gbc-integral"]["rounded"] == 2
    assert all(r["agree"] for r in report["summary"])


def test_run_disk_constant_field(tmp_path):
    code = main(["run", "disk-constant-field", "--out", str(tmp_path)])
    assert code == 0
    report = json.loads(
        (tmp_path / "disk-constant-field.report.json").read_text())
    payload = report["methods"]["boundary-theorem"]
    assert payload["chi_morse"] == 1
    assert payload["chi_paper"] == 0.0
    assert payload["flags"] == ["paper-halfsum-not-endorsed"]
    assert report["summary"][0]["agree"] is True


def test_assert_paper_boundary_flips_exit_code():
    assert main(["run", "disk-constant-field"]) == 0
    assert main(["run", "disk-constant-field", "--assert-paper-boundary"]) == 2
    # endorsed scenarios keep passing under the strict flag
    assert main(["run", "disk-outward-radial", "--assert-paper-boundary"]) == 0


def test_missing_file_exit_one(capsys):
    assert main(["run", "/no/such/scenario.json"]) == 1
    assert "error" in capsys.readouterr().err


def test_malformed_json_reports_line_and_column(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text('{"schema": 1,\n "name": oops}')
    assert main(["run", str(p)]) == 1
    err = capsys.readouterr().err
    assert "line 2" in err and "column" in err


def test_unknown_field_rejected(tmp_path, capsys):
    path = write_scenario(tmp_path, {
        "schema": 1, "name": "x", "methods": ["index-sum"],
        "domain": {"kind": "torus"},
        "field": {"kind": "builtin", "name": "constant", "components": [1, 1]},
        "surprise": True,
    })
    assert main(["run", path]) == 1
    assert "surprise" in capsys.readouterr().err


def test_schema_version_enforced(tmp_path):
    with pytest.raises(ScenarioError):
        validate_scenario({"schema": 2, "name": "x", "methods": ["index-sum"],
                           "domain": {}}, "test")
    with pytest.raises(ScenarioError):
        validate_scenario({"name": "x", "methods": ["index-sum"],
                           "domain": {}}, "test")


def test_unknown_method_rejected(tmp_path):
    with pytest.raises(ScenarioError):
        validate_scenario({"schema": 1, "name": "x",
                           "methods": ["frobnicate"], "domain": {}}, "test")


def test_json_output_equals_report_file(tmp_path, capsys):
    code = main(["run", "torus-constant", "--json", "--out", str(tmp_path)])
    assert code == 0
    printed = capsys.readouterr().out
    on_disk = (tmp_path / "torus-constant.report.json").read_text()
    assert printed == on_disk


def test_reports_byte_identical_across_runs(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        assert main(["run", "plane-three-zeros", "--out", str(out)]) == 0
    ra = (a / "plane-three-zeros.report.json").read_bytes()
    rb = (b / "plane-three-zeros.report.json").read_bytes()
    assert ra == rb


def test_resolution_scale_threads_through(capsys):
    assert main(["run", "s2-gbc-small", "--resolution-scale", "0.5"]) == 0
    assert main(["run", "s2-gbc-small", "--resolution-scale", "-1"]) == 1
    assert main(["run", "s2-gbc-small", "--resolution-scale", "inf"]) == 1


def test_custom_scenario_file(tmp_path):
    path = write_scenario(tmp_path, {
        "schema": 1,
        "name": "custom-disk",
        "methods": ["boundary-theorem"],
        "domain": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
        "field": {"kind": "builtin", "name": "identity", "dimension": 2},
    })
    assert main(["run", path, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "custom-disk.report.json").read_text())
    assert report["methods"]["boundary-theorem"]["chi_morse"] == 1


def test_scenario_resolutions_override(tmp_path):
    path = write_scenario(tmp_path, {
        "schema": 1,
        "name": "coarse-three-zeros",
        "methods": ["index-sum"],
        "domain": {"kind": "ball", "center": [0.0, 0.0], "radius": 2.0},
        "field": {"kind": "complex-product",
                  "roots": [[-0.6, 0.1]], "conj_roots": [[0.2, 0.6]]},
        "resolutions": {"grid": 16, "scale": 1.5},
    })
    assert main(["run", path]) == 0
    bad = write_scenario(tmp_path, {
        "schema": 1, "name": "y", "methods": ["index-sum"],
        "domain": {"kind": "torus"},
        "field": {"kind": "builtin", "name": "torus-sines"},
        "resolutions": {"bogus": 1},
    }, name="bad.json")
    assert main(["run", bad]) == 1


def test_boundary_theorem_winds_on_the_scenario_quadrature():
    # both methods wind the interior zeros on the rule resolutions.scale picks
    sc = load_scenario("plane-three-zeros")
    sc["methods"] = ["index-sum", "boundary-theorem"]
    sc["domain"]["radius"] = 1.0
    sc["resolutions"] = {"scale": 1 / 64}
    methods = run_scenario(sc)[0]["methods"]
    zeros = methods["boundary-theorem"]["zeros"]
    assert [z["winding"] for z in zeros] == [1, -1, 2]
    assert zeros == methods["index-sum"]["zeros"]


def test_run_scenario_programmatic():
    sc = load_scenario("annulus-hedgehog")
    report, rows, ok = run_scenario(sc)
    assert ok and rows[0]["method"] == "flatness-scan"
    assert report["methods"]["flatness-scan"]["flux"]["quantum_rounded"] == 1


_DISK = {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0}


@pytest.mark.parametrize("annulus", [
    {"r_outer": 2.0},       # the grid leaves the [-1.5, 1.5]^2 chart
    {"loop_radius": 1e-9},  # the flux loop sits on the singular point
], ids=["r-outer-off-chart", "loop-on-singular-point"])
def test_flatness_scan_bad_geometry_one_error_line(tmp_path, capsys, annulus):
    sc = load_scenario("annulus-hedgehog")
    sc["domain"].update(annulus)
    assert main(["run", write_scenario(tmp_path, sc)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: scenario 'annulus-hedgehog': ")
_ROTATION = {"kind": "builtin", "name": "rotation", "dimension": 2}
_S2 = {"kind": "curved", "name": "s2"}


@pytest.mark.parametrize("method,domain,field,resolutions", [
    ("index-sum", _DISK,
     {"kind": "polynomial", "components": [[[[1, 0], 1.0]], [[[0, 1], 1.0]]]}, {}),
    ("index-sum", _DISK, _ROTATION, {"grid": "big"}),
    ("boundary-theorem", dict(_DISK, radius="x"), _ROTATION, {}),
    ("index-sum", _DISK, {"kind": "builtin", "name": "no-such-field", "dimension": 2}, {}),
    ("index-sum", {"kind": "sphere", "center": [0.0, 0.0]},
     {"kind": "builtin", "name": "s2-rotation"}, {}),
    ("index-sum", {"kind": "torus", "periods": [1.0, 1.0, 1.0]},
     {"kind": "builtin", "name": "torus-sines"}, {}),
    # json.dumps writes the non-finite floats as NaN, Infinity and -Infinity
    ("index-sum", dict(_DISK, radius=math.nan), _ROTATION, {}),
    ("index-sum", dict(_DISK, center=[math.nan, 0.0]), _ROTATION, {}),
    ("boundary-theorem", dict(_DISK, radius=math.inf), _ROTATION, {}),
    ("index-sum", _DISK, {"kind": "complex-product", "roots": [[math.nan, 0.0]]}, {}),
    ("index-sum", {"kind": "torus", "periods": [math.nan, 1.0]},
     {"kind": "builtin", "name": "torus-sines"}, {}),
    ("index-sum", {"kind": "sphere", "radius": math.nan},
     {"kind": "builtin", "name": "s2-rotation"}, {}),
    ("gbc-integral", _S2, None, {"scale": math.nan}),
    ("gbc-integral", dict(_S2, radius=-math.inf), None, {}),
    # catalog radii that put sqrt g or K outside the normal floats
    ("gbc-integral", dict(_S2, radius=1e-300), None, {}),
    ("gbc-integral", dict(_S2, radius=1e200), None, {}),
    ("gbc-integral", dict(_S2, name="s4", radius=1e100), None, {}),
    ("gbc-integral", dict(_S2, name="s4", radius=1e-77), None, {}),
    # a 401-digit integer literal, which float() cannot hold
    ("gbc-integral", dict(_S2, radius=10 ** 400), None, {}),
    ("index-sum", dict(_DISK, radius=10 ** 400), _ROTATION, {}),
    ("gbc-integral", {"kind": "curved", "name": "torus-embedded", "big_radius": 1e200,
                      "small_radius": 1e199}, None, {}),
    ("gbc-integral", {"kind": "curved", "name": "torus-embedded", "big_radius": 1e-160,
                      "small_radius": 1e-161}, None, {}),
    # resolutions must be positive numbers
    ("gbc-integral", _S2, None, {"scale": -1}),
    ("gbc-integral", _S2, None, {"scale": 0}),
    ("index-sum", _DISK, _ROTATION, {"grid": True}),
    ("gbc-integral", _S2, None, {"radial": "wide"}),
], ids=["no-dimension", "grid-not-a-number", "radius-not-a-number", "unknown-builtin",
        "sphere-center-too-short", "torus-three-periods", "ball-radius-nan",
        "ball-center-nan", "ball-radius-infinity", "complex-root-nan", "torus-period-nan",
        "sphere-radius-nan", "gbc-scale-nan", "s2-radius-minus-infinity", "s2-radius-1e-300",
        "s2-radius-1e200", "s4-radius-1e100", "s4-radius-1e-77", "s2-radius-401-digit-int",
        "ball-radius-401-digit-int", "torus-radii-1e200",
        "torus-radii-1e-160", "gbc-scale-negative", "gbc-scale-zero",
        "grid-boolean", "radial-not-a-number"])
def test_malformed_scenario_one_error_line(tmp_path, capsys, method, domain,
                                           field, resolutions):
    path = write_scenario(tmp_path, {
        "schema": 1, "name": "malformed", "methods": [method],
        "domain": domain, "field": field, "resolutions": resolutions,
    })
    assert main(["run", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_number_past_the_float_range_is_bad_input(tmp_path, capsys):
    text = json.dumps({"schema": 1, "name": "huge", "methods": ["gbc-integral"],
                       "domain": _S2, "resolutions": {"scale": 1.5}})
    path = tmp_path / "huge.json"
    path.write_text(text.replace("1.5", "1e999"))
    assert main(["run", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: non-finite number 1e999 is not allowed\n"


def test_readme_sample_is_the_program_output(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sample = readme.split("$ eulerchar run s2-rotation\n", 1)[1].split("```", 1)[0]
    assert main(["run", "s2-rotation"]) == 0
    assert capsys.readouterr().out == sample


def test_readme_python_samples_run():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = [b.split("```", 1)[0] for b in readme.split("```python\n")[1:]]
    assert len(blocks) >= 3
    namespace = {}
    for block in blocks:  # in order: later samples use the first one's imports
        exec(compile(block, "README.md", "exec"), namespace)


def test_resolution_scale_multiplies_the_chart_grid(monkeypatch):
    import eulerchar.manifolds as manifolds

    seen = []
    real = manifolds.locate_zeros

    def spy(field, domain, resolution=None, **kw):
        seen.append(resolution)
        return real(field, domain, resolution=resolution, **kw)

    monkeypatch.setattr(manifolds, "locate_zeros", spy)
    assert main(["run", "s2-rotation", "--resolution-scale", "1.01"]) == 0
    assert seen and set(seen) == {24}


def _cond60_linear_spec():
    # A = U diag(3, 1.5, 1, 0.05) V^T: the plain field's normalized image
    # crowds near the weak direction, but J^-1 phi = x - c winds trivially
    rng = np.random.default_rng(20240601)
    u, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    v, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    a = u @ np.diag([3.0, 1.5, 1.0, 0.05]) @ v.T
    b = -a @ np.array([0.1, -0.2, 0.05, 0.15])
    comps = [[[[0, 0, 0, 0], float(b[i])]]
             + [[[int(j == k) for k in range(4)], float(a[i, j])] for j in range(4)]
             for i in range(4)]
    return {"kind": "polynomial", "dimension": 4, "components": comps}


def test_ill_conditioned_linear_zero_certifies(tmp_path, capsys):
    path = write_scenario(tmp_path, {
        "schema": 1, "name": "cond-60", "methods": ["boundary-theorem"],
        "domain": {"kind": "ball", "center": [0.0] * 4, "radius": 1.2},
        "field": _cond60_linear_spec(),
    })
    assert main(["run", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)["methods"]["boundary-theorem"]
    assert payload["chi_morse"] == 1
    assert [z["winding"] for z in payload["zeros"]] == [1]
    assert payload["zeros"][0]["homotopy_margin"] <= 1e-12  # certified with no climb


@pytest.mark.parametrize("methods,field,resolutions,error", [
    # three zeros hug the circle, and scale 1/64 caps the ladder at 8 nodes
    (["index-sum"], {"kind": "complex-product", "roots": [[0.9, 0.0], [-0.9, 0.0], [0.0, 0.85]]},
     {"scale": 1.0 / 64.0}, "UndersampledError"),
    (["boundary-theorem"], {"kind": "complex-product", "roots": [[1.0, 0.0]]}, {},
     "BoundaryError"),
], ids=["capped-ladder-disk", "zero-on-the-circle"])
def test_uncertified_result_exits_3(tmp_path, capsys, methods, field, resolutions, error):
    path = write_scenario(tmp_path, {
        "schema": 1, "name": "uncertified", "methods": methods,
        "domain": _DISK, "field": field, "resolutions": resolutions,
    })
    assert main(["run", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: scenario 'uncertified': uncertified: {error}: ")


def test_coarse_s4_gbc_exits_3(capsys):
    # the top rule (4, 4, 4, 4) reads 1.974, but its level below, (2, 2, 2, 2),
    # reads 0.81: two rules that share no axis count do not agree
    assert main(["run", "s4-gbc", "--resolution-scale", "0.125"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: scenario 's4-gbc': uncertified: UndersampledError: ")


def test_unallocatable_resolution_scale_exits_1(capsys):
    # the first scan grid at scale 1000 would need 71.1 PiB: it fails at once
    assert main(["run", "ball4-rotation", "--resolution-scale", "1000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: scenario 'ball4-rotation': out of memory ")
    assert "Unable to allocate" in lines[0]
    # at scale 1e5 the grid's byte count overflows the index type: no allocation
    assert main(["run", "ball4-rotation", "--resolution-scale", "1e5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: scenario 'ball4-rotation': out of memory ")
    assert "too large to index" in lines[0]
    # the index sum builds its 4-D winding rule first: its node array fails
    # at once, before any Gauss-Legendre rule of 48,000 nodes is computed
    assert main(["run", "ball4-quaternion-square", "--resolution-scale", "1000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: scenario 'ball4-quaternion-square': out of memory ")
    assert "Unable to allocate" in lines[0]


def test_unindexable_winding_rule_exits_1(capsys):
    # at scale 1e5 the 4-D winding rule's node count (2.2e20) overflows the
    # index type: the rule fails before any allocation, like the scan grid
    assert main(["run", "ball4-quaternion-square", "--resolution-scale", "1e5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: scenario 'ball4-quaternion-square': out of memory ")
    assert "too large to index" in lines[0]

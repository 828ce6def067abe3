"""Deterministic report serialization."""

import json
import math

import numpy as np

from eulerchar.cli import bundled_scenarios, load_scenario, run_scenario
from eulerchar.report import (
    OPTIONAL_KEYS,
    canonical,
    format_table,
    render_report,
    round_sig,
    summary_row,
)


def test_round_sig_basics():
    assert round_sig(2.0) == 2.0
    assert round_sig(1.0 / 3.0) == 0.333333333333
    assert round_sig(123456789012345.0) == 123456789012000.0
    assert round_sig(0.0) == 0.0


def test_round_sig_negative_zero_normalized():
    out = round_sig(-0.0)
    assert out == 0.0 and math.copysign(1.0, out) == 1.0
    tiny = round_sig(-1e-300 * 1e-300)  # underflows to -0.0
    assert math.copysign(1.0, tiny) == 1.0


def test_canonical_handles_numpy_scalars():
    obj = {"a": np.float64(0.1), "b": np.int64(3), "c": np.bool_(True)}
    out = canonical(obj)
    assert isinstance(out["a"], float)
    assert isinstance(out["b"], int)
    assert out["c"] is True
    json.dumps(out)  # must be serializable


def test_canonical_recurses():
    obj = {"xs": [1.0 / 3.0, {"y": (2.0 / 3.0,)}], "flag": None}
    out = canonical(obj)
    assert out["xs"][0] == 0.333333333333
    assert out["xs"][1]["y"][0] == 0.666666666667
    assert out["flag"] is None


def test_render_report_deterministic():
    obj = {"name": "t", "value": math.pi, "rows": [{"raw": 1.0000000000001}]}
    a = render_report(obj)
    b = render_report(json.loads(a))
    assert a == b
    assert a.endswith("\n")


def test_summary_row_fields():
    row = summary_row("index-sum", 1.9999999999999, 2, 2, -1e-13, True)
    assert row["method"] == "index-sum"
    assert row["rounded"] == 2 and row["oracle"] == 2
    assert row["agree"] is True
    assert row["raw"] == 2.0  # rounded to 12 significant digits


def test_format_table_alignment():
    rows = [
        summary_row("index-sum", 2.0, 2, 2, 0.0, True),
        summary_row("gbc-integral", 1.5, 2, None, -0.5, False),
    ]
    text = format_table("demo", rows)
    lines = text.splitlines()
    assert lines[0] == "scenario: demo"
    assert "method" in lines[1] and "agree" in lines[1]
    assert any("yes" in ln for ln in lines)
    assert any("NO" in ln for ln in lines)
    assert any(" - " in ln for ln in lines)  # missing oracle prints a dash


ZERO_KEYS = ["location", "winding", "eta", "beta", "regular", "degenerate",
             "jacobian_det", "field_norm", "winding_raw", "winding_residual",
             "winding_error", "homotopy_margin", "isolation_radius"]
CHART_ZERO_KEYS = ZERO_KEYS + ["ambient", "chart", "chart_location"]
EXCISION_KEYS = ["zero_sum", "enclosing_winding", "enclosing_raw", "enclosing_error",
                 "homotopy_margin", "agree", "oracle_degree", "oracle_agree", "zeros"]
CLOSED_KEYS = ["total", "chi_oracle", "agree", "attempts", "flags", "zeros"]
BOUNDARY_KEYS = ["interior_sum", "boundary_all_half", "boundary_inward",
                 "chi_paper", "chi_morse", "chi_oracle", "endorsed", "flags",
                 "zeros", "boundary_zeros"]
BOUNDARY_ZERO_KEYS = ["location", "winding", "winding_error", "inward", "alpha",
                      "normal_component", "chart"]
GBC_KEYS = ["manifold", "raw", "rounded", "residual", "error", "nodes", "scale",
            "oracle", "agree"]
FLATNESS_KEYS = ["points_checked", "max_curvature_norm", "max_grade2_leakage", "step",
                 "expected_winding", "flux", "agree"]
FLUX_KEYS = ["singular_point", "loop_radius", "flux", "quantum", "quantum_rounded",
             "residual", "error"]


def test_report_key_order_pinned():
    """Key order is the report format: it must not drift with refactors."""
    seen, margins = set(), set()
    for name in bundled_scenarios():
        report, _, _ = run_scenario(load_scenario(name))
        assert list(report) == ["schema", "name", "tool", "resolution_scale",
                                "summary", "methods"]
        for method, payload in report["methods"].items():
            if method == "gbc-integral":
                checks = [(payload, GBC_KEYS)]
            elif method == "boundary-theorem":
                checks = ([(payload, BOUNDARY_KEYS)]
                          + [(z, ZERO_KEYS) for z in payload["zeros"]]
                          + [(z, BOUNDARY_ZERO_KEYS) for z in payload["boundary_zeros"]])
            elif method == "index-sum" and "zero_sum" in payload:
                checks = [(payload, EXCISION_KEYS)] + [(z, ZERO_KEYS) for z in payload["zeros"]]
            elif method == "index-sum":
                checks = [(payload, CLOSED_KEYS)] + [(z, CHART_ZERO_KEYS) for z in payload["zeros"]]
            else:
                checks = [(payload, FLATNESS_KEYS), (payload["flux"], FLUX_KEYS)]
            for obj, keys in checks:
                # an optional key is left out where it is None
                assert list(obj) == [k for k in keys if k in obj or k not in OPTIONAL_KEYS]
                seen.add(tuple(keys))
                margins.update(k in obj for k in OPTIONAL_KEYS & set(keys))
    assert len(seen) == 9  # every payload kind occurs in some bundled report
    assert margins == {True, False}  # some bundled report has a margin, and some not

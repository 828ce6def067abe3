"""Scenario runner: chi pipelines behind one command.

    eulerchar list [--json] [--filter TEXT]
    eulerchar run NAME_OR_PATH [--out DIR] [--json] [--resolution-scale X]
                  [--assert-paper-boundary]

A scenario bundles a domain, a field (or frame), and the methods to run
on them.  Exit code 0 means every asserted comparison agreed, 2 means a
computation disagreed with its oracle, 1 means the input was unusable,
3 means a result could not be certified numerically.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from importlib import resources

from . import __version__
from .boundary import BoundaryError, chi_with_boundary
from .connection import annulus_grid, flatness_scan, hedgehog_frame_field
from .domains import BallDomain
from .fields import builtin_names, field_from_spec
from .gbc import GbcError, catalog_manifold, catalog_manifold_names, integrate_euler
from .manifolds import CHART_RESOLUTION, FlatTorus, ManifoldError, SphereManifold
from .report import format_table, render_report, summary_row
from .triangulations import catalog_names, chi_oracle
from .winding import WindingError, default_quadrature, scaled_count
from .zeros import DEFAULT_RESOLUTION, ZeroFindingError, index_sum_with_excision

_TOP_KEYS = {"schema", "name", "description", "methods", "domain", "field",
             "frame", "resolutions"}
_RES_KEYS = {"grid", "scale", "radial", "angular", "loop_segments"}
FLATNESS_TOL = 1e-5


class ScenarioError(ValueError):
    pass


# -- scenario loading ----------------------------------------------------


def bundled_scenarios() -> dict:
    out = {}
    root = resources.files("eulerchar") / "scenarios"
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".json"):
            out[entry.name[:-5]] = entry
    return out


def load_scenario(ref: str) -> dict:
    bundled = bundled_scenarios()
    if ref in bundled:
        text = bundled[ref].read_text()
        origin = f"bundled scenario {ref!r}"
    else:
        try:
            with open(ref, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise ScenarioError(f"cannot read scenario {ref!r}: {e}") from None
        origin = ref
    try:
        obj = json.loads(text, parse_constant=_finite_number, parse_float=_finite_number,
                         parse_int=_finite_int)
    except json.JSONDecodeError as e:
        raise ScenarioError(
            f"{origin}: invalid JSON at line {e.lineno} column {e.colno}: {e.msg}"
        ) from None
    except ValueError as e:
        raise ScenarioError(f"{origin}: {e}") from None
    validate_scenario(obj, origin)
    return obj


def _finite_number(token: str) -> float:
    """JSON number hook: NaN, Infinity and literals past the float range are bad input."""
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {token} is not allowed")
    return value


def _finite_int(token: str) -> int:
    """JSON integer hook: an integer past the float range is bad input."""
    if not math.isfinite(float(token)):
        raise ValueError(f"integer of {len(token.lstrip('-'))} digits is past the float range")
    return int(token)


def validate_scenario(obj, origin: str):
    if not isinstance(obj, dict):
        raise ScenarioError(f"{origin}: scenario must be a JSON object")
    unknown = set(obj) - _TOP_KEYS
    if unknown:
        raise ScenarioError(f"{origin}: unknown fields {sorted(unknown)}")
    if obj.get("schema") != 1:
        raise ScenarioError(f"{origin}: unsupported schema {obj.get('schema')!r}")
    if not isinstance(obj.get("name"), str) or not obj["name"]:
        raise ScenarioError(f"{origin}: missing scenario name")
    methods = obj.get("methods")
    if (not isinstance(methods, list) or not methods
            or any(m not in METHODS for m in methods)):
        raise ScenarioError(
            f"{origin}: methods must be a non-empty subset of {list(METHODS)}"
        )
    if not isinstance(obj.get("domain"), dict):
        raise ScenarioError(f"{origin}: missing domain object")
    needs_field = {"index-sum", "boundary-theorem"} & set(methods)
    if needs_field and not isinstance(obj.get("field"), dict):
        raise ScenarioError(f"{origin}: methods {sorted(needs_field)} need a field")
    if "flatness-scan" in methods and not isinstance(obj.get("frame"), dict):
        raise ScenarioError(f"{origin}: flatness-scan needs a frame object")
    res = obj.get("resolutions", {})
    if not isinstance(res, dict) or set(res) - _RES_KEYS:
        raise ScenarioError(
            f"{origin}: resolutions must be an object with keys from {sorted(_RES_KEYS)}"
        )
    bad = sorted(k for k, v in res.items()
                 if isinstance(v, bool) or not isinstance(v, (int, float)) or not 0 < v < math.inf)
    if bad:
        raise ScenarioError(f"{origin}: resolutions {bad} must be positive numbers")


# -- spec layer: objects from scenario JSON -----------------------------


@contextmanager
def _spec_errors():
    """Errors raised while building objects from a scenario are input errors."""
    try:
        yield
    except KeyError as e:
        raise ScenarioError(f"missing key {e}") from None
    except (TypeError, ValueError, ManifoldError) as e:
        raise ScenarioError(str(e)) from None


def _ball_and_field(sc):
    domain = sc["domain"]
    ball = BallDomain(tuple(domain["center"]), float(domain["radius"]))
    field = field_from_spec(sc["field"])
    if field.dimension != ball.dimension:
        raise ScenarioError("field and ball dimensions differ")
    return ball, field


def _closed_manifold(domain):
    """(manifold, default grid of its zero scan) for an index sum."""
    kind = domain.get("kind")
    if kind == "sphere":
        m = SphereManifold(radius=float(domain.get("radius", 1.0)),
                           center=domain.get("center"),
                           ambient_dim=int(domain.get("ambient_dim", 3)))
        return m, CHART_RESOLUTION[m.chart_dim]
    if kind == "torus":
        return (FlatTorus(periods=tuple(domain.get("periods", (1.0, 1.0)))),
                DEFAULT_RESOLUTION[2])
    raise ScenarioError(f"index-sum does not support domain kind {kind!r}")


def _gbc_manifold(domain):
    kind = domain.get("kind")
    if kind == "curved":
        return catalog_manifold(domain)
    if kind == "sphere":
        if int(domain.get("ambient_dim", 3)) != 3:
            raise ScenarioError("gbc-integral spheres are S^2 (ambient_dim 3)")
        return catalog_manifold({"name": "s2",
                                 "radius": float(domain.get("radius", 1.0))})
    if kind == "torus":
        return catalog_manifold({"name": "torus-flat"})
    raise ScenarioError(f"gbc-integral does not support domain kind {kind!r}")


def _grid_res(sc, default: int, scale: float) -> int | None:
    """Zero-scan grid: the scenario's grid, else the scanner's default, times
    the scale; None leaves the scanner's default untouched."""
    base = sc.get("resolutions", {}).get("grid")
    if base is None and scale == 1.0:
        return None
    return scaled_count(default if base is None else base, scale)


def _quad_scale(sc, scale: float) -> float:
    return float(sc.get("resolutions", {}).get("scale", 1.0)) * scale


# -- method runners ------------------------------------------------------


def _run_index_sum(sc, scale, assert_paper):
    if sc["domain"].get("kind") == "ball":
        with _spec_errors():
            ball, field = _ball_and_field(sc)
            quad = default_quadrature(ball.dimension, _quad_scale(sc, scale))
            res = _grid_res(sc, DEFAULT_RESOLUTION[ball.dimension], scale)
        result = index_sum_with_excision(field, ball, resolution=res, quadrature=quad)
        agree = result.agree and result.oracle_agree
        row = summary_row("index-sum", result.enclosing_raw,
                          result.enclosing_winding, result.oracle_degree,
                          result.enclosing_raw - result.enclosing_winding, agree)
        return row, result.to_dict()
    with _spec_errors():
        field = field_from_spec(sc["field"])
        m, default = _closed_manifold(sc["domain"])
        res = _grid_res(sc, default, scale)
    result = m.index_sum(field, resolution=res)
    raw = float(sum(z.winding_raw for z in result.zeros))
    row = summary_row("index-sum", raw, result.total, result.chi_oracle,
                      raw - result.total, result.agree)
    return row, result.to_dict()


def _run_boundary(sc, scale, assert_paper):
    if sc["domain"].get("kind") != "ball":
        raise ScenarioError("boundary-theorem needs a ball domain")
    with _spec_errors():
        ball, field = _ball_and_field(sc)
        if ball.dimension not in (2, 4):
            raise ScenarioError("boundary-theorem needs a 2- or 4-dimensional ball")
        quad = default_quadrature(ball.dimension, _quad_scale(sc, scale))
        res = _grid_res(sc, DEFAULT_RESOLUTION[ball.dimension], scale)
    report = chi_with_boundary(field, ball, resolution=res, quadrature=quad)
    agree = report.chi_morse == report.chi_oracle
    if report.endorsed or assert_paper:
        agree = agree and report.chi_paper == report.chi_oracle
    row = summary_row("boundary-theorem", float(report.chi_morse),
                      report.chi_morse, report.chi_oracle,
                      report.chi_paper - report.chi_morse, agree)
    return row, report.to_dict()


def _run_gbc(sc, scale, assert_paper):
    with _spec_errors():
        manifold = _gbc_manifold(sc["domain"])
        quad_scale = _quad_scale(sc, scale)
    result = integrate_euler(manifold, scale=quad_scale)
    oracle = chi_oracle(manifold.oracle)
    agree = result.rounded == oracle
    row = summary_row("gbc-integral", result.raw, result.rounded, oracle,
                      result.residual, agree)
    payload = result.to_dict()
    payload["oracle"] = oracle
    payload["agree"] = agree
    return row, payload


def _run_flatness(sc, scale, assert_paper):
    frame_spec = sc["frame"]
    if frame_spec.get("kind") != "hedgehog":
        raise ScenarioError(f"unknown frame kind {frame_spec.get('kind')!r}")
    domain = sc["domain"]
    if domain.get("kind") != "annulus":
        raise ScenarioError("flatness-scan needs an annulus domain")
    res = sc.get("resolutions", {})
    with _spec_errors():
        k = int(frame_spec.get("winding", 1))
        ff = hedgehog_frame_field(k)
        grid = annulus_grid(
            float(domain.get("r_inner", 0.5)), float(domain.get("r_outer", 1.4)),
            radial=max(2, int(round(res.get("radial", 8) * scale))),
            angular=max(4, int(round(res.get("angular", 24) * scale))),
        )
        loop_radius = float(domain.get("loop_radius", 0.9))
        loop_segments = max(64, int(round(res.get("loop_segments", 512) * scale)))
        # a grid or loop off the chart, or on the singular point, is bad input
        rep = flatness_scan(ff, grid_points=grid, loop_radius=loop_radius,
                            loop_segments=loop_segments)
    flux = rep.fluxes[0]
    agree = (flux.quantum_rounded == k
             and rep.max_curvature_norm < FLATNESS_TOL)
    row = summary_row("flatness-scan", flux.quantum, flux.quantum_rounded, k,
                      flux.quantum - k, agree)
    payload = {
        "points_checked": rep.points_checked,
        "max_curvature_norm": rep.max_curvature_norm,
        "max_grade2_leakage": rep.max_grade2_leakage,
        "step": rep.step,
        "expected_winding": k,
        "flux": flux.to_dict(),
        "agree": agree,
    }
    return row, payload


_RUNNERS = {
    "index-sum": _run_index_sum,
    "boundary-theorem": _run_boundary,
    "gbc-integral": _run_gbc,
    "flatness-scan": _run_flatness,
}
METHODS = tuple(_RUNNERS)


def run_scenario(sc: dict, scale: float = 1.0, assert_paper: bool = False):
    """(report dict, summary rows, all-agree flag) for one scenario."""
    rows = []
    methods_payload = {}
    for method in sc["methods"]:
        row, payload = _RUNNERS[method](sc, scale, assert_paper)
        rows.append(row)
        methods_payload[method] = payload
    report = {
        "schema": 1,
        "name": sc["name"],
        "tool": {"name": "eulerchar", "version": __version__},
        "resolution_scale": scale,
        "summary": rows,
        "methods": methods_payload,
    }
    return report, rows, all(r["agree"] for r in rows)


# -- commands ------------------------------------------------------------


def cmd_list(args) -> int:
    scenarios = []
    for name, entry in bundled_scenarios().items():
        obj = json.loads(entry.read_text())
        scenarios.append({
            "name": name,
            "description": obj.get("description", ""),
            "methods": obj.get("methods", []),
        })
    if args.filter:
        needle = args.filter.lower()
        scenarios = [s for s in scenarios
                     if needle in s["name"].lower()
                     or needle in s["description"].lower()
                     or any(needle in m for m in s["methods"])]
    listing = {
        "scenarios": scenarios,
        "curved_manifolds": catalog_manifold_names(),
        "triangulations": catalog_names(),
        "builtin_fields": builtin_names(),
    }
    if args.json:
        print(render_report(listing), end="")
        return 0
    print(f"bundled scenarios ({len(scenarios)}):")
    for s in scenarios:
        methods = ",".join(s["methods"])
        print(f"  {s['name']:<24} [{methods}] {s['description']}")
    print("curved manifolds:", ", ".join(listing["curved_manifolds"]))
    print("triangulations:", ", ".join(listing["triangulations"]))
    print("builtin fields:", ", ".join(listing["builtin_fields"]))
    return 0


def cmd_run(args) -> int:
    try:
        sc = load_scenario(args.scenario)
    except ScenarioError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    try:
        report, rows, ok = run_scenario(sc, scale=args.resolution_scale,
                                        assert_paper=args.assert_paper_boundary)
    except ScenarioError as e:
        print(f"error: scenario {sc['name']!r}: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:
        print(f"error: scenario {sc['name']!r}: out of memory at --resolution-scale "
              f"{args.resolution_scale:g}: {e}", file=sys.stderr)
        return 1
    except (WindingError, ZeroFindingError, BoundaryError, ManifoldError, GbcError) as e:
        print(f"error: scenario {sc['name']!r}: uncertified: {type(e).__name__}: {e}",
              file=sys.stderr)
        return 3
    out_path = None
    if args.out is not None:
        import os
        os.makedirs(args.out, exist_ok=True)
        out_path = os.path.join(args.out, f"{sc['name']}.report.json")
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(render_report(report))
    if args.json:
        print(render_report(report), end="")
    else:
        print(format_table(sc["name"], rows))
        if out_path:
            print(f"report: {out_path}")
        if not ok:
            print("DISAGREEMENT detected", file=sys.stderr)
    return 0 if ok else 2


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="eulerchar",
        description="Euler characteristics from vector fields: winding sums, "
                    "boundary corrections, curvature integrals.",
    )
    p.add_argument("--version", action="version", version=f"eulerchar {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run a bundled or file scenario")
    runp.add_argument("scenario", help="bundled scenario name or path to a JSON file")
    runp.add_argument("--out", default=None, metavar="DIR",
                      help="directory for <name>.report.json")
    runp.add_argument("--json", action="store_true",
                      help="print the report JSON instead of a table")
    runp.add_argument("--resolution-scale", type=float, default=1.0,
                      help="multiply default grid/quadrature resolutions")
    runp.add_argument("--assert-paper-boundary", action="store_true",
                      help="hard-assert the half-sum boundary convention")
    runp.set_defaults(func=cmd_run)

    listp = sub.add_parser("list", help="list bundled scenarios and catalogs")
    listp.add_argument("--json", action="store_true")
    listp.add_argument("--filter", default=None, metavar="TEXT")
    listp.set_defaults(func=cmd_list)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    scale = getattr(args, "resolution_scale", 1.0)
    if not math.isfinite(scale) or scale <= 0:
        print("error: resolution scale must be a positive number", file=sys.stderr)
        return 1
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

"""Spans around every public eulerchar function, recorded from outside the program.

``Tracer.install`` rebinds each public function and method of the
package to a wrapper, wherever the name is bound: the defining module,
every module that imported it, the package namespace, and class
attributes (including the arithmetic dunders of ``Multivector``).  A
span is named by the module that defines the wrapped function.  Spans
are aggregated in memory: a module's self time is the time its spans
spent outside child spans, and counts are taken where the work happens
(field points at the outermost field call, so a point is counted once).
``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from collections import defaultdict

FIELD_METHODS = {"evaluate": False, "jacobian": True,
                 "evaluate_many": False, "jacobian_many": True}
DUNDERS = {"__init__", "__mul__", "__rmul__", "__add__", "__sub__", "__neg__",
           "__truediv__"}
BUILD_SPANS = ("winding.SphereQuadrature.build", "winding.sphere_mesh")


def _package_modules(package):
    mods = [package]
    for info in pkgutil.iter_modules(package.__path__):
        mods.append(importlib.import_module(f"{package.__name__}.{info.name}"))
    return mods


def _is_traceable(obj) -> bool:
    return inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)


class Tracer:
    """In-memory span aggregates for one process."""

    def __init__(self, package):
        self.package = package
        self.prefix = package.__name__ + "."
        self._wrappers = {}   # id(original) -> wrapper
        self._saved = []      # (owner, name, original attribute)
        self.reset()

    def reset(self):
        self.stack = []                       # [module, child ns] per open span
        self.depth = defaultdict(int)         # open spans per module
        self.qdepth = defaultdict(int)        # open spans per qualified name
        self.self_ns = defaultdict(int)       # module -> self time
        self.outer_ns = defaultdict(int)      # module -> time of outermost spans
        self.incl_ns = defaultdict(int)       # qualified name -> outermost time
        self.calls = defaultdict(int)         # qualified name -> calls
        self.count = defaultdict(int)         # named work counters

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, module: str, qual: str):
        key = id(fn)
        if key in self._wrappers:
            return self._wrappers[key]
        name = qual.rsplit(".", 1)[-1]
        is_field = module == "fields" and name in FIELD_METHODS
        hook = getattr(self, "_hook_" + qual.replace(".", "_"), None)
        clock = time.perf_counter_ns
        t = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = t.stack[-1][0] if t.stack else None
            if is_field and t.depth["fields"] == 0:
                t._count_field_call(name, args, parent)
            frame = [module, 0]
            t.stack.append(frame)
            t.depth[module] += 1
            t.qdepth[qual] += 1
            start = clock()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                dur = clock() - start
                t.stack.pop()
                t.self_ns[module] += dur - frame[1]
                if t.stack:
                    t.stack[-1][1] += dur
                t.depth[module] -= 1
                if t.depth[module] == 0:
                    t.outer_ns[module] += dur
                t.qdepth[qual] -= 1
                if t.qdepth[qual] == 0:
                    t.incl_ns[qual] += dur
                t.calls[qual] += 1
                if hook is not None:
                    hook(args, result, exc)

        self._wrappers[key] = wrapper
        return wrapper

    def _rebind(self, owner, name, new):
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def install(self):
        mods = _package_modules(self.package)
        for mod in mods:
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                home = getattr(obj, "__module__", "") or ""
                if not home.startswith(self.prefix):
                    continue
                short = home[len(self.prefix):]
                if _is_traceable(obj):
                    self._rebind(mod, name, self._wrap(obj, short, f"{short}.{obj.__name__}"))
                elif (inspect.isclass(obj) and not issubclass(obj, BaseException)
                      and home == mod.__name__):
                    self._install_class(obj, short)

    def _install_class(self, cls, short):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in DUNDERS:
                continue
            qual = f"{short}.{cls.__name__}.{name}"
            if isinstance(attr, staticmethod):
                self._rebind(cls, name, staticmethod(self._wrap(attr.__func__, short, qual)))
            elif isinstance(attr, classmethod):
                self._rebind(cls, name, classmethod(self._wrap(attr.__func__, short, qual)))
            elif inspect.isfunction(attr):
                self._rebind(cls, name, self._wrap(attr, short, qual))

    def uninstall(self):
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    # -- counters at the layer boundaries ----------------------------------

    def _count_field_call(self, name, args, parent):
        rows = 1 if not name.endswith("_many") else len(args[1])
        self.count["fields.calls"] += 1
        key = "fields.jacobian_points" if FIELD_METHODS[name] else "fields.points"
        self.count[key] += rows
        if parent is not None:
            self.count[f"{parent}.field_points"] += rows
            if rows == 1:
                self.count[f"{parent}.single_point_calls"] += 1

    def _hook_zeros_find_zeros(self, args, result, exc):
        if result is not None:
            self.count["zeros.zeros_found"] += len(result)

    def _count_index_sum(self, args, result, exc):
        if result is not None:
            self.count["manifolds.attempts"] += result.attempts
        elif exc is not None and type(exc).__name__ == "ManifoldError":
            self.count["manifolds.attempts"] += self.package.manifolds.SEAM_ATTEMPTS

    _hook_manifolds_SphereManifold_index_sum = _count_index_sum
    _hook_manifolds_FlatTorus_index_sum = _count_index_sum

    def _hook_gbc_integrate_euler(self, args, result, exc):
        if result is not None:
            self.count["gbc.nodes"] += result.nodes

    def _hook_clifford_Multivector___mul__(self, args, result, exc):
        if isinstance(args[1], type(args[0])):
            self.count["clifford.products"] += 1

    def _hook_report_render_report(self, args, result, exc):
        if result is not None:
            self.count["report.bytes"] += len(result.encode())

    # -- results -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Per-module self time in ms, for attributing spans to one operation."""
        return {m: ns / 1e6 for m, ns in self.self_ns.items()}

    def metrics(self, build_ns: int) -> dict:
        """The per-layer metrics; build_ns covers quadrature builds since import."""
        ms = lambda ns: ns / 1e6
        c, calls = self.count, self.calls
        found = c["zeros.zeros_found"]
        return {
            "winding.calls": calls["winding.winding_number"],
            "winding.points": c["winding.field_points"],
            "winding.self_ms": ms(self.self_ns["winding"]),
            "winding.preimage_ms": ms(self.incl_ns["winding.oracle_degree_preimage"]),
            "winding.build_ms": ms(build_ns),
            "zeros.find_zeros_calls": calls["zeros.find_zeros"],
            "zeros.self_ms": ms(self.self_ns["zeros"]),
            "zeros.single_point_calls": c["zeros.single_point_calls"],
            "zeros.zeros_found": found,
            "zeros.single_point_calls_per_zero":
                c["zeros.single_point_calls"] / found if found else 0.0,
            "fields.calls": c["fields.calls"],
            "fields.points": c["fields.points"],
            "fields.jacobian_points": c["fields.jacobian_points"],
            "fields.ms": ms(self.outer_ns["fields"]),
            "boundary.self_ms": ms(self.self_ns["boundary"]),
            "boundary.sweep_ms": ms(self.incl_ns["boundary.boundary_zeros"]),
            "manifolds.index_sum_calls": (calls["manifolds.SphereManifold.index_sum"]
                                          + calls["manifolds.FlatTorus.index_sum"]),
            "manifolds.attempts": c["manifolds.attempts"],
            "manifolds.self_ms": ms(self.self_ns["manifolds"]),
            "gbc.ms": ms(self.outer_ns["gbc"]),
            "gbc.nodes": c["gbc.nodes"],
            "gbc.pfaffian_calls": calls["gbc.pfaffian"],
            "clifford.products": c["clifford.products"],
            "clifford.multivectors": calls["clifford.Multivector.__init__"],
            "clifford.exp_calls": calls["clifford.exp"],
            "clifford.self_ms": ms(self.self_ns["clifford"]),
            "connection.samples": calls["connection.pseudo_flat_connection"],
            "connection.frames": calls["connection.FrameField.frame"],
            "connection.self_ms": ms(self.self_ns["connection"]),
            "connection.holonomy_ms": ms(self.incl_ns["connection.holonomy_flux"]),
            "report.render_ms": ms(self.incl_ns["report.render_report"]),
            "report.bytes": c["report.bytes"],
            "cli.self_ms": ms(self.self_ns["cli"]),
            "triangulations.ms": ms(self.outer_ns["triangulations"]),
        }

    def build_ns(self) -> int:
        return sum(self.incl_ns[q] for q in BUILD_SPANS)

"""Spans around the calls that cross from one rootfield module into another.

The traced run replaces every public function of the package, in the
namespace of every module that holds it, with a wrapper that opens a span.
A call opens a span only when it crosses a module boundary: the caller is
the module of the innermost open span (``bench`` for the benchmark's own
code), and a call from a module into itself runs untraced.  Spans nest, so
a span's self time is its duration minus that of its child spans, and the
self times of all modules plus the benchmark's remainder add up to the
wall time of the root span.

Counters are taken at the same boundaries, from the return values and the
exceptions that cross them.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

MODULES = ("poly", "geometry", "contours", "regions", "charges", "search",
           "harness", "render", "cli")
ROOT = "bench"


class Tracer:
    """In-memory spans and counters.

    begin() patches the package and opens the root span; end() closes it
    and restores every patched name.
    """

    def __init__(self):
        self.stack: list[list] = []      # [name, module, start, child_s, index]
        self.spans: list[tuple] = []     # (name, caller, start, end, parent)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.module_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self._patched: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str, module: str) -> None:
        caller = self.stack[-1][1] if self.stack else None
        parent = self.stack[-1][4] if self.stack else -1
        self.spans.append((name, caller, 0.0, 0.0, parent))
        self.stack.append([name, module, time.perf_counter(), 0.0,
                           len(self.spans) - 1])

    def close(self) -> None:
        end = time.perf_counter()
        name, module, start, child_s, index = self.stack.pop()
        dur = end - start
        self.self_s[name] += dur - child_s
        self.module_s[module] += dur - child_s
        self.calls[name] += 1
        self.spans[index] = self.spans[index][:2] + (start, end,
                                                     self.spans[index][4])
        if self.stack:
            self.stack[-1][3] += dur

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[name] += value

    # -- patching ------------------------------------------------------------

    def _install(self, package) -> None:
        """Wrap every public package function in every module namespace."""
        wrappers: dict = {}
        for modname in MODULES:
            mod = getattr(package, modname)
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__.rpartition(".")[2]
                if not obj.__module__.startswith(package.__name__ + ".") \
                        or home not in MODULES:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj, home)
                self._patched.append((mod, attr, obj))
                setattr(mod, attr, wrappers[obj])

    def _uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def begin(self, package) -> None:
        """Patch the package and open the root span for the benchmark."""
        self._install(package)
        self.open(f"{ROOT}.run", ROOT)

    def end(self) -> None:
        self.close()
        self._uninstall()

    def _wrap(self, fn, module: str):
        name = f"{module}.{fn.__name__}"
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.stack and self.stack[-1][1] == module:
                return fn(*args, **kwargs)
            self.open(name, module)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if hook is not None:
                    hook(self, None, exc)
                raise
            else:
                if hook is not None:
                    hook(self, out, None)
                return out
            finally:
                self.close()

        return traced

    # -- results -------------------------------------------------------------

    def per_layer(self, rounds: int, cpu_s: float) -> dict[str, float]:
        """Per-round layer metrics; self times exclude nested spans."""
        s, c, k = self.self_s, self.calls, self.counters

        def ratio(num: float, den: float) -> float:
            return num / den if den > 0 else 0.0

        # rates are per second; everything else is summed, then per round
        rates = {
            "regions.cells_per_s": ratio(k["regions.build_masks.cells"],
                                         s["regions.build_masks"]),
            "search.evals_per_s": ratio(k["search.evals"],
                                        s["search.optimize_charges"]),
        }
        sums = {
            "poly.critical_points.s": s["poly.critical_points"],
            "poly.critical_points.calls": c["poly.critical_points"],
            "regions.build_masks.s": s["regions.build_masks"],
            "regions.build_masks.retries": k["regions.build_masks.retries"],
            "regions.build_mask.calls": c["regions.build_mask"],
            "regions.build_mask.s": s["regions.build_mask"],
            "regions.classify_components.s": s["regions.classify_components"],
            "regions.bridging_check.s": s["regions.bridging_check"],
            "regions.components_certified":
                k["regions.components_certified"],
            "regions.census_crit_points": k["regions.census_crit_points"],
            "contours.count_roots_in.s": s["contours.count_roots_in"],
            "contours.count_roots_in.calls": c["contours.count_roots_in"],
            "contours.count_roots_in.failed":
                k["contours.count_roots_in.failed"],
            "geometry.s": self.module_s["geometry"],
            "harness.run_theorem_experiment.s":
                s["harness.run_theorem_experiment"],
            "render.emit_svg.s": s["render.emit_svg"],
            "cli.main.s": s["cli.main"],
            "charges.torus_low_potential_point.s":
                s["charges.torus_low_potential_point"],
            "charges.lemma1_curve_bound.s": s["charges.lemma1_curve_bound"],
            "charges.sharp_example.s": s["charges.sharp_example"],
            "charges.curve_min.s": s["charges.curve_min"],
            "search.optimize_charges.s": s["search.optimize_charges"],
            "process.cpu_s": cpu_s,
        }
        for mod in MODULES + (ROOT,):
            sums[f"{mod}.s"] = self.module_s[mod]
        sums["traced.wall_s"] = sum(self.module_s.values())
        out = {key: val / rounds for key, val in sums.items()}
        out.update(rates)
        return out

    def dump(self) -> dict:
        return {
            "spans": [list(sp) for sp in self.spans],
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counters": dict(self.counters),
        }


# ---------------------------------------------------------------------------
# counters read at the boundary
# ---------------------------------------------------------------------------

def _build_masks(tr: Tracer, out, exc) -> None:
    if exc is not None:
        if type(exc).__name__ == "GrowBBox":
            tr.count("regions.build_masks.retries")
        return
    tr.count("regions.build_masks.cells",
             sum(int(m.indicator.size) for m in out))


def _build_mask(tr: Tracer, out, exc) -> None:
    if exc is not None and type(exc).__name__ == "GrowBBox":
        tr.count("regions.build_masks.retries")


def _classify(tr: Tracer, out, exc) -> None:
    if exc is not None:
        return
    for comp in out:
        if comp.rouche_margin > 0 and comp.count_error is None:
            tr.count("regions.components_certified")
            tr.count("regions.census_crit_points", comp.crit_points_inside)


def _count_roots(tr: Tracer, out, exc) -> None:
    if exc is not None:
        tr.count("contours.count_roots_in.failed")


def _optimize(tr: Tracer, out, exc) -> None:
    result = getattr(exc, "result", None) if exc is not None else out
    if result is not None:
        tr.count("search.evals", result.evals_used)


_HOOKS = {
    "regions.build_masks": _build_masks,
    "regions.build_mask": _build_mask,
    "regions.classify_components": _classify,
    "contours.count_roots_in": _count_roots,
    "search.optimize_charges": _optimize,
}

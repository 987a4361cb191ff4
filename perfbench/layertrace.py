"""Outside-in layer tracing: wrappers around slag3's public functions.

The library is not changed.  A Tracer replaces each traced function at every
module attribute bound to it, so calls made inside the library (for example
``geometry.point_report`` calling the ``classify`` it imported from
``cubics``) go through the wrapper too.  Patch maps are wrapped per patch
with ``dataclasses.replace``.  ``unpatch`` puts every original back.

A span's self time is its duration minus the durations of the traced spans
it directly contains, so the self times of all spans add up to the time
spent in the outermost traced calls.
"""

from __future__ import annotations

import dataclasses
import functools
import time

# traced functions per module; ambient and structure_laws are leaf helpers
LAYERS = {
    "cubics": ("classify", "find_symmetry_axes", "singular_directions",
               "transport_rotation", "rotate", "normal_form",
               "project_traceless"),
    "geometry": ("sweep", "point_report", "lagrangian_residual",
                 "special_residual", "adapted_frame", "fundamental_cubic",
                 "jacobian", "hessian", "codazzi_gauss_residual"),
}
PATCH_MAPS = ("eval", "jac", "hess")
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items()
                   for fn in fns) + tuple(f"gallery.{m}" for m in PATCH_MAPS)


@dataclasses.dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    errors: int = 0
    outcomes: int = 0


def _axes_found(axes):
    return len(axes.order2) + len(axes.order3) + len(axes.circle)


# useful outcomes counted from a span's return value
_OUTCOMES = {"cubics.find_symmetry_axes": _axes_found}


class Tracer:
    """Span statistics for one traced run; patch, run, then unpatch."""

    def __init__(self):
        self.stats = {name: SpanStats() for name in SPAN_NAMES}
        self._child = [0.0]     # time of finished children, per open span
        self._patched = []      # (module, attribute, original)

    def wrap(self, name, fn):
        stats = self.stats[name]
        child = self._child
        outcome = _OUTCOMES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                stats.errors += 1
                raise
            finally:
                dt = time.perf_counter() - t0
                stats.calls += 1
                stats.self_s += dt - child.pop()
                child[-1] += dt
            if outcome is not None:
                stats.outcomes += outcome(out)
            return out

        return traced

    def patch(self, modules):
        """Wrap LAYERS in `modules` ({name: module}) wherever they are bound."""
        for mod_name, fns in LAYERS.items():
            for fn_name in fns:
                original = getattr(modules[mod_name], fn_name)
                traced = self.wrap(f"{mod_name}.{fn_name}", original)
                for module in modules.values():
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, traced)
                            self._patched.append((module, attr, original))

    def unpatch(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def wrap_patch(self, patch):
        """A copy of an ImmersionPatch whose eval/jac/hess are traced."""
        maps = {m: self.wrap(f"gallery.{m}", getattr(patch, m))
                for m in PATCH_MAPS if getattr(patch, m) is not None}
        return dataclasses.replace(patch, **maps)

    def total_self_s(self):
        return sum(s.self_s for s in self.stats.values())

"""Layer trace installed from outside the program.

Every public function of each `modgem` module, the four `MPoly` methods the
layer metrics name, and each check of `cli.SUITES` are replaced by a timing
wrapper. A wrapper is installed in every module namespace that bound the
original object, because the modules import one another's names with
`from .x import y`. Spans nest on one stack: a span's self time is its
duration minus the durations of the spans it directly contains, and is
charged to the layer of the wrapped function. Time spent in code that is not
wrapped (constructors, private helpers) is charged to the innermost wrapped
caller.
"""

from __future__ import annotations

import functools
import inspect
import time

LAYERS = ("cli", "exactalg", "rootarr", "lines27", "gems", "theta", "nodalcy")

MPOLY_METHODS = {"__mul__": "mul", "__rmul__": "mul", "subs": "subs",
                 "eval": "eval", "restrict_to_line": "restrict_to_line"}

# lru-cached public builders whose cache_info() gives the hit counts
CACHED_BUILDERS = {
    "rootarr": ("cached_incidence",),
    "lines27": ("special_loci", "macdonald_membership", "coordinate_tables",
                "weyl_generators"),
    "gems": ("segre_chart", "beta_components", "nieto_chart", "invariant_quintic_form",
             "double_six_quotient", "phi_quartics", "psi_octics"),
}


class Tracer:
    """Span and count accumulators for one traced run."""

    def __init__(self) -> None:
        self.total_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.errors = {layer: 0 for layer in LAYERS}
        self.counts: dict[str, int] = {}
        self._stack: list[list[float]] = []
        self._depth: dict[str, int] = {}
        self._last_error: BaseException | None = None
        self._cache_before: dict[str, tuple[int, int]] = {}
        self._builders: dict[str, object] = {}

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _span(self, layer: str, key, fn, after=None):
        """A wrapper timing `fn` as one span of `layer`.

        `key` is the name the span is recorded under, or a function of the
        call's result that gives it; a call that raises under such a key is
        recorded under no name. Recursive activations add to the call count
        but only the outermost one adds to the inclusive time. `after(args,
        result)` runs once the span has closed, so its own cost is charged to
        the caller.
        """
        stack, depth, perf = self._stack, self._depth, time.perf_counter
        if not callable(key):
            self.total_s.setdefault(key, 0.0)
            self.calls.setdefault(key, 0)

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            level = depth.get(key, 0)
            depth[key] = level + 1
            name = None if callable(key) else key
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                if name is None:
                    name = key(result)
            except Exception as exc:
                if exc is not self._last_error:
                    self._last_error = exc
                    self.errors[layer] += 1
                raise
            finally:
                dt = perf() - t0
                stack.pop()
                depth[key] = level
                if name is not None:
                    if not level:
                        self.total_s[name] = self.total_s.get(name, 0.0) + dt
                    self.calls[name] = self.calls.get(name, 0) + 1
                self.self_s[layer] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if after is not None:
                after(args, result)
            return result

        return functools.update_wrapper(traced, fn)

    # -- installation ------------------------------------------------------

    def install(self, modules: dict) -> list[str]:
        """Wrap the layers in `modules` (layer name -> module); returns notes."""
        notes = []
        replacements: dict[int, object] = {}
        for layer in LAYERS:
            mod = modules.get(layer)
            if mod is None:
                notes.append(f"layer {layer} missing")
                continue
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or not _defined_in(obj, mod):
                    continue
                wrapped = self._span(layer, f"{layer}.{name}", obj, self._after(layer, name))
                replacements[id(obj)] = (obj, wrapped)
            for name in CACHED_BUILDERS.get(layer, ()):
                obj = getattr(mod, name, None)
                if obj is not None and hasattr(obj, "cache_info"):
                    self._builders[f"{layer}.{name}"] = obj
                else:
                    notes.append(f"cache {layer}.{name} missing")
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])

        mpoly = getattr(modules.get("exactalg"), "MPoly", None)
        for attr, short in MPOLY_METHODS.items():
            fn = vars(mpoly).get(attr) if mpoly is not None else None
            if fn is None:
                notes.append(f"MPoly.{attr} missing")
                continue
            setattr(mpoly, attr, self._span("exactalg", f"exactalg.{short}", fn))

        suites = getattr(modules.get("cli"), "SUITES", None)
        if isinstance(suites, dict):
            for suite, checks in suites.items():
                suites[suite] = tuple(self._span("cli", _check_key, c) for c in checks)
        else:
            notes.append("cli.SUITES missing; per-check spans absent")
        return notes

    def _after(self, layer: str, name: str):
        key = f"{layer}.{name}"
        if key == "exactalg.rank_mod":
            return self._rank_mod_entries
        if key == "exactalg.vanishing_space":
            return lambda args, res: self.count(
                f"exactalg.vanishing_space_{getattr(res, 'method', 'unknown')}")
        if key == "gems.duality_pipeline":
            return lambda args, res: self.count(
                "gems.duality_resampled", int(bool(getattr(res, "resampled", False))))
        return None

    def _rank_mod_entries(self, args, result) -> None:
        rows = args[0] if args else ()
        if isinstance(rows, (list, tuple)) and rows:
            self.count("exactalg.rank_mod_entries", len(rows) * len(rows[0]))

    # -- cache counters ----------------------------------------------------

    def _cache_totals(self) -> dict[str, tuple[int, int]]:
        out = {}
        for key, builder in self._builders.items():
            info = builder.cache_info()
            out[key] = (info.hits, info.hits + info.misses)
        return out

    def start(self) -> None:
        """Marks the start of the timed calls for the cache counters."""
        self._cache_before = self._cache_totals()

    def cache_deltas(self) -> dict[str, tuple[int, int]]:
        """(hits, calls) per cached builder since start()."""
        after = self._cache_totals()
        return {key: (h - self._cache_before[key][0], c - self._cache_before[key][1])
                for key, (h, c) in after.items()}

    def summary(self) -> dict:
        return {"total_s": self.total_s, "calls": self.calls, "self_s": self.self_s,
                "errors": self.errors, "counts": self.counts,
                "cache": self.cache_deltas()}


def _check_key(cert) -> str:
    """The span name of a cli check: its certificate's name."""
    return f"cli.check.{cert.check}"


def _defined_in(obj, mod) -> bool:
    """A public function of `mod` itself, plain or lru-cached."""
    target = getattr(obj, "__wrapped__", obj) if hasattr(obj, "cache_info") else obj
    return inspect.isfunction(target) and target.__module__ == mod.__name__

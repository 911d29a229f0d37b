"""Spans around the package's public functions, recorded from outside the package.

A `Tracer` replaces each named function with a wrapper in every
``diffpareto`` module that binds it, since the modules import names from
one another (``experiment`` calls ``run_to_fixed_point`` through its own
binding, ``costs`` and ``network`` both hold ``dominant_eigpair``, and so
on). Each call records one span: id, name, start, end and the id of the
enclosing span. A function's self time is its span minus the time its
child spans cover.

Names a future version of the package no longer has are skipped and
report zero calls.
"""

from __future__ import annotations

import sys
import time
import warnings

# the public functions timed by the traced run, by module (layer)
LAYERS = {
    "diffusion": ("run_to_fixed_point", "validate_step_condition"),
    "costs": ("step_size_bounds", "hessian_bounds", "sample_ensemble", "global_optimum"),
    "linalg": ("dominant_eigpair", "solve_linear", "spectral_radius"),
    "bias": ("closed_form_bias", "error_propagation_matrix", "limit_bias"),
    "network": (
        "check_primitive",
        "perron_theta",
        "generate_topology",
        "build_A",
        "build_C",
        "check_assumption3",
    ),
    "experiment": ("run_sweep", "emit_csv", "emit_plot_script"),
}

# the fixed-point results are kept so the benchmark can check each row's
# iterated bias; this is the only function wrapped when tracing is off
CAPTURE = "diffusion.run_to_fixed_point"


def all_names() -> list[str]:
    return [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]


class Tracer:
    """Wraps the named functions and accumulates spans, calls and self time."""

    def __init__(self, names):
        self.names = list(names)
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.calls = dict.fromkeys(self.names, 0)
        self.self_s = dict.fromkeys(self.names, 0.0)
        self.captured: list = []
        self.unconverged = 0
        self._stack: list[list] = []  # [span id, time covered by children]

    def install(self) -> None:
        import diffpareto  # noqa: F401  (loads every submodule)

        modules = [
            mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "diffpareto" or name.startswith("diffpareto."))
        ]
        for name in self.names:
            layer, fn_name = name.split(".")
            original = getattr(sys.modules.get(f"diffpareto.{layer}"), fn_name, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def _wrap(self, name, fn):
        stack = self._stack
        spans = self.spans
        calls = self.calls
        self_s = self.self_s
        clock = time.perf_counter
        capture = name == CAPTURE
        count_warnings = name == "linalg.spectral_radius"

        def wrapper(*args, **kwargs):
            span_id = len(spans) + len(stack)
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                if count_warnings:
                    result = self._call_counting_warnings(fn, args, kwargs)
                else:
                    result = fn(*args, **kwargs)
                if capture:
                    self.captured.append(result)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                calls[name] += 1
                self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                spans.append((span_id, name, start, end, parent))

        return wrapper

    def _call_counting_warnings(self, fn, args, kwargs):
        """Count PowerIterationWarnings even where the caller ignores them,
        then re-issue every warning so the caller's filters still apply."""
        category = getattr(sys.modules["diffpareto.linalg"], "PowerIterationWarning", None)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = fn(*args, **kwargs)
        for w in caught:
            if category is not None and issubclass(w.category, category):
                self.unconverged += 1
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        return result

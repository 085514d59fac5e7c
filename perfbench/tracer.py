"""Outside-in tracing of ising_infer's public functions.

The tracer wraps every public function of the layer modules and rebinds
the wrapper at every module binding of the original, so a name imported
with ``from .sampler import glauber_sample`` is traced as well. Spans
(name, start, end, parent) are kept in memory while the experiment runs
and turned into per-layer metrics once it has ended. Nothing in the
package itself is edited.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
import types

import numpy as np

LAYERS = ("coupling", "sampler", "inference", "htests", "theory", "streams", "harness")

# function -> metric group; public functions not listed here count as
# "<layer>.other" so that the self times of all groups cover every span
GROUPS = {
    "coupling.build_coupling": "coupling.build",
    "coupling.spectrum": "coupling.spectrum",
    "coupling.validate_assumptions": "coupling.validate",
    "sampler.glauber_sample": "sampler.glauber",
    "sampler.glauber_series": "sampler.glauber",
    "sampler.cw_aux_counts": "sampler.aux",
    "sampler.cw_aux_sample": "sampler.aux",
    "sampler.phi_density_grid": "sampler.aux",
    "sampler.enumerate_suff_stats": "sampler.enum",
    "sampler.suff_stat_table": "sampler.enum",
    "sampler.exact_enumerate": "sampler.enum",
    "sampler.enumerate_state_distribution": "sampler.enum",
    "inference.mple": "inference.mple",
    "inference.mple_from_counts": "inference.mple",
    "inference.mle_exact": "inference.mle",
    "inference.mle_complete_large_n": "inference.mle",
    "inference.mle_stochastic": "inference.mle",
    "htests.calibrate": "htests.calibrate",
    "htests.empirical_power": "htests.empirical_power",
    "htests.asymptotic_power": "htests.asymptotic_power",
    "theory.sample_mple_limit": "theory.limit_draws",
    "theory.sample_quadratic_limits": "theory.limit_draws",
    "streams.substream": "streams.substream",
    "streams.derive_seed": "streams.derive_seed",
    "harness.run_experiment": "harness",
    "harness.render_csv": "harness.render",
}


def group_of(name: str) -> str:
    return GROUPS.get(name, name.split(".", 1)[0] + ".other")


def _arg(bound: inspect.BoundArguments, name: str, default=None):
    return bound.arguments.get(name, default)


def _burn_in(n: int, theta: float) -> int:
    from ising_infer.sampler import default_burn_in

    # the unwrapped function, so counting adds no span
    return getattr(default_burn_in, "__wrapped__", default_burn_in)(n, theta)


def _glauber_updates(bound, result) -> dict:
    n = _arg(bound, "coupling").n
    sweeps = _arg(bound, "sweeps")
    if sweeps is None:
        sweeps = _arg(bound, "burn_in")
        if sweeps is None:
            sweeps = _burn_in(n, _arg(bound, "theta"))
        sweeps += _arg(bound, "samples", 0)
    return {"sampler.glauber.site_updates": n * sweeps}


def _entries_mb(bound, result) -> dict:
    entries = getattr(result, "entries", None)
    return {"coupling.entries_mb": getattr(entries, "nbytes", 0) / 1e6}


def _enum_states(bound, result) -> dict:
    return {"sampler.enum.states": 1 << _arg(bound, "coupling").n}


def _aux_draws(bound, result) -> dict:
    return {"sampler.aux.draws": _arg(bound, "reps", 1)}


def _iterations(metric):
    def count(bound, result) -> dict:
        return {metric: getattr(result, "iterations", 0)}

    return count


def _limit_draws(bound, result) -> dict:
    return {"theory.limit_draws.count": _arg(bound, "reps")}


# counters computed from a call's inputs and result
COUNTERS = {
    "coupling.build_coupling": _entries_mb,
    "sampler.glauber_sample": _glauber_updates,
    "sampler.glauber_series": _glauber_updates,
    "sampler.enumerate_suff_stats": _enum_states,
    "sampler.cw_aux_counts": _aux_draws,
    "sampler.cw_aux_sample": _aux_draws,
    "inference.mple": _iterations("inference.mple.iterations"),
    "inference.mple_from_counts": _iterations("inference.mple.iterations"),
    "inference.mle_exact": _iterations("inference.mle.iterations"),
    "inference.mle_complete_large_n": _iterations("inference.mle.iterations"),
    "inference.mle_stochastic": _iterations("inference.mle.iterations"),
    "theory.sample_mple_limit": _limit_draws,
    "theory.sample_quadratic_limits": _limit_draws,
}
# counted only for calls not nested in another call of the same group:
# sample_mple_limit draws its quadratic-form pairs through
# sample_quadratic_limits, and those are the same draws
OUTERMOST_COUNTERS = {"theory.limit_draws.count"}
MPLE_FUNCTIONS = {"inference.mple", "inference.mple_from_counts"}


def _mple_key(bound) -> tuple:
    """Identity of one MPLE input, for the distinct-input ratio."""
    if "plus_count" in bound.arguments:
        return ("counts", _arg(bound, "n"), _arg(bound, "plus_count"))
    x = _arg(bound, "x")
    return ("spins", np.asarray(getattr(x, "spins", x)).tobytes())


class Tracer:
    """Collects spans and counters from wrapped package functions."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple] = []  # (name index, start, end, parent span index)
        self.counters: dict[str, float] = {}
        self.mple_keys: set = set()
        self._stack: list[tuple] = []  # (span index, group) of open spans
        self._installed: list[tuple] = []

    def _wrap(self, name: str, fn):
        name_index = len(self.names)
        self.names.append(name)
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter or name in MPLE_FUNCTIONS else None
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        group = group_of(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            stack.append((index, group))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_index, start, end, parent)
            if signature is not None:
                self._count(name, counter, group, signature.bind(*args, **kwargs), result)
            return result

        return traced

    def _count(self, name, counter, group, bound, result) -> None:
        bound.apply_defaults()
        if name in MPLE_FUNCTIONS:
            self.mple_keys.add(_mple_key(bound))
        if counter is None:
            return
        try:
            counts = counter(bound, result)
        except (AttributeError, KeyError, TypeError):
            # an interface this counter does not know; the self-tests,
            # which compare counts with closed forms, catch the gap
            return
        for metric, value in counts.items():
            if metric in OUTERMOST_COUNTERS and self._nested_in_group(group):
                continue
            self.counters[metric] = self.counters.get(metric, 0) + value

    def _nested_in_group(self, group: str) -> bool:
        return any(open_group == group for _, open_group in self._stack)

    def install(self) -> None:
        """Wrap each layer's public functions at every binding in the package."""
        package = [
            module
            for key, module in sorted(sys.modules.items())
            if key == "ising_infer" or key.startswith("ising_infer.")
        ]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules.get(f"ising_infer.{layer}")
            if module is None:
                continue
            for attr, value in vars(module).items():
                # public functions defined here, and functools caches around them
                inner = getattr(value, "__wrapped__", value)
                if (
                    attr.startswith("_")
                    or not isinstance(inner, types.FunctionType)
                    or getattr(value, "__module__", None) != module.__name__
                ):
                    continue
                wrappers[id(value)] = (value, self._wrap(f"{layer}.{attr}", value))
        for module in package:
            for attr, value in list(vars(module).items()):
                pair = wrappers.get(id(value))
                if pair is not None and pair[0] is value:
                    setattr(module, attr, pair[1])
                    self._installed.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._installed):
            setattr(module, attr, value)
        self._installed.clear()

    def metrics(self) -> dict:
        """Per-group self time and call counts, plus the computed counters."""
        groups = [group_of(name) for name in self.names]
        self_s = {}
        calls = {}
        child_time = [0.0] * len(self.spans)
        for name_index, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name_index, start, end, parent) in enumerate(self.spans):
            group = groups[name_index]
            self_s[group] = self_s.get(group, 0.0) + (end - start) - child_time[index]
            up = parent
            while up >= 0 and groups[self.spans[up][0]] != group:
                up = self.spans[up][3]
            if up < 0:
                calls[group] = calls.get(group, 0) + 1
        out = {f"{group}.self_s": value for group, value in self_s.items()}
        out.update({f"{group}.calls": value for group, value in calls.items()})
        out.update(self.counters)
        mple_calls = calls.get("inference.mple", 0)
        out["inference.mple.distinct_ratio"] = (
            len(self.mple_keys) / mple_calls if mple_calls else 0.0
        )
        out["trace.spans"] = len(self.spans)
        out["trace.self_total_s"] = sum(self_s.values())
        return out

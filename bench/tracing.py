"""Span tracer that wraps relinfo's public attributes from outside the package.

A :class:`Tracer` replaces module functions, one method and the binomial
contract factory with thin wrappers that record a span (id, parent id,
name, start, end) per call.  Spans stay in memory until :meth:`Tracer.write`.
A target attribute that no longer exists is recorded as absent, so the
metrics that depend on it are reported absent instead of crashing.

Layer metrics follow the benchmark's table (see README.md): inclusive time
for a named function, self time (span minus its direct child spans) for the
layers that orchestrate, and call counts.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# (module, attribute, span name).  The module is a relinfo submodule name.
FUNCTIONS = [
    ("cli", "run", "cli.run"),
    ("cli", "read_survival_csv", "cli.read_survival_csv"),
    ("core", "ri1", "core.ri1"),
    ("core", "ri0", "core.ri0"),
    ("core", "ri_y_samples", "core.ri_y_samples"),
    ("core", "lod_ratio_variance", "core.lod_ratio_variance"),
    ("core", "expected_lod_gap", "core.expected_lod_gap"),
    ("cox", "conditioning_anomaly_study", "cox.conditioning_anomaly_study"),
    ("cox", "ri1_cox_correct", "cox.ri1_cox_correct"),
    ("cox", "ri1_cox_naive", "cox.ri1_cox_naive"),
    ("cox", "simulate_ph_binary", "cox.simulate_ph_binary"),
    ("cox", "extract_rank_data", "cox.extract_rank_data"),
    ("cox", "fit_partial_likelihood", "cox.fit_partial_likelihood"),
    ("cox", "partial_log_likelihood", "cox.partial_log_likelihood"),
    ("cox", "breslow_baseline", "cox.breslow_baseline"),
    ("mc", "mc_expectation", "mc.mc_expectation"),
    ("mc", "substream", "mc.substream"),
    ("mc", "stream_uniforms", "mc.stream_uniforms"),
    ("mc", "estimate_from_values", "mc.estimate_from_values"),
    ("mc", "variance_from_values", "mc.variance_from_values"),
]
METHODS = [("cox", "BaselineHazard", "inverse", "cox.BaselineHazard.inverse")]
# Fields of the ModelContract that binomial.binomial_model() returns.
CONTRACT_FIELDS = [
    ("draw_completions_batch", "binomial.draw_completions"),
    ("log_likelihood", "binomial.log_likelihood"),
    ("mle", "binomial.mle"),
]
CORE_MEASURES = ["core.ri1", "core.ri0", "core.ri_y_samples",
                 "core.lod_ratio_variance", "core.expected_lod_gap"]

# Per-layer metric -> (unit, the span names it needs).
LAYER_METRICS = {
    "cox.extract_rank_data_s": ("s", ["cox.extract_rank_data"]),
    "cox.fit_partial_likelihood_s": ("s", ["cox.fit_partial_likelihood"]),
    "cox.breslow_baseline_s": ("s", ["cox.breslow_baseline"]),
    "cox.partial_loglik_calls": ("count", ["cox.partial_log_likelihood"]),
    "cox.baseline_inverse_calls": ("count", ["cox.BaselineHazard.inverse"]),
    "cox.baseline_inverse_s": ("s", ["cox.BaselineHazard.inverse"]),
    "cox.resimulations": ("count", ["cox.simulate_ph_binary"]),
    "mc.substream_calls": ("count", ["mc.substream"]),
    "mc.substream_s": ("s", ["mc.substream"]),
    "mc.draw_loop_self_s": ("s", ["mc.mc_expectation", "mc.substream",
                                  "cox.BaselineHazard.inverse", "mc.estimate_from_values"]),
    "mc.adaptive_draws_used": ("count", []),
    "mc.uniforms_drawn": ("count", ["mc.stream_uniforms"]),
    "mc.stream_uniforms_s": ("s", ["mc.stream_uniforms"]),
    "mc.reduce_s": ("s", ["mc.estimate_from_values", "mc.variance_from_values"]),
    "mc.sentinel_draws": ("count", CORE_MEASURES + ["cox.ri1_cox_correct",
                                                    "cox.ri1_cox_naive"]),
    "binomial.draw_completions_s": ("s", ["binomial.draw_completions"]),
    "binomial.log_likelihood_s": ("s", ["binomial.log_likelihood"]),
    "binomial.mle_s": ("s", ["binomial.mle"]),
    "core.calls": ("count", CORE_MEASURES),
    "core.self_s": ("s", CORE_MEASURES),
    "cli.read_survival_csv_s": ("s", ["cli.read_survival_csv"]),
    "cli.run_self_s": ("s", ["cli.run"]),
}
COUNT_METRICS = [name for name, (unit, _) in LAYER_METRICS.items() if unit == "count"]


def _sentinels(result) -> int:
    """Dropped draws a measure result reports in its diagnostics."""
    diagnostics = getattr(result, "diagnostics", None)
    if diagnostics is not None:
        return int(diagnostics.get("sentinel_count", 0))
    paired = getattr(result, "paired_diff", None)  # ExpectedLodGap
    if paired is not None:
        return int(paired.sentinel_count)
    if isinstance(result, np.ndarray):  # ri_y_samples: ratios with +inf sentinels
        return int(np.count_nonzero(~np.isfinite(result)))
    return 0


class Tracer:
    """Installs span-recording wrappers; :meth:`uninstall` restores the originals."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.absent: set[str] = set()
        self.uniforms = 0
        self.sentinels = 0
        self._next_id = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _span(self, fn, name, on_result=None):
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((sid, parent, name, start, end))
            if on_result is not None:
                on_result(result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _replace(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _on_result(self, name):
        if name == "mc.stream_uniforms":
            def count(result):
                self.uniforms += int(result.size)
            return count
        if name in CORE_MEASURES or name in ("cox.ri1_cox_correct", "cox.ri1_cox_naive"):
            def count(result):
                self.sentinels += _sentinels(result)
            return count
        return None

    def install(self) -> "Tracer":
        relinfo_modules = [m for key, m in sorted(sys.modules.items())
                           if m is not None and (key == "relinfo" or key.startswith("relinfo."))]
        for module_name, attr, name in FUNCTIONS:
            module = sys.modules.get(f"relinfo.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                self.absent.add(name)
                continue
            wrapper = self._span(original, name, self._on_result(name))
            # `from .mc import stream_uniforms` binds the function in other
            # modules too; every binding of the same object is wrapped.
            for m in relinfo_modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._replace(m, key, wrapper)
        for module_name, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules.get(f"relinfo.{module_name}"), cls_name, None)
            original = getattr(cls, attr, None)
            if original is None:
                self.absent.add(name)
                continue
            self._replace(cls, attr, self._span(original, name))
        self._wrap_contract()
        return self

    def _wrap_contract(self):
        binomial = sys.modules.get("relinfo.binomial")
        factory = getattr(binomial, "binomial_model", None)
        if factory is None:
            self.absent.update(name for _, name in CONTRACT_FIELDS)
            return
        for field, name in CONTRACT_FIELDS:
            if not any(f.name == field for f in dataclasses.fields(factory())):
                self.absent.add(name)

        def traced_factory(*args, **kwargs):
            contract = factory(*args, **kwargs)
            wrapped = {field: self._span(getattr(contract, field), name)
                       for field, name in CONTRACT_FIELDS
                       if name not in self.absent and getattr(contract, field) is not None}
            return dataclasses.replace(contract, **wrapped)

        self._replace(binomial, "binomial_model", traced_factory)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def layer_metrics(self, datasets: int, adaptive_draws: int) -> dict[str, float]:
        """Per-layer metrics; a metric whose spans are absent is left out.

        ``datasets`` is the number of datasets the workload asked the
        conditioning study for; ``adaptive_draws`` the draws its adaptive
        measure used (both come from the workload, not from spans).
        """
        calls: dict[str, int] = defaultdict(int)
        inclusive: dict[str, float] = defaultdict(float)
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            child_time[parent] += end - start
        self_time: dict[str, float] = defaultdict(float)
        for sid, _, name, start, end in self.spans:
            calls[name] += 1
            inclusive[name] += end - start
            self_time[name] += end - start - child_time[sid]

        values = {
            "cox.extract_rank_data_s": inclusive["cox.extract_rank_data"],
            "cox.fit_partial_likelihood_s": inclusive["cox.fit_partial_likelihood"],
            "cox.breslow_baseline_s": inclusive["cox.breslow_baseline"],
            "cox.partial_loglik_calls": calls["cox.partial_log_likelihood"],
            "cox.baseline_inverse_calls": calls["cox.BaselineHazard.inverse"],
            "cox.baseline_inverse_s": inclusive["cox.BaselineHazard.inverse"],
            "cox.resimulations": calls["cox.simulate_ph_binary"] - datasets,
            "mc.substream_calls": calls["mc.substream"],
            "mc.substream_s": inclusive["mc.substream"],
            "mc.draw_loop_self_s": self_time["mc.mc_expectation"],
            "mc.adaptive_draws_used": adaptive_draws,
            "mc.uniforms_drawn": self.uniforms,
            "mc.stream_uniforms_s": inclusive["mc.stream_uniforms"],
            "mc.reduce_s": (inclusive["mc.estimate_from_values"]
                            + inclusive["mc.variance_from_values"]),
            "mc.sentinel_draws": self.sentinels,
            "binomial.draw_completions_s": inclusive["binomial.draw_completions"],
            "binomial.log_likelihood_s": inclusive["binomial.log_likelihood"],
            "binomial.mle_s": inclusive["binomial.mle"],
            "core.calls": sum(calls[n] for n in CORE_MEASURES),
            "core.self_s": sum(self_time[n] for n in CORE_MEASURES),
            "cli.read_survival_csv_s": inclusive["cli.read_survival_csv"],
            "cli.run_self_s": self_time["cli.run"],
        }
        return {name: value for name, value in values.items()
                if not self.absent.intersection(LAYER_METRICS[name][1])}

    def write(self, path: Path) -> None:
        """Write the spans as CSV (id, parent, name, start, end)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            f.write("id,parent,name,start_s,end_s\n")
            for sid, parent, name, start, end in sorted(self.spans):
                f.write(f"{sid},{parent},{name},{start!r},{end!r}\n")

"""Self-tests of the benchmark: determinism of its counts and digests, and the tracer.

    PYTHONPATH=src python3 -m pytest -q bench

They run each workload in-process at reduced sizes (``workloads.SMALL``).
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402  (puts the checkout's src/ on sys.path)

import relinfo.cli  # noqa: E402
import relinfo.mc  # noqa: E402

SEED = 3


def one_repetition(name, seed, trace, sizes=workloads.SMALL):
    """A child's record has its repetitions; with no deadline it makes one."""
    child = workloads.run_child(name, seed, trace, sizes)
    assert len(child["reps"]) == 1
    return child["reps"][0]


@pytest.fixture(scope="module")
def traced_runs():
    return {name: [one_repetition(name, SEED, True) for _ in range(2)]
            for name in workloads.WORKLOADS}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_repeats_counts_and_digest(traced_runs, name):
    first, second = traced_runs[name]
    assert first["failures"] == [] and second["failures"] == []
    assert first["digest"] == second["digest"]
    assert first["draws"] == second["draws"]
    for metric in tracing.COUNT_METRICS:
        assert first["layers"][metric] == second["layers"][metric], metric


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tracing_does_not_change_digest(traced_runs, name):
    untraced = one_repetition(name, SEED, False)
    assert untraced["digest"] == traced_runs[name][0]["digest"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_other_seed_changes_digest(traced_runs, name):
    other = one_repetition(name, SEED + 1, False)
    assert other["digest"] != traced_runs[name][0]["digest"]


def test_every_layer_metric_is_reported(traced_runs):
    for runs in traced_runs.values():
        assert set(runs[0]["layers"]) == set(tracing.LAYER_METRICS)
        assert runs[0]["absent"] == []


def test_tracer_restores_originals():
    original = relinfo.mc.substream
    with tracing.Tracer():
        assert relinfo.mc.substream is not original
    assert relinfo.mc.substream is original


def test_missing_target_is_reported_absent(monkeypatch):
    # doss_small never reads a CSV, so it runs without this attribute.
    monkeypatch.delattr(relinfo.cli, "read_survival_csv")
    record = one_repetition("doss_small", SEED, True)
    assert record["failures"] == []
    assert record["absent"] == ["cli.read_survival_csv"]
    assert "cli.read_survival_csv_s" not in record["layers"]
    assert set(record["layers"]) == set(tracing.LAYER_METRICS) - {"cli.read_survival_csv_s"}


def test_section_time_sums_a_statistic_of_each_operation():
    reps = [{"scaled_s": {"a": 1.0, "b": 3.0}},
            {"scaled_s": {"a": 2.0, "b": 2.0}},
            {"scaled_s": {"a": 4.0, "b": 2.5}}]
    assert run.section_s(reps) == 2.0 + 2.5  # the median of each operation


def test_repetition_scales_each_operation_by_the_calibration_loop():
    rep = one_repetition("doss_small", SEED, False)
    assert set(rep["scaled_s"]) == set(rep["op_s"]) == {"study0", "study1", "adaptive"}
    for label, seconds in rep["op_s"].items():
        assert seconds > 0 and rep["scaled_s"][label] > 0

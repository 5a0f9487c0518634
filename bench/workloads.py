"""The benchmark's workloads and the child process that runs one of them.

Each workload makes its inputs from the run seed and names its operations:
calls into relinfo's public entry points (``relinfo.cli.run`` and the core
and Cox measures).  A repetition times each operation, then checks every
output against an oracle or a bound.  Correctness checks and oracles run
outside the timed operations.

Run as a script, this module is the child process that ``run.py`` starts:

    python3 bench/workloads.py --workload doss_small --seed 1 --trace 0 \
        --t0 <monotonic> --deadline <monotonic>

It sets up once, then repeats the operations until ``--deadline`` (at least
once), and prints one JSON line with its setup time, each repetition's
operation times and checks, and (when traced) per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / "_work"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import relinfo  # noqa: E402
import relinfo.cli  # noqa: E402
from relinfo import binomial, core, cox  # noqa: E402
from relinfo.mc import MCConfig  # noqa: E402

from tracing import Tracer  # noqa: E402

# Fixed-data inputs are simulated from this seed (the package's default
# seed); the run seed then drives every Monte Carlo stream.  Fixed data keep
# cox_large's quadratic setup work and the adaptive measure's stopping point
# the same across run seeds.
DATA_SEED = 20090417

# binom_batch: the observed data and hypotheses are those of the package's
# README example; only the Monte Carlo seed varies.
BINOM_X, BINOM_N_OBS, BINOM_N_MISSING = 550, 1000, 500
BINOM_P0, BINOM_P1 = 0.5, 0.55

# The conditioning study's settings (the paper's experiment).
DOSS_SUBJECTS, DOSS_NEW, DOSS_BETA, DOSS_CENSORING = 20, 5, 0.5, 0.25

# Adaptive stopping checks the relative SE every 1024 draws; this target
# stops the fixed doss-shaped dataset's run near draw 9 * 1024 of 16 * 1024.
ADAPTIVE_MAX_RELATIVE_SE = 0.0214

SE_GATE = 4.0      # binomial oracle agreement, in standard errors
EXCESS_GATE = 3.0  # correct-conditioning "<= 1" property, in standard errors

# The speed of a shared host drifts, by 2x and more over tens of seconds, in
# a way the guest cannot see (no steal time).  A fixed calibration loop that
# does not touch relinfo is timed before the first operation and after each
# one; an operation's time is then rescaled to the host speed at which the
# loop takes REFERENCE_S seconds.  REFERENCE_S is the loop's time in a fast
# phase of a 2-vCPU Xeon VM at 2.0 GHz; its exact value only sets the scale.
REFERENCE_S = 0.020


@dataclasses.dataclass(frozen=True)
class Sizes:
    binom_draws: int
    cox_subjects: int
    cox_draws: int
    doss_datasets: int
    doss_draws: int
    adaptive_cap: int


FULL = Sizes(binom_draws=250_000, cox_subjects=2000, cox_draws=4000,
             doss_datasets=6, doss_draws=2000, adaptive_cap=16 * 1024)
# Reduced sizes for the benchmark's own tests.
SMALL = Sizes(binom_draws=20_000, cox_subjects=100, cox_draws=50,
              doss_datasets=2, doss_draws=200, adaptive_cap=2048)


@dataclasses.dataclass
class Outcome:
    """What the checks made of one repetition's outputs."""

    attempted: int = 0
    failures: list[str] = dataclasses.field(default_factory=list)
    draws: int = 0
    rse2: list[float] = dataclasses.field(default_factory=list)
    digest_parts: list[str] = dataclasses.field(default_factory=list)
    datasets: int = 0
    adaptive_draws: int = 0

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def add_rse(self, estimate: float, se: float) -> None:
        self.rse2.append((se / abs(estimate)) ** 2)

    @property
    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.digest_parts).encode()).hexdigest()


def simulate_survival(n: int, beta: float, censoring_rate: float, n_new: int, seed: int):
    """PH sample with one binary covariate, unit baseline, exponential censoring.

    Returns (times, status, z, failure_times, z_new).  The draws follow
    relinfo's ``simulate_ph_binary`` on a Philox(seed, 0) stream, followed by
    the new subjects' binary covariates.
    """
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    z = rng.integers(0, 2, size=n).astype(float)
    t_fail = rng.exponential(size=n) / np.exp(beta * z)
    c = rng.exponential(scale=1.0 / censoring_rate, size=n)
    z_new = rng.integers(0, 2, size=n_new).astype(float)
    return np.minimum(t_fail, c), (t_fail <= c).astype(int), z, t_fail, z_new


def call_cli(argv: list[str]):
    """Run one CLI command in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = relinfo.cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def guarded(fn):
    """Call fn; an exception is returned as the result instead of raised."""
    try:
        return fn()
    except Exception as exc:  # the benchmark records it as a failed operation
        return exc


def parse_report(text: str) -> dict[str, str]:
    return dict(line.split(" = ", 1) for line in text.splitlines() if " = " in line)


def report_digest(text: str) -> str:
    """Report without its wall-clock timestamp and the machine-specific data path."""
    return "\n".join(line for line in text.splitlines()
                     if not line.startswith(("report.timestamp", "input.data")))


def check_cli(outcome: Outcome, label: str, result):
    """Common checks for one CLI command; returns its report or None."""
    outcome.attempted += 1
    if isinstance(result, Exception):
        outcome.fail(f"{label}: raised {result!r}")
        return None
    code, out, err = result
    outcome.digest_parts.append(f"{label} exit={code}\n{report_digest(out)}")
    if code != 0:
        outcome.fail(f"{label}: exit code {code}: {err.strip()}")
        return None
    return parse_report(out)


def finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)


def reference_s() -> float:
    """Time one pass of the calibration loop.

    It mixes the three kinds of work the workloads do: interpreted Python,
    many small numpy calls, and passes over a large array.
    """
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    small = np.arange(1000.0)
    for _ in range(1000):
        small = np.sqrt(small + 1.0)
    large = np.linspace(0.0, 1.0, 500_000)
    for _ in range(4):
        large = np.exp(-large)
    return time.perf_counter() - start


# --- binom_batch -------------------------------------------------------------

def binom_setup(seed: int, sizes: Sizes) -> dict:
    args = ["--x", str(BINOM_X), "--n-obs", str(BINOM_N_OBS),
            "--n-missing", str(BINOM_N_MISSING), "--p0", str(BINOM_P0),
            "--draws", str(sizes.binom_draws), "--seed", str(seed)]
    return {
        "seed": seed, "draws": sizes.binom_draws,
        "binom_ri": ["binom-ri", *args],
        "ri_y": ["ri-y", *args, "--p1", str(BINOM_P1)],
        "lod_var": ["lod-var", *args],
        "observed": binomial.BinomialObserved(BINOM_X, BINOM_N_OBS, BINOM_N_MISSING),
    }


def binom_ops(inputs: dict) -> dict:
    return {
        "binom_ri": functools.partial(call_cli, inputs["binom_ri"]),
        "ri_y": functools.partial(call_cli, inputs["ri_y"]),
        "lod_var": functools.partial(call_cli, inputs["lod_var"]),
        "gap": lambda: core.expected_lod_gap(binomial.binomial_model(), inputs["observed"],
                                             BINOM_P0, inputs["draws"], inputs["seed"]),
    }


def lod_variance_oracle(obs) -> float:
    """Exact Var[lod at the completion's own MLE] / observed lod^2, by enumeration."""
    model = binomial.binomial_model()
    theta_hat = model.mle(obs)

    def lod_at_own_mle(co):
        return float(model.log_likelihood(model.mle(co), co)
                     - model.log_likelihood(BINOM_P0, co))

    mean = binomial.enumerate_expectation(obs, theta_hat, lod_at_own_mle, cap=obs.n_missing)
    var = binomial.enumerate_expectation(
        obs, theta_hat, lambda co: (lod_at_own_mle(co) - mean) ** 2, cap=obs.n_missing)
    lod_ob = float(model.log_likelihood(theta_hat, obs) - model.log_likelihood(BINOM_P0, obs))
    return var / lod_ob**2


def binom_check(inputs: dict, raw: dict) -> Outcome:
    o = Outcome()
    rep = check_cli(o, "binom-ri", raw["binom_ri"])
    if rep is not None:
        est = float(rep["result.ri1_monte_carlo.estimate"])
        se = float(rep["result.ri1_monte_carlo.mc_standard_error"])
        closed = float(rep["result.ri1_closed_form"])
        o.draws += int(rep["result.ri1_monte_carlo.n_draws"])
        if not (finite(est, se) and abs(est - closed) <= SE_GATE * se):
            o.fail(f"binom-ri: MC ri1 {est} +- {se} vs closed form {closed}")
        else:
            o.add_rse(est, se)

    rep = check_cli(o, "ri-y", raw["ri_y"])
    if rep is not None:
        mean = float(rep["result.ri_y_reciprocal_mean"])
        se = float(rep["result.ri_y_reciprocal_se"])
        inverse = float(rep["result.ri1_inverse"])
        o.draws += int(rep["result.n_draws"])
        if not (finite(mean, se) and abs(mean - inverse) <= SE_GATE * se):
            o.fail(f"ri-y: reciprocal mean {mean} +- {se} vs 1/ri1 {inverse}")
        else:
            o.add_rse(mean, se)

    rep = check_cli(o, "lod-var", raw["lod_var"])
    if rep is not None:
        est = float(rep["result.lod_ratio_variance.estimate"])
        se = float(rep["result.lod_ratio_variance.mc_standard_error"])
        # The oracle is computed once per process, by the first check.
        if "lod_var_oracle" not in inputs:
            inputs["lod_var_oracle"] = lod_variance_oracle(inputs["observed"])
        oracle = inputs["lod_var_oracle"]
        o.draws += int(rep["result.lod_ratio_variance.n_draws"])
        if not (finite(est, se) and abs(est - oracle) <= SE_GATE * se):
            o.fail(f"lod-var: {est} +- {se} vs enumeration oracle {oracle}")
        else:
            o.add_rse(est, se)

    o.attempted += 1
    gap = raw["gap"]
    if isinstance(gap, Exception):
        o.fail(f"expected_lod_gap: raised {gap!r}")
    else:
        diff = gap.paired_diff
        o.digest_parts.append(
            f"gap {gap.at_draw_mle!r} {gap.at_fixed_alt!r} {diff!r} {gap.dominance_violations}")
        o.draws += diff.n_draws
        if gap.dominance_violations != 0 or not finite(
                gap.at_draw_mle.mean, gap.at_fixed_alt.mean, diff.mean, diff.standard_error):
            o.fail(f"expected_lod_gap: {gap.dominance_violations} dominance violations, "
                   f"gap {diff.mean} +- {diff.standard_error}")
        else:
            o.add_rse(diff.mean, diff.standard_error)
    return o


# --- cox_large ---------------------------------------------------------------

def cox_setup(seed: int, sizes: Sizes) -> dict:
    times, status, z, _, z_new = simulate_survival(
        sizes.cox_subjects, DOSS_BETA, DOSS_CENSORING, DOSS_NEW, DATA_SEED)
    WORK_DIR.mkdir(exist_ok=True)
    path = WORK_DIR / "cox_large.csv"
    with path.open("w") as f:
        f.write("time,status,cov1\n")
        for t, s, zi in zip(times.tolist(), status.tolist(), z.tolist()):
            f.write(f"{t!r},{s},{zi!r}\n")
    argv = ["cox-ri", "--data", str(path), "--n-new", str(DOSS_NEW),
            "--new-covariates", ";".join(repr(v) for v in z_new.tolist()),
            "--draws", str(sizes.cox_draws), "--seed", str(seed)]
    return {"correct": [*argv, "--mode", "correct"], "naive": [*argv, "--mode", "naive"]}


def cox_ops(inputs: dict) -> dict:
    return {mode: functools.partial(call_cli, inputs[mode]) for mode in ("correct", "naive")}


def cox_check(inputs: dict, raw: dict) -> Outcome:
    o = Outcome()
    for mode in ("correct", "naive"):
        rep = check_cli(o, f"cox-ri {mode}", raw[mode])
        if rep is None:
            continue
        est = float(rep["result.ri1.estimate"])
        se = float(rep["result.ri1.mc_standard_error"])
        o.draws += int(rep["result.ri1.n_draws"])
        if not finite(est, se) or se <= 0:
            o.fail(f"cox-ri {mode}: estimate {est} +- {se}")
        elif mode == "correct" and est > 1.0 + EXCESS_GATE * se:
            o.fail(f"cox-ri correct: {est} +- {se} exceeds 1 by more than {EXCESS_GATE} SE")
        else:
            o.add_rse(est, se)
    return o


# --- doss_small --------------------------------------------------------------

def doss_setup(seed: int, sizes: Sizes) -> dict:
    _, _, z, t_fail, z_new = simulate_survival(
        DOSS_SUBJECTS, DOSS_BETA, DOSS_CENSORING, DOSS_NEW, DATA_SEED)
    # Uncensored, as the conditioning study hands the correct conditioning.
    data = cox.SurvivalDataset.from_arrays(t_fail, np.ones(t_fail.size, dtype=int), z[:, None])
    # The study runs as one single-dataset command per dataset, so that each
    # operation is short; dataset k of run seed s uses study seed s * datasets + k.
    studies = [["doss-replication", "--n-datasets", "1",
                "--n-subjects", str(DOSS_SUBJECTS), "--n-new", str(DOSS_NEW),
                "--beta-true", str(DOSS_BETA), "--censoring-rate", str(DOSS_CENSORING),
                "--draws", str(sizes.doss_draws),
                "--seed", str(seed * sizes.doss_datasets + k)]
               for k in range(sizes.doss_datasets)]
    return {
        "datasets": sizes.doss_datasets, "draws": sizes.doss_draws, "studies": studies,
        "data": data, "z_new": z_new[:, None],
        "config": MCConfig(n_draws=sizes.adaptive_cap, seed=seed,
                           max_relative_se=ADAPTIVE_MAX_RELATIVE_SE),
    }


def doss_ops(inputs: dict) -> dict:
    ops = {f"study{k}": functools.partial(call_cli, argv)
           for k, argv in enumerate(inputs["studies"])}
    ops["adaptive"] = functools.partial(cox.ri1_cox_correct, inputs["data"], DOSS_NEW,
                                        inputs["z_new"], mc_config=inputs["config"])
    return ops


def doss_check(inputs: dict, raw: dict) -> Outcome:
    o = Outcome(datasets=inputs["datasets"])
    for k in range(inputs["datasets"]):
        rep = check_cli(o, f"doss-replication {k}", raw[f"study{k}"])
        if rep is None:
            continue
        failures = int(rep["result.simulation_failures"])
        excess = float(rep["result.max_correct_excess_se"])
        usable = int(rep["result.n_usable_datasets"])
        o.draws += 2 * usable * inputs["draws"]
        o.failures.extend([f"doss-replication {k}: dataset failed {failures} times"] * failures)
        if not excess <= EXCESS_GATE:
            o.fail(f"doss-replication {k}: correct excess {excess} SE > {EXCESS_GATE}")

    o.attempted += 1
    result = raw["adaptive"]
    if isinstance(result, Exception):
        o.fail(f"ri1_cox_correct adaptive: raised {result!r}")
        return o
    est, se = result.estimate, result.mc_standard_error
    o.digest_parts.append(f"adaptive {est!r} {se!r} {result.n_draws}")
    o.draws += result.n_draws
    o.adaptive_draws = result.n_draws
    if not finite(est, se) or se <= 0 or est > 1.0 + EXCESS_GATE * se:
        o.fail(f"ri1_cox_correct adaptive: {est} +- {se}")
    else:
        o.add_rse(est, se)
    return o


WORKLOADS = {
    "doss_small": (doss_setup, doss_ops, doss_check),
    "cox_large": (cox_setup, cox_ops, cox_check),
    "binom_batch": (binom_setup, binom_ops, binom_check),
}


def run_repetition(name: str, inputs: dict, trace: bool) -> dict:
    """Time each operation of the workload once, then check the outputs.

    ``op_s`` holds each operation's measured time and ``scaled_s`` that
    time rescaled to the reference speed, by the mean time of the
    calibration loops run just before and just after the operation.
    """
    _, ops, check = WORKLOADS[name]
    tracer = Tracer() if trace else None
    raw, op_s, scaled_s = {}, {}, {}
    ref_before = reference_s()
    with tracer or contextlib.nullcontext():
        for label, op in ops(inputs).items():
            start = time.perf_counter()
            raw[label] = guarded(op)
            op_s[label] = time.perf_counter() - start
            ref_after = reference_s()
            scaled_s[label] = op_s[label] * REFERENCE_S / ((ref_before + ref_after) / 2)
            ref_before = ref_after
    outcome = check(inputs, raw)
    rep = {
        "op_s": op_s, "scaled_s": scaled_s, "draws": outcome.draws, "attempted": outcome.attempted,
        "failures": outcome.failures, "digest": outcome.digest,
        "rse2": float(np.mean(outcome.rse2)) if outcome.rse2 else None,
    }
    if tracer is not None:
        rep["layers"] = tracer.layer_metrics(outcome.datasets, outcome.adaptive_draws)
        rep["absent"] = sorted(tracer.absent)
        tracer.write(WORK_DIR / f"spans_{name}.csv")
    return rep


def run_child(name: str, seed: int, trace: bool, sizes: Sizes = FULL,
              t0: float | None = None, deadline: float = 0.0) -> dict:
    """Set up once, then repeat the operations until ``deadline`` (at least once).

    ``t0`` and ``deadline`` are ``time.monotonic()`` readings.  ``t0`` is
    taken when the process was started, so setup time covers interpreter
    start and ``import relinfo``.  A further repetition starts only if one
    more of the same length would end by ``deadline``.
    """
    if t0 is None:
        t0 = time.monotonic()
    inputs = WORKLOADS[name][0](seed, sizes)
    setup_s = time.monotonic() - t0
    setup_scaled_s = setup_s * REFERENCE_S / statistics.median(reference_s() for _ in range(5))
    reps = []
    while True:
        start = time.monotonic()
        reps.append(run_repetition(name, inputs, trace))
        if len(reps) == 1:
            first_s = time.monotonic() - t0
        if 2 * time.monotonic() - start > deadline:
            break
    return {"setup_s": setup_s, "setup_scaled_s": setup_scaled_s, "first_s": first_s,
            "reps": reps,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--deadline", type=float, required=True,
                        help="time.monotonic() by which the last repetition should end")
    args = parser.parse_args()
    record = run_child(args.workload, args.seed, bool(args.trace), FULL,
                       t0=args.t0, deadline=args.deadline)
    print(json.dumps(record))


if __name__ == "__main__":
    main()

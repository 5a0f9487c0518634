"""relinfo benchmark: one workload, a few fresh child processes, one JSON result.

    python3 bench/run.py --workload doss_small --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  The run's time is shared among up to
``CHILDREN`` fresh child processes (``bench/workloads.py``), started one
after another with ``RELINFO_WORKERS`` unset and BLAS/OMP threads set to 1.
Each child sets up once and then repeats the workload's operations.  Times
are rescaled to a reference host speed (see ``workloads.REFERENCE_S``), and
a workload's time is the sum over its operations of the median repetition.
With ``--trace 0`` the result holds the end-to-end metrics; with ``--trace 1``
it holds the per-layer metrics of traced children plus ``trace.overhead_s``
against untraced children of the same run.  The last line of standard
output is the JSON result.  The exit code is 0 only when every output
passed its correctness check.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import COUNT_METRICS, LAYER_METRICS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CHILD = BENCH_DIR / "workloads.py"

WORKLOADS = ("doss_small", "cox_large", "binom_batch")
CHILDREN = 4       # fresh processes per run, so setup_s is a median of several
MIN_CHILDREN = 3   # started even when the run's time is used up
DEADLINE_S = 170.0  # the whole run, children included, ends before this

END_TO_END_UNITS = {"wall_s": "s", "draws_per_s": "1/s", "mc_efficiency": "1/s",
                    "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark could not measure (as opposed to a failed output check)."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("RELINFO_WORKERS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"  # the same string hashing in every child
    return env


def run_child(workload: str, seed: int, trace: bool, until: float, deadline: float) -> dict:
    """Run one child; it repeats the operations until ``until`` (at least once)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before a child could start")
    argv = [sys.executable, str(CHILD), "--workload", workload, "--seed", str(seed),
            "--trace", str(int(trace)), "--t0", repr(time.monotonic()),
            "--deadline", repr(until)]
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"child exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchError(f"child printed no result:\n{proc.stderr[-4000:]}") from exc


def measure(workload: str, seed: int, seconds: int, trace: bool) -> list[tuple[bool, dict]]:
    """Share ``seconds`` among the children; returns (traced, child record) pairs.

    Each child gets an equal share of the time that is left when it starts.
    A child past ``MIN_CHILDREN`` is started only if its setup and one
    repetition, as long as the median so far, would end within ``seconds``.
    """
    start = time.monotonic()
    end, deadline = start + seconds, start + DEADLINE_S
    children: list[tuple[bool, dict]] = []
    while len(children) < CHILDREN:
        now = time.monotonic()
        if len(children) >= MIN_CHILDREN and now + statistics.median(
                c["first_s"] for _, c in children) > end:
            break
        # In a traced run, untraced and traced children alternate.
        traced = trace and len(children) % 2 == 1
        until = now + (end - now) / (CHILDREN - len(children))
        children.append((traced, run_child(workload, seed, traced, until, deadline)))
    return children


def section_s(reps: list[dict], key: str = "scaled_s") -> float:
    """Sum over the operations of each operation's median repetition."""
    return sum(statistics.median(r[key][label] for r in reps) for label in reps[0][key])


def end_to_end(children: list[dict]) -> dict[str, float]:
    reps = [r for c in children for r in c["reps"]]
    wall = section_s(reps)
    print(f"unscaled: wall_s = {section_s(reps, 'op_s'):.6g} s, setup_s = "
          f"{statistics.median(c['setup_s'] for c in children):.6g} s")
    # Every repetition has the same digest, so draws and rse2 repeat too.
    values = {
        "wall_s": wall,
        "draws_per_s": reps[0]["draws"] / wall,
        "setup_s": statistics.median(c["setup_scaled_s"] for c in children),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children),
    }
    if reps[0]["rse2"]:
        values["mc_efficiency"] = 1.0 / (reps[0]["rse2"] * wall)
    return values


def per_layer(untraced: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    """Median layer metrics over traced repetitions; counts must repeat exactly."""
    problems = []
    layers = [r["layers"] for r in traced]
    values, units = {}, {}
    for name, (unit, _) in LAYER_METRICS.items():
        present = [layer[name] for layer in layers if name in layer]
        if not present:
            continue
        if name in COUNT_METRICS and len(set(present)) != 1:
            problems.append(f"{name} differs between runs with one seed: {present}")
        values[name] = statistics.median(present)
        units[name] = unit
    values["trace.overhead_s"] = section_s(traced) - section_s(untraced)
    units["trace.overhead_s"] = "s"
    return {name: {"value": v, "unit": units[name]} for name, v in values.items()}, problems


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> bool:
    """Measure one workload, print its metrics and JSON result; True if all correct."""
    try:
        measured = measure(workload, seed, seconds, trace)
    except BenchError as exc:
        raise SystemExit(f"error: {workload}: {exc}") from exc
    records = [r for _, c in measured for r in c["reps"]]
    untraced = [r for t, c in measured if not t for r in c["reps"]]
    traced = [r for t, c in measured if t for r in c["reps"]]

    problems = [f for r in records for f in r["failures"]]
    if len({r["digest"] for r in records}) != 1:
        problems.append("estimates differ between runs with one seed")
    attempted = sum(r["attempted"] for r in records)
    failed = sum(len(r["failures"]) for r in records)

    print(f"workload {workload}, seed {seed}, trace {int(trace)}: {len(measured)} children, "
          f"{len(untraced)} untraced and {len(traced)} traced repetitions")
    if trace:
        metrics, layer_problems = per_layer(untraced, traced)
        problems += layer_problems
        absent = sorted({a for r in traced for a in r["absent"]})
        if absent:
            print(f"absent (target attribute missing): {', '.join(absent)}")
    else:
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]}
                   for name, v in end_to_end([c for _, c in measured]).items()}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"error_rate = {failed / attempted:.6g} ({failed} of {attempted} operations failed)")
    for p in problems:
        print(f"FAILED: {p}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return not problems


def main() -> int:
    parser = argparse.ArgumentParser(description="relinfo benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "relinfo" / "__init__.py").is_file():
        sys.stderr.write(f"error: no relinfo sources under {ROOT / 'src'}; "
                         "run from the root of a relinfo checkout\n")
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in workloads]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())

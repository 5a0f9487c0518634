"""Reports do not depend on the number of BLAS threads.

Each command runs in its own process, once with one BLAS and OpenMP thread
and once with two, since the thread count is fixed when numpy loads.
Batches above 10,000 values let OpenBLAS split a call across its threads.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from relinfo.cox import simulate_ph_binary

SOURCE = Path(__file__).resolve().parents[1] / "src"
BINOMIAL = ["--x", "550", "--n-obs", "1000", "--n-missing", "500", "--p0", "0.5",
            "--draws", "50000", "--seed", "1"]
COX = ["--n-new", "3", "--new-covariates", "0;1;1", "--draws", "20000", "--seed", "2"]
COMMANDS = {
    "binom-ri": ["binom-ri", *BINOMIAL],
    "ri-y": ["ri-y", *BINOMIAL, "--p1", "0.55"],
    "lod-var": ["lod-var", *BINOMIAL],
    "cox-ri correct": ["cox-ri", *COX, "--mode", "correct"],
    "cox-ri naive": ["cox-ri", *COX, "--mode", "naive"],
    "doss-replication": ["doss-replication", "--n-datasets", "2", "--draws", "500",
                         "--seed", "3"],
}


def report(argv, threads, cwd):
    """The command's report, without its timestamp, run with ``threads`` BLAS threads."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join([str(SOURCE),
                                           *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", "from relinfo.cli import main; main()", *argv],
                          cwd=cwd, env=env, capture_output=True, text=True, check=True)
    return [line for line in done.stdout.splitlines() if not line.startswith("report.timestamp")]


@pytest.mark.parametrize("argv", COMMANDS.values(), ids=COMMANDS.keys())
def test_report_does_not_depend_on_the_thread_count(tmp_path, argv):
    if argv[0] == "cox-ri":
        data, _ = simulate_ph_binary(300, 0.5, np.random.default_rng(5), 0.25)
        times, status, z = data.arrays()
        (tmp_path / "surv.csv").write_text("time,status,cov1\n" + "".join(
            f"{t!r},{s},{v!r}\n" for t, s, v in zip(times.tolist(), status.tolist(),
                                                     z[:, 0].tolist())))
        argv = [*argv, "--data", "surv.csv"]
    one = report(argv, 1, tmp_path)
    assert any(line.startswith("result.") for line in one)
    assert report(argv, 2, tmp_path) == one

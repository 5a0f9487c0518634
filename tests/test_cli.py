import argparse
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_reader
from relinfo import binomial, cli, core, mc
from relinfo.cox import simulate_ph_binary
from relinfo.errors import DomainError, ValidationError


def run_report(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    pairs = {}
    for line in out.splitlines():
        key, _, value = line.partition(" = ")
        pairs[key] = value
    return code, pairs


@pytest.fixture()
def uniforms_drawn(monkeypatch):
    """A list whose length is the number of uniforms drawn.

    They are the uniforms ``mc.stream_uniforms`` returns and the raw words
    the binomial sampler reads, one per draw.
    """
    drawn = []
    original_uniforms, original_open = mc.stream_uniforms, mc.open_stream

    def counting(*args, **kwargs):
        u = original_uniforms(*args, **kwargs)
        drawn.extend([None] * u.size)
        return u

    class CountingStream:
        def __init__(self, *args, **kwargs):
            self.stream = original_open(*args, **kwargs)

        def random_raw(self, n):
            words = self.stream.random_raw(n)
            drawn.extend([None] * words.size)
            return words

    monkeypatch.setattr(mc, "stream_uniforms", counting)
    # The binomial sampler holds its own binding of the stream opener.
    monkeypatch.setattr(binomial, "open_stream", CountingStream)
    return drawn


def write_survival_csv(path, data):
    times, status, z = data.arrays()
    header = "time,status," + ",".join(f"cov{k + 1}" for k in range(z.shape[1]))
    rows = [f"{t},{s}," + ",".join(str(v) for v in row)
            for t, s, row in zip(times, status, z)]
    path.write_text("\n".join([header, *rows]) + "\n")


class TestBinomRi:
    def test_half_missing(self, capsys):
        code, pairs = run_report(capsys, [
            "binom-ri", "--x", "30", "--n-obs", "50", "--n-missing", "50",
            "--p0", "0.5"])
        assert code == 0
        assert float(pairs["result.ri1_closed_form"]) == 0.5
        assert float(pairs["result.ri1.estimate"]) == pytest.approx(0.5, abs=1e-12)
        assert float(pairs["result.ri0.estimate"]) == pytest.approx(0.4975, abs=5e-4)
        assert pairs["result.lod_scale"] == "ln"

    def test_log10_rescales_display_only(self, capsys):
        base = ["binom-ri", "--x", "30", "--n-obs", "50", "--n-missing", "50",
                "--p0", "0.5"]
        _, natural = run_report(capsys, base)
        _, log10 = run_report(capsys, base + ["--log10"])
        assert float(log10["result.lod_observed_display"]) == pytest.approx(
            float(natural["result.lod_observed_display"]) / np.log(10.0))
        assert log10["result.ri1.estimate"] == natural["result.ri1.estimate"]

    def test_monte_carlo_block_present_with_draws(self, capsys):
        code, pairs = run_report(capsys, [
            "binom-ri", "--x", "30", "--n-obs", "50", "--n-missing", "50",
            "--p0", "0.5", "--draws", "500", "--seed", "7"])
        assert code == 0
        assert pairs["result.ri1_monte_carlo.method"] == "monte_carlo"
        assert int(pairs["result.ri1_monte_carlo.n_draws"]) == 500
        est = float(pairs["result.ri1_monte_carlo.estimate"])
        se = float(pairs["result.ri1_monte_carlo.mc_standard_error"])
        assert abs(est - 0.5) <= 4 * se

    def test_null_at_mle_is_numerical_error(self, capsys):
        code = cli.run(["binom-ri", "--x", "25", "--n-obs", "50",
                        "--n-missing", "10", "--p0", "0.5"])
        capsys.readouterr()
        assert code == 3

    def test_missing_required_flag_is_usage_error(self, capsys):
        code = cli.run(["binom-ri", "--x", "30", "--n-obs", "50", "--p0", "0.5"])
        capsys.readouterr()
        assert code == 2


class TestReportFormat:
    def test_roundtrip_identical_minus_timestamp(self, capsys, tmp_path):
        argv = ["binom-ri", "--x", "30", "--n-obs", "50", "--n-missing", "50",
                "--p0", "0.5", "--seed", "11"]
        _, first = run_report(capsys, argv)
        _, second = run_report(capsys, argv)
        first.pop("report.timestamp")
        second.pop("report.timestamp")
        assert first == second

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        out = tmp_path / "report.txt"
        code = cli.run(["design-eval", "--design-a", "base",
                        "--design-b", "base-doubled", "--out", str(out)])
        stdout = capsys.readouterr().out
        assert code == 0
        assert out.read_text() == stdout

    def test_provenance_keys_present(self, capsys):
        _, pairs = run_report(capsys, [
            "binom-ri", "--x", "30", "--n-obs", "50", "--n-missing", "50",
            "--p0", "0.5"])
        assert int(pairs["provenance.seed"]) == 20090417
        assert "philox" in pairs["provenance.generator"]


BINOM = ["--x", "6", "--n-obs", "10", "--n-missing", "10", "--p0", "0.3"]
# Each subcommand at a tiny size; "{dir}" stands for a directory that holds
# surv.csv and studies.json.
TINY = {
    "binom-ri": ["binom-ri", *BINOM, "--log10"],
    "ri-y": ["ri-y", *BINOM, "--p1", "0.7", "--draws", "50"],
    "lod-var": ["lod-var", *BINOM, "--draws", "50"],
    "cox-ri": ["cox-ri", "--data", "{dir}/surv.csv", "--n-new", "1", "--new-covariates", "1",
               "--beta0", "0", "--draws", "50"],
    "combine": ["combine", "--studies", "{dir}/studies.json"],
    "design-eval": ["design-eval", "--design-a", "base", "--design-b", "base-doubled"],
    "doss-replication": ["doss-replication", "--n-datasets", "2", "--n-subjects", "10",
                         "--n-new", "1", "--draws", "50"],
}
GENERATOR_OF = {"binom-ri": mc.GENERATOR_ID, "ri-y": mc.GENERATOR_ID,
                "lod-var": mc.GENERATOR_ID, "cox-ri": mc.LATTICE_GENERATOR_ID,
                "doss-replication": mc.LATTICE_GENERATOR_ID}


def tiny_argv(name, directory):
    return [arg.replace("{dir}", str(directory)) for arg in TINY[name]]


@pytest.fixture()
def tiny_inputs(tmp_path):
    """A directory holding the input files of ``TINY``."""
    (tmp_path / "surv.csv").write_text(
        "time,status,cov1\n" + "".join(f"{t},{t % 3 > 0:d},{t % 2}\n" for t in range(1, 13)))
    (tmp_path / "studies.json").write_text(json.dumps([
        {"label": "a", "lod_observed": 1.0, "ri1": 0.4},
        {"label": "b", "lod_observed": 3.0, "ri1": 0.8}]))
    return tmp_path


def subcommand_parsers():
    """Each subcommand's parser, by name."""
    return next(action for action in cli.build_parser()._actions
                if isinstance(action, argparse._SubParsersAction)).choices


class TestCommonFlags:
    def test_each_subcommand_takes_only_the_common_flags_it_reads(self):
        parsers = subcommand_parsers()

        def taking(flag):
            return {name for name, p in parsers.items()
                    if any(flag in action.option_strings for action in p._actions)}

        assert set(parsers) == set(TINY)
        assert taking("--out") == set(TINY)
        assert taking("--seed") == set(GENERATOR_OF)
        assert taking("--log10") == {"binom-ri"}

    @pytest.mark.parametrize("name, flags", [
        ("combine", ["--seed", "1"]), ("design-eval", ["--seed", "1"]),
        *((name, ["--log10"]) for name in TINY if name != "binom-ri"),
    ], ids=lambda v: v if isinstance(v, str) else " ".join(v))
    def test_a_flag_the_command_does_not_take_is_a_usage_error(self, capsys, tmp_path,
                                                               name, flags):
        code = cli.run([*tiny_argv(name, tmp_path), *flags])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("usage: relinfo ")
        assert captured.err.endswith(f"error: unrecognized arguments: {' '.join(flags)}\n")

    @pytest.mark.parametrize("name", TINY)
    def test_only_a_command_that_draws_records_a_seed_and_a_generator(self, capsys,
                                                                      tiny_inputs, name):
        code, pairs = run_report(capsys, tiny_argv(name, tiny_inputs))
        assert code == 0
        provenance = {key: value for key, value in pairs.items()
                      if key.startswith("provenance.")}
        assert provenance == ({"provenance.seed": str(mc.DEFAULT_SEED),
                               "provenance.generator": GENERATOR_OF[name]}
                              if name in GENERATOR_OF else {})

    def test_every_flag_a_subcommand_takes_is_read(self, monkeypatch, capsys, tiny_inputs):
        # A flag that neither its handler nor ``run`` reads is accepted and
        # then ignored; this counts the reads of each parsed flag.
        parsers, parser, reads = subcommand_parsers(), cli.build_parser(), set()

        class RecordingNamespace(argparse.Namespace):
            def __getattribute__(self, name):
                reads.add(name)
                return super().__getattribute__(name)

        class RecordingParser:
            def parse_args(self, argv):
                return RecordingNamespace(**vars(parser.parse_args(argv)))

        monkeypatch.setattr(cli, "build_parser", RecordingParser)
        unread = {}
        for name, p in parsers.items():
            reads.clear()
            assert cli.run([*tiny_argv(name, tiny_inputs), "--out", str(tiny_inputs / "r")]) == 0
            unread[name] = {action.dest for action in p._actions} - {"help"} - reads
        capsys.readouterr()
        assert unread == {name: set() for name in TINY}

    @pytest.mark.parametrize("seed", [-1, 2**64])
    @pytest.mark.parametrize("name", GENERATOR_OF)
    def test_out_of_range_seed_is_refused_before_any_computation(self, capsys, tmp_path,
                                                                 uniforms_drawn, name, seed):
        # cox-ri's data file does not exist and binom-ri draws nothing: the
        # seed is refused before either matters.
        code = cli.run([*tiny_argv(name, tmp_path / "absent"), "--seed", str(seed)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: seed must fit in an unsigned 64-bit integer\n"
        assert uniforms_drawn == []


class TestRiYAndLodVar:
    def test_ri_y_reciprocal_mean_tracks_inverse_ri1(self, capsys):
        code, pairs = run_report(capsys, [
            "ri-y", "--x", "550", "--n-obs", "1000", "--n-missing", "500",
            "--p0", "0.5", "--p1", "0.55", "--draws", "4000", "--seed", "3"])
        assert code == 0
        recip = float(pairs["result.ri_y_reciprocal_mean"])
        se = float(pairs["result.ri_y_reciprocal_se"])
        assert abs(recip - float(pairs["result.ri1_inverse"])) <= 4 * se
        assert float(pairs["result.ri_y_sd"]) > 0

    @pytest.mark.parametrize("seed, sentinels", [(4, 2), (7, 1)])
    def test_ri_y_with_too_few_finite_ratios_reports_nan(self, capsys, seed, sentinels):
        # At these seeds every draw, or all but one, has complete-data lod 0.
        code, pairs = run_report(capsys, [
            "ri-y", "--x", "6", "--n-obs", "10", "--n-missing", "10",
            "--p0", "0.25", "--p1", "0.75", "--draws", "2", "--seed", str(seed)])
        assert code == 0
        assert int(pairs["result.sentinel_count"]) == sentinels
        assert np.isnan(float(pairs["result.ri_y_sd"]))
        assert np.isnan(float(pairs["result.ri_y_mean"])) == (sentinels == 2)
        assert np.isfinite(float(pairs["result.ri_y_reciprocal_mean"]))

    def test_ri_y_at_a_boundary_mle_is_numerical_error(self, capsys, uniforms_drawn):
        # The exact ri1 refuses the boundary MLE before any completion is drawn.
        code = cli.run(["ri-y", "--x", "0", "--n-obs", "10", "--n-missing", "10",
                        "--p0", "0.25", "--p1", "0.75", "--draws", "100"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == "error: observed-data MLE lies on the parameter boundary\n"
        assert len(uniforms_drawn) == 0
        # The counter does see the draws of a run that is not refused.
        assert cli.run(["ri-y", "--x", "6", "--n-obs", "10", "--n-missing", "10",
                        "--p0", "0.25", "--p1", "0.75", "--draws", "100"]) == 0
        capsys.readouterr()
        assert len(uniforms_drawn) == 100

    def test_ri_y_bad_draws_is_refused_before_a_boundary_mle(self, capsys):
        code = cli.run(["ri-y", "--x", "0", "--n-obs", "10", "--n-missing", "10",
                        "--p0", "0.25", "--p1", "0.75", "--draws", "1"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: n_draws must be >= 2")

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_constant_completion_lod_reduces_to_itself_exactly(self, capsys, seed):
        # With no missing trials every completion is the observed data: one
        # histogram row, whose mean is its own value and whose spread is 0.
        data = ["--x", "5", "--n-obs", "10", "--n-missing", "0", "--p0", "0.3",
                "--draws", "100", "--seed", str(seed)]
        code, pairs = run_report(capsys, ["binom-ri", *data])
        assert code == 0
        assert pairs["result.ri1_monte_carlo.estimate"] == "1.0"
        assert pairs["result.ri1_monte_carlo.mc_standard_error"] == "0.0"
        code, pairs = run_report(capsys, ["lod-var", *data])
        assert code == 0
        assert pairs["result.lod_ratio_variance.estimate"] == "0.0"
        assert pairs["result.lod_ratio_variance.mc_standard_error"] == "0.0"
        assert pairs["result.lod_ratio_variance.n_draws"] == "100"

    def test_lod_var_nonnegative(self, capsys):
        code, pairs = run_report(capsys, [
            "lod-var", "--x", "30", "--n-obs", "50", "--n-missing", "20",
            "--p0", "0.4", "--draws", "2000", "--seed", "5"])
        assert code == 0
        assert float(pairs["result.lod_ratio_variance.estimate"]) >= 0.0

    @pytest.mark.parametrize("argv", [
        ["lod-var", "--draws", "-3"],
        ["lod-var", "--seed", "-1"],
        ["lod-var", "--seed", str(2**64)],
        ["lod-var", "--draws", "0"],
        ["ri-y", "--p1", "0.55", "--draws", "0"],
        ["ri-y", "--p1", "0.55", "--draws", "1"],
        ["binom-ri", "--draws", "0"],
    ])
    def test_bad_draws_or_seed_is_usage_error(self, capsys, argv):
        code = cli.run([*argv, "--x", "550", "--n-obs", "1000", "--n-missing", "500",
                        "--p0", "0.5"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")


BINOMIAL_COMMANDS = [["binom-ri", "--draws", "100"],
                     ["ri-y", "--p1", "0.55", "--draws", "100"],
                     ["lod-var", "--draws", "100"]]


@pytest.mark.parametrize("command", BINOMIAL_COMMANDS, ids=lambda c: c[0])
def test_huge_missing_count_is_a_usage_error(capsys, command):
    # Its cdf table would need about 4e11 rows; it is refused before any is built.
    code = cli.run([*command, "--x", "6", "--n-obs", "10", "--n-missing", str(10**20),
                    "--p0", "0.5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: n_missing={10**20} needs a pmf window of ")


@pytest.mark.parametrize("command", [
    BINOMIAL_COMMANDS[0], ["ri-y", "--p1", "2e-18", "--draws", "100"], BINOMIAL_COMMANDS[2],
], ids=lambda c: c[0])
def test_missing_count_above_int64_is_a_usage_error(capsys, command):
    # At theta_hat = 1e-18 the pmf window is small, but a draw's count is an
    # int64: 2**63 - 1 missing trials run, 10**20 are refused.
    argv = [*command, "--x", "1", "--n-obs", str(10**18), "--p0", "0.5", "--n-missing"]
    assert cli.run([*argv, str(2**63 - 1)]) == 0
    capsys.readouterr()
    code = cli.run([*argv, str(10**20)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (f"error: n_missing={10**20} is above {2**63 - 1}, "
                            "the largest count a draw holds\n")


class TestProbabilityFlags:
    @pytest.mark.parametrize("command, flag, value", [
        *[(command, "--p0", value) for command in BINOMIAL_COMMANDS
          for value in ("1.5", "0", "1", "-0.25", "nan", "inf")],
        *[(command, "--p1", value) for command in BINOMIAL_COMMANDS[:2]
          for value in ("1.5", "0", "nan")],
    ], ids=lambda v: v[0] if isinstance(v, list) else v)
    @pytest.mark.parametrize("x", ["550", "0"], ids=["interior", "boundary"])
    def test_out_of_range_is_a_usage_error_naming_the_flag(self, capsys, uniforms_drawn,
                                                            command, flag, value, x):
        argv = [*command, "--x", x, "--n-obs", "1000", "--n-missing", "500", "--p0", "0.5"]
        code = cli.run([*argv, flag, value])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {flag} must lie in (0, 1); got {float(value)!r}\n"
        assert len(uniforms_drawn) == 0

    @pytest.mark.parametrize("command", BINOMIAL_COMMANDS, ids=lambda c: c[0])
    @pytest.mark.parametrize("x", ["0", "1000"])
    def test_boundary_mle_stays_a_numerical_error(self, capsys, command, x):
        code = cli.run([*command, "--x", x, "--n-obs", "1000", "--n-missing", "500",
                        "--p0", "0.5"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "boundary" in captured.err

    def test_nonpositive_expected_lod_is_a_numerical_error(self, capsys):
        # A sharp alternative of 0.3 against 600 of 1000 at p0 = 0.5: the
        # imputed complete-data lod is negative.
        code = cli.run(["binom-ri", "--x", "600", "--n-obs", "1000", "--n-missing", "500",
                        "--p0", "0.5", "--p1", "0.3"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == "error: imputed complete-data lod is nonpositive\n"

    def test_the_package_api_still_raises_domain_error(self):
        obs = binomial.BinomialObserved(550, 1000, 500)
        with pytest.raises(DomainError, match="outside the domain"):
            core.ri1(binomial.binomial_model(), obs, 1.5)


class TestParserReuse:
    VALID = ["binom-ri", "--x", "30", "--n-obs", "50", "--n-missing", "50",
             "--p0", "0.5", "--p1", "0.65", "--draws", "300", "--seed", "5", "--log10"]

    @staticmethod
    def report_text(capsys, argv):
        assert cli.run(argv) == 0
        return [line for line in capsys.readouterr().out.splitlines()
                if not line.startswith("report.timestamp")]

    def test_runs_in_one_process_build_the_parser_tree_once(self, monkeypatch, capsys):
        builds = []
        add_subparsers = argparse.ArgumentParser.add_subparsers

        def counting(self, **kwargs):
            builds.append(self.prog)
            return add_subparsers(self, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counting)
        cli.build_parser.cache_clear()
        try:
            for argv in [self.VALID, ["design-eval", "--design-a", "base",
                                      "--design-b", "base-doubled"],
                         ["lod-var", "--x", "30"], self.VALID]:
                cli.run(argv)
            capsys.readouterr()
        finally:
            cli.build_parser.cache_clear()
        assert builds == ["relinfo"]

    @pytest.mark.parametrize("argv, code", [
        (["binom-ri", "--x", "30", "--n-obs", "50", "--p0", "0.5"], 2),
        (["binom-ri", "--x", "thirty", "--n-obs", "50", "--n-missing", "50", "--p0", "0.5"], 2),
        (["no-such-command", "--x", "30"], 2),
        (["--help"], 0),
        (["binom-ri", "--help"], 0),
    ], ids=["missing flag", "bad value", "unknown subcommand", "help", "subcommand help"])
    def test_a_refused_or_help_call_leaves_later_reports_unchanged(self, capsys, argv, code):
        before = self.report_text(capsys, self.VALID)
        assert cli.run(argv) == code
        capsys.readouterr()
        assert self.report_text(capsys, self.VALID) == before


class TestCoxRi:
    @pytest.fixture()
    def csv_path(self, tmp_path):
        rng = np.random.default_rng(17)
        censored, _ = simulate_ph_binary(15, 0.6, rng, 0.2)
        path = tmp_path / "surv.csv"
        write_survival_csv(path, censored)
        return path

    def test_naive_no_new_subjects_is_exactly_one(self, capsys, csv_path):
        code, pairs = run_report(capsys, [
            "cox-ri", "--data", str(csv_path), "--mode", "naive"])
        assert code == 0
        assert float(pairs["result.ri1.estimate"]) == 1.0
        assert int(pairs["result.ri1.n_draws"]) == 0

    def test_correct_mode_runs_and_warns(self, capsys, csv_path):
        code, pairs = run_report(capsys, [
            "cox-ri", "--data", str(csv_path), "--mode", "correct",
            "--n-new", "2", "--new-covariates", "1.0;0.0", "--beta0", "0",
            "--draws", "300", "--seed", "9"])
        assert code == 0
        assert float(pairs["result.ri1.estimate"]) > 0
        assert any(k.startswith("warning.") for k in pairs)
        # The report echoes each input as given.
        assert pairs["input.new_covariates"] == "1.0;0.0"
        assert pairs["input.beta0"] == "0"
        assert pairs["input.draws"] == "300"

    @pytest.mark.parametrize("flags", [["--new-covariates", "nan"],
                                       ["--new-covariates", "1.0", "--beta0", "inf"]])
    @pytest.mark.parametrize("mode", ["correct", "naive"])
    def test_nonfinite_new_covariate_or_null_beta_is_usage_error(self, capsys, csv_path,
                                                                  mode, flags):
        code = cli.run(["cox-ri", "--data", str(csv_path), "--mode", mode,
                        "--n-new", "1", "--draws", "64", *flags])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "must be finite" in captured.err

    @pytest.mark.parametrize("mode", ["correct", "naive"])
    def test_infinite_observed_lod_is_refused_before_any_draw(self, capsys, tmp_path,
                                                             uniforms_drawn, mode):
        # The null log-likelihood at beta 1e308 overflows to -inf.
        path = tmp_path / "four.csv"
        path.write_text("time,status,cov1\n1,1,0\n2,1,1\n3,1,0\n4,1,1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.run(["cox-ri", "--data", str(path), "--mode", mode, "--n-new", "1",
                            "--new-covariates", "1", "--draws", "50", "--beta0", "1e308"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == ("error: observed partial-likelihood lod is inf: not positive "
                                "and finite\n")
        assert uniforms_drawn == []

    @pytest.mark.parametrize("flags", [[], ["--new-covariates", "1"]],
                             ids=["without new covariates", "with new covariates"])
    def test_negative_n_new_is_usage_error(self, capsys, csv_path, flags):
        code = cli.run(["cox-ri", "--data", str(csv_path), "--n-new", "-1", *flags])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: --n-new must be >= 0\n"

    @pytest.mark.parametrize("flags, message", [
        (["--new-covariates", "abc"], "--new-covariates: not a number: 'abc'"),
        (["--new-covariates", "1.0", "--beta0", "abc"], "--beta0: not a number: 'abc'"),
        (["--new-covariates", "1.0", "--beta0", "0.5,"], "--beta0: not a number: ''"),
    ], ids=["new covariates", "beta0", "empty beta0 cell"])
    def test_non_number_flag_value_is_usage_error(self, capsys, csv_path, flags, message):
        code = cli.run(["cox-ri", "--data", str(csv_path), "--n-new", "1", "--draws", "64",
                        *flags])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("n_new, spec, message", [
        ("0", "1;2;3", "gives 3 rows for --n-new 0"),
        ("2", "1.0", "gives 1 rows for --n-new 2"),
        ("2", "1.0;0.5,2", "row 2 gives 2 values for 1 covariates"),
    ], ids=["rows without new subjects", "too few rows", "ragged rows"])
    def test_covariates_that_do_not_fit_the_new_subjects_are_usage_error(
            self, capsys, csv_path, n_new, spec, message):
        code = cli.run(["cox-ri", "--data", str(csv_path), "--n-new", n_new,
                        "--new-covariates", spec, "--draws", "64"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: --new-covariates {message}\n"

    def test_non_number_in_new_covariates_file_reports_line(self, capsys, csv_path, tmp_path):
        covariates = tmp_path / "new.csv"
        covariates.write_text("1.0\n\nabc\n")
        code = cli.run(["cox-ri", "--data", str(csv_path), "--n-new", "2",
                        "--new-covariates", str(covariates), "--draws", "64"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"error: --new-covariates {covariates}:3: not a number: 'abc'\n"

    def test_malformed_cell_reports_location(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,status,cov1\n1.0,1,0.5\n2.0,one,0.3\n")
        code = cli.run(["cox-ri", "--data", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{path}:3" in err and "column 2" in err and "status" in err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_nonfinite_time_reports_location(self, capsys, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"time,status,cov1\n1.0,1,0.5\n{cell},1,0.3\n")
        code = cli.run(["cox-ri", "--data", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{path}:3: column 1 (time)" in err

    @pytest.mark.parametrize("cell", ["0", "0.0", "-1.5"])
    def test_nonpositive_time_reports_location(self, capsys, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"time,status,cov1\n1.0,1,0.5\n{cell},1,0.3\n")
        code = cli.run(["cox-ri", "--data", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{path}:3: column 1 (time): must be positive" in err

    def test_nonfinite_covariate_reports_location(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,status,cov1\n1.0,1,nan\n2.0,1,0.3\n")
        code = cli.run(["cox-ri", "--data", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{path}:2: column 3 (cov1)" in err

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code = cli.run(["cox-ri", "--data", str(tmp_path / "nope.csv")])
        capsys.readouterr()
        assert code == 2

    def test_bad_status_value_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,status,cov1\n1.0,2,0.5\n")
        with pytest.raises(ValidationError, match="status"):
            cli.read_survival_csv(str(path))


def assert_same_arrays(got, want):
    for a, b in zip(got.arrays(), want.arrays(), strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


# Cells that ``float`` reads in its own way: underscores, padding, full-width
# digits and overflow are accepted, hexadecimal and stray underscores are not.
ODD_CELLS = ["1_0", " 2.5 ", "\t3", "１２", "inf", "nan", "1e400", "1e-400", "-0",
             "0x10", "1__0", "_1", ""]
FLOATS = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
POSITIVE = st.floats(min_value=1e-300, max_value=1e300)


def _formatted(values):
    return st.tuples(values, st.sampled_from([repr, "%.17g".__mod__, "%.5e".__mod__])).map(
        lambda pair: pair[1](pair[0]))


@st.composite
def survival_files(draw):
    """Header, then valid and blank rows with up to two bad rows among them."""
    dim = draw(st.integers(1, 3))
    row = st.tuples(
        _formatted(POSITIVE), st.sampled_from(["0", "1", "1.0", " 0", "-0"]),
        *[_formatted(FLOATS) for _ in range(dim)],
    ).map(list)

    def put(r, col, cell):
        return [*r[:col], cell, *r[col + 1:]]

    bad = st.one_of(
        st.builds(put, row, st.integers(0, dim + 1), st.sampled_from(ODD_CELLS)),
        st.builds(put, row, st.just(0), st.sampled_from(["0", "-0", "-1.5", "0.0"])),
        st.builds(put, row, st.just(1), st.sampled_from(["2", "0.5", "-1"])),
        row.map(lambda r: r[:-1]),
        row.map(lambda r: [*r, "1"]),
        row.map(lambda r: [*r, ""]),
    )
    lines = draw(st.lists(st.one_of(row.map(",".join), st.sampled_from(["", "  ", "\t"])),
                          max_size=8))
    for cells in draw(st.lists(bad, max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), ",".join(cells))
    header = "time,status," + ",".join(f"cov{k + 1}" for k in range(dim))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    final = draw(st.sampled_from(["", newline]))
    return newline.join([header, *lines]) + final


class TestSurvivalCsvReader:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=survival_files())
    def test_agrees_with_the_row_by_row_reader(self, tmp_path, text):
        path = tmp_path / "surv.csv"
        path.write_bytes(text.encode("utf-8"))
        outcomes = []
        for read in (cli.read_survival_csv, reference_reader.read_survival_csv):
            try:
                outcomes.append(read(str(path)))
            except ValidationError as exc:
                outcomes.append(exc)
        got, want = outcomes
        if isinstance(want, ValidationError):
            assert type(got) is type(want)
            assert str(got) == str(want)
            assert type(got.__cause__) is type(want.__cause__)
        else:
            for a, b in zip(got.arrays(), want.arrays()):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("rows, message", [
        (["-1,1,0.5", "2,1"], "2: column 1 (time): must be positive"),
        (["2,1", "-1,1,0.5"], "2: expected 3 columns, got 2"),
        (["1,2,0.5", "x,1,0.5"], "2: column 2 (status): must be 0 or 1"),
        (["1,1,nan", "0,1,0.5"], "2: column 3 (cov1): not a finite number: 'nan'"),
        (["1,1,0.5", "", "0,one,0.5", "1,1,0.5,"], "4: column 2 (status): not a number: 'one'"),
        (["1,1,0.5,1", "1,1"], "2: expected 3 columns, got 4"),
    ], ids=["time before column count", "column count before time",
            "status before cell", "cell before time", "blank lines keep numbering",
            "rows lend no cells"])
    def test_first_bad_row_wins(self, tmp_path, rows, message):
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(["time,status,cov1", *rows]) + "\n")
        with pytest.raises(ValidationError) as info:
            cli.read_survival_csv(str(path))
        assert str(info.value) == f"{path}:{message}"

    def test_bad_cell_in_the_last_of_many_rows_names_its_line(self, tmp_path):
        rows = [f"{t + 1}.5,{t % 2},{t / 7!r}" for t in range(1999)] + ["7.5,1,0x10"]
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(["time,status,cov1", *rows]) + "\n")
        with pytest.raises(ValidationError) as info:
            cli.read_survival_csv(str(path))
        assert str(info.value) == f"{path}:2001: column 3 (cov1): not a number: '0x10'"
        assert isinstance(info.value.__cause__, ValueError)

    @pytest.mark.parametrize("cell", ["1_0", "１２", "\xa00.5\xa0"],
                             ids=["underscore", "full-width digits", "no-break space padding"])
    def test_cells_only_float_reads_load_as_the_reference_reads_them(self, tmp_path, cell):
        path = tmp_path / "odd.csv"
        path.write_text(f"time,status,cov1\n{cell},1,{cell}\n2.5,0,-1\n", encoding="utf-8")
        assert_same_arrays(cli.read_survival_csv(str(path)),
                           reference_reader.read_survival_csv(str(path)))

    @pytest.mark.parametrize("cell", ["0.5#9", '"0.5"'], ids=["hash", "quotes"])
    def test_a_hash_or_a_quote_is_part_of_its_cell(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"time,status,cov1\n2.5,0,0.25\n1.5,1,{cell}\n")
        with pytest.raises(ValidationError) as info:
            cli.read_survival_csv(str(path))
        assert str(info.value) == f"{path}:3: column 3 (cov1): not a number: {cell!r}"

    def test_a_file_past_numpys_chunk_of_rows_matches_the_reference(self, tmp_path):
        # numpy's reader takes 50,000 rows at a time.
        rows = [f"{t + 1}.5,{t % 2},{t / 7!r}" for t in range(50_010)]
        path = tmp_path / "long.csv"
        path.write_text("\n".join(["time,status,cov1", *rows]) + "\n")
        assert_same_arrays(cli.read_survival_csv(str(path)),
                           reference_reader.read_survival_csv(str(path)))
        path.write_text("\n".join(["time,status,cov1", *rows[:-1], "7.5,1,0x10"]) + "\n")
        with pytest.raises(ValidationError) as info:
            cli.read_survival_csv(str(path))
        assert str(info.value) == f"{path}:50011: column 3 (cov1): not a number: '0x10'"

    def test_a_valid_file_is_never_read_row_by_row(self, tmp_path, monkeypatch):
        censored, _ = simulate_ph_binary(2000, 0.5, np.random.default_rng(3), 0.25)
        path = tmp_path / "surv.csv"
        write_survival_csv(path, censored)
        want = reference_reader.read_survival_csv(str(path))

        def refuse(*args):
            raise AssertionError("read row by row")

        monkeypatch.setattr(cli, "_read_rows", refuse)
        assert_same_arrays(cli.read_survival_csv(str(path)), want)

    @pytest.mark.parametrize("text", ["time,status,cov1\n", "time,status,cov1\n\n  \n\t\n"],
                             ids=["header only", "blank rows only"])
    def test_no_data_rows(self, tmp_path, text):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        with pytest.raises(ValidationError) as info:
            cli.read_survival_csv(str(path))
        assert str(info.value) == f"{path}: no data rows"

    def test_byte_order_mark_is_skipped(self, tmp_path):
        text = "time,status,cov1\n1.5,1,0.25\n2.5,0,-1\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(text.encode("utf-8"))
        marked.write_bytes(text.encode("utf-8-sig"))
        for a, b in zip(cli.read_survival_csv(str(plain)).arrays(),
                        cli.read_survival_csv(str(marked)).arrays()):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestUndecodableInput:
    # A byte that is not UTF-8 is a usage error naming the file and the
    # byte's offset, counted in the file (a byte-order mark included).
    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "byte-order mark"])
    @pytest.mark.parametrize("command", ["cox-ri", "design-eval", "new-covariates", "combine"])
    def test_is_a_usage_error_naming_the_file(self, capsys, tmp_path, command, bom):
        good = tmp_path / "surv.csv"
        good.write_text("time,status,cov1\n1.5,1,0.25\n2.5,1,-1\n3.5,0,1\n")
        bad = tmp_path / "bad.txt"
        data, argv = {
            "cox-ri": (b"time,status,cov1\n1.5,1,0.\xff\n", ["cox-ri", "--data", str(bad)]),
            "design-eval": (b"1\n2\xff\n", ["design-eval", "--design-a", str(bad),
                                             "--design-b", "base"]),
            "new-covariates": (b"0.5\xff\n", ["cox-ri", "--data", str(good), "--n-new", "1",
                                              "--new-covariates", str(bad)]),
            "combine": (b'[{"label": "\xff"}]', ["combine", "--studies", str(bad)]),
        }[command]
        bad.write_bytes(bom + data)
        offset = (bom + data).index(b"\xff")
        code = cli.run(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {bad}: not UTF-8 text: byte 0xff at offset {offset}\n"


class TestCombine:
    def test_combines_json_studies(self, capsys, tmp_path):
        studies = tmp_path / "studies.json"
        studies.write_text(json.dumps([
            {"label": "a", "lod_observed": 1.0, "ri1": 0.4},
            {"label": "b", "lod_observed": 3.0, "ri1": 0.8},
        ]))
        code, pairs = run_report(capsys, ["combine", "--studies", str(studies)])
        assert code == 0
        expected = 4.0 / (1.0 / 0.4 + 3.0 / 0.8)
        assert float(pairs["result.combined_ri1"]) == pytest.approx(expected)

    def test_missing_key_is_usage_error(self, capsys, tmp_path):
        # The message names the file, the study's index and label, and the key.
        studies = tmp_path / "studies.json"
        for key in ("lod_observed", "ri1"):
            second = {"label": "b", "lod_observed": 3.0, "ri1": 0.8}
            del second[key]
            studies.write_text(json.dumps([{"lod_observed": 1.0, "ri1": 0.4}, second]))
            code = cli.run(["combine", "--studies", str(studies)])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.err == f"error: {studies}: study 1 ('b') has no {key!r}\n"

    def test_internal_key_error_is_not_a_usage_error(self, monkeypatch, tmp_path):
        def broken(args, report):
            raise KeyError("internal")
        monkeypatch.setitem(cli._COMMANDS, "combine", broken)
        with pytest.raises(KeyError):
            cli.run(["combine", "--studies", str(tmp_path / "studies.json")])

    @pytest.mark.parametrize("raw", [{"a": 1}, [1.0, 0.5], "studies"],
                             ids=["object", "list of numbers", "string"])
    def test_not_a_list_of_objects_is_usage_error(self, capsys, tmp_path, raw):
        studies = tmp_path / "studies.json"
        studies.write_text(json.dumps(raw))
        code = cli.run(["combine", "--studies", str(studies)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ") and "list of" in captured.err

    @pytest.mark.parametrize("value", ["1.0", None, True], ids=["string", "null", "bool"])
    @pytest.mark.parametrize("key", ["lod_observed", "ri1"])
    def test_non_number_entry_is_usage_error(self, capsys, tmp_path, key, value):
        entry = {"label": "a", "lod_observed": 1.0, "ri1": 0.4, key: value}
        studies = tmp_path / "studies.json"
        studies.write_text(json.dumps([entry]))
        code = cli.run(["combine", "--studies", str(studies)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith(f"error: study 'a': {key} must be a finite number")


class TestDesignEval:
    def test_presets_report_96_percent(self, capsys):
        code, pairs = run_report(capsys, [
            "design-eval", "--design-a", "base-doubled", "--design-b", "interlaced"])
        assert code == 0
        assert pairs["result.sx_a"].startswith("190/27")
        assert pairs["result.sx_b"].startswith("1465/216")
        assert pairs["result.variance_ratio_percent"] == "96%"
        assert float(pairs["result.variance_ratio"]) == pytest.approx(0.9638, abs=5e-5)

    def test_inline_points(self, capsys):
        code, pairs = run_report(capsys, [
            "design-eval", "--design-a", "1,2", "--design-b", "1,2,2"])
        assert code == 0
        assert float(pairs["result.variance_ratio"]) == pytest.approx(9 / 5)

    def test_unknown_preset_is_usage_error(self, capsys):
        code = cli.run(["design-eval", "--design-a", "what", "--design-b", "base"])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("a, b", [("1,inf", "1,2"), ("1,2", "inf,2"), ("1,-inf", "1,2"),
                                      ("1,nan", "1,2")])
    def test_nonfinite_inline_point_is_usage_error(self, capsys, a, b):
        # An infinite point used to give variance_ratio 0.0 or "inf%", exit 0.
        code = cli.run(["design-eval", "--design-a", a, "--design-b", b])
        assert code == 2
        assert capsys.readouterr().err == "error: design points must be finite\n"

    @pytest.mark.parametrize("point", ["inf", "-inf", "nan"])
    def test_nonfinite_point_in_a_file_is_usage_error(self, capsys, tmp_path, point):
        points = tmp_path / "design.txt"
        points.write_text(f"1\n{point}\n2\n")
        code = cli.run(["design-eval", "--design-a", "1,2", "--design-b", str(points)])
        assert code == 2
        assert capsys.readouterr().err == "error: design points must be finite\n"


def test_doss_replication_tiny_smoke(capsys):
    code, pairs = run_report(capsys, [
        "doss-replication", "--n-datasets", "3", "--n-subjects", "12",
        "--n-new", "2", "--draws", "200", "--seed", "101"])
    assert code == 0
    assert 0.0 <= float(pairs["result.fraction_naive_above_one"]) <= 1.0
    assert int(pairs["result.n_usable_datasets"]) >= 1


@pytest.mark.parametrize("flags", [
    ["--seed", "-1"], ["--seed", str(2**64)], ["--n-datasets", "0"],
    ["--n-subjects", "0"], ["--n-subjects", "1"], ["--n-new", "-1"],
    ["--censoring-rate", "-1"], ["--censoring-rate", "nan"], ["--censoring-rate", "inf"],
    ["--beta-true", "nan"], ["--beta-true", "inf"],
])
def test_doss_replication_bad_input_is_usage_error(capsys, flags):
    code = cli.run(["doss-replication", "--n-datasets", "3", "--n-subjects", "12",
                    "--n-new", "2", "--draws", "200", *flags])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_doss_replication_censoring_rate_is_a_rate_not_a_share(capsys):
    code, pairs = run_report(capsys, [
        "doss-replication", "--n-datasets", "2", "--n-subjects", "12",
        "--n-new", "2", "--draws", "200", "--censoring-rate", "1.5", "--seed", "101"])
    assert code == 0
    assert float(pairs["input.censoring_rate"]) == 1.5


def test_doss_replication_with_every_dataset_failing_is_a_measure_error(capsys):
    # At this censoring rate no simulated dataset keeps two events.
    code = cli.run(["doss-replication", "--n-datasets", "2", "--n-subjects", "5",
                    "--n-new", "2", "--draws", "200", "--censoring-rate", "1e9"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: all 2 simulated datasets failed")


def test_doss_replication_on_two_subjects_is_a_measure_error(capsys):
    # Two subjects' partial likelihood is monotone, or flat without
    # contrast, so every simulated dataset fails its fit.
    code = cli.run(["doss-replication", "--n-datasets", "2", "--n-subjects", "2",
                    "--n-new", "2", "--draws", "200"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: all 2 simulated datasets failed")


FOUR_ROWS = "time,status,cov1\n1,1,0\n2,1,1\n3,1,0\n4,1,1\n"
COX_ONE_NEW = ["cox-ri", "--data", "{data}", "--n-new", "1", "--new-covariates", "1"]


def huge_covariate(z):
    return f"time,status,cov1\n1,1,0\n2,1,{z}\n3,1,0\n4,0,1\n5,1,0.5\n"


# Hostile input, one row each: a name, the input file's contents (None for
# none) and the argv, where "{data}" stands for the file.  Cox rows run in
# both modes.
HOSTILE_COX = [
    ("observed lod about 1e300", FOUR_ROWS, [*COX_ONE_NEW, "--draws", "50", "--beta0", "1e300"]),
    ("null fixed terms overflow", FOUR_ROWS, [*COX_ONE_NEW, "--draws", "50", "--beta0=-1e308"]),
    ("infinite observed lod", FOUR_ROWS, [*COX_ONE_NEW, "--draws", "50", "--beta0", "1e308"]),
    ("draws' mean overflows", FOUR_ROWS, [*COX_ONE_NEW, "--draws", "50", "--beta0", "1e307"]),
    ("covariate 1e300", huge_covariate("1e300"), [*COX_ONE_NEW, "--draws", "10"]),
    ("covariate 1e160", huge_covariate("1e160"), [*COX_ONE_NEW, "--draws", "10"]),
    ("one draw", FOUR_ROWS, [*COX_ONE_NEW, "--draws", "1"]),
    ("not UTF-8", b"time,status,cov1\n1.5,1,0.\xff\n2.5,1,1\n", COX_ONE_NEW),
    ("non-finite covariate", "time,status,cov1\n1,1,0\n2,1,-inf\n3,1,1\n", COX_ONE_NEW),
]
HOSTILE = [
    *(pytest.param(data, [*argv, "--mode", mode], id=f"{name}, {mode}")
      for name, data, argv in HOSTILE_COX for mode in ("correct", "naive")),
    pytest.param(None, ["doss-replication", "--beta-true=1e3", "--n-datasets", "2"],
                 id="beta_true 1e3"),
    pytest.param(None, ["doss-replication", "--beta-true=-1e3", "--n-datasets", "2"],
                 id="beta_true -1e3"),
]


@pytest.mark.parametrize("mode", ["correct", "naive"])
@pytest.mark.parametrize("z", ["1e20", "1e150"])
def test_a_large_covariate_is_fitted(capsys, tmp_path, z, mode):
    # The fit converges here; its score is rounding noise of order z.
    path = tmp_path / "input.csv"
    path.write_text(huge_covariate(z))
    argv = [arg.replace("{data}", str(path)) for arg in COX_ONE_NEW]
    code, pairs = run_report(capsys, [*argv, "--draws", "10", "--mode", mode])
    assert code == 0
    assert math.isfinite(float(pairs["result.ri1.estimate"]))


@pytest.mark.parametrize("data, argv", HOSTILE)
def test_hostile_input_ends_in_one_error_line(capsys, tmp_path, data, argv):
    path = tmp_path / "input.csv"
    if data is not None:
        path.write_bytes(data if isinstance(data, bytes) else data.encode("utf-8"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.run([arg.replace("{data}", str(path)) for arg in argv])
    captured = capsys.readouterr()
    assert code in (2, 3)
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

"""Command-line front end: data ingestion, orchestration, report emission.

Reports are flat machine-readable ``key = value`` documents.  Every run
echoes its inputs, so the report alone suffices to reproduce the results
bit-exactly with the same package version.

Exit codes: 0 success, 2 validation/usage error, 3 numerical or
estimation error.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__, binomial, combine, core, cox, design, mc
from .errors import EstimationFailureError, RelInfoError, ValidationError

LN10 = math.log(10.0)


class Report:
    """Ordered key/value document with provenance."""

    def __init__(self, command: str, seed: int | None = None):
        self.pairs: list[tuple[str, str]] = []
        self.add("report.command", command)
        self.add("report.version", __version__)
        self.add("report.timestamp", datetime.datetime.now(datetime.timezone.utc).isoformat())
        if seed is not None:
            self.add("provenance.seed", seed)
        self.add("provenance.generator", mc.GENERATOR_ID)
        self._warnings = 0

    def add(self, key: str, value) -> None:
        if isinstance(value, float):
            value = repr(value)
        self.pairs.append((key, str(value)))

    def warn(self, message: str) -> None:
        self.add(f"warning.{self._warnings}", message)
        self._warnings += 1

    def add_result(self, prefix: str, result: core.RelInfoResult) -> None:
        self.add(f"{prefix}.estimate", result.estimate)
        self.add(f"{prefix}.mc_standard_error", result.mc_standard_error)
        self.add(f"{prefix}.n_draws", result.n_draws)
        self.add(f"{prefix}.method", result.method.value)
        for key, value in sorted(result.diagnostics.items()):
            self.add(f"{prefix}.diagnostics.{key}", value)

    def render(self) -> str:
        return "".join(f"{k} = {v}\n" for k, v in self.pairs)

    def emit(self, out: str | None) -> None:
        text = self.render()
        if out:
            Path(out).write_text(text)
        sys.stdout.write(text)


def _scale(value: float, log10: bool) -> float:
    return value / LN10 if log10 else value


def _read_text(path) -> str:
    """A file's text, decoded as UTF-8 with an optional byte-order mark."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # ``exc.object`` is what was decoded: the data after any byte-order mark.
        offset = len(data) - len(exc.object) + exc.start
        raise ValidationError(
            f"{path}: not UTF-8 text: byte 0x{data[offset]:02x} at offset {offset}") from exc


def _read_rows(path: str, header: list[str], lines: list[str]) -> cox.SurvivalDataset:
    """The data rows, each read by ``float``; raises for the first that breaks the schema."""
    values = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValidationError(
                f"{path}:{lineno}: expected {len(header)} columns, got {len(cells)}")
        row = []
        for col, cell in enumerate(cells, start=1):
            where = f"{path}:{lineno}: column {col} ({header[col - 1]})"
            try:
                row.append(float(cell))
            except ValueError as exc:
                raise ValidationError(f"{where}: not a number: {cell.strip()!r}") from exc
            if not math.isfinite(row[-1]):
                raise ValidationError(f"{where}: not a finite number: {cell.strip()!r}")
        if row[0] <= 0:
            raise ValidationError(f"{path}:{lineno}: column 1 (time): must be positive")
        if row[1] not in (0.0, 1.0):
            raise ValidationError(f"{path}:{lineno}: column 2 (status): must be 0 or 1")
        values.append(row)
    values = np.array(values)
    return cox.SurvivalDataset.from_arrays(values[:, 0], values[:, 1], values[:, 2:])


def read_survival_csv(path: str) -> cox.SurvivalDataset:
    """Read the survival schema: header ``time,status,cov1..covK``.

    Status is 1 for an event, 0 for a censored record.  The file is UTF-8,
    with or without a byte-order mark, and blank lines are skipped.
    Parsing is locale-free, decimal points only, and a ``#`` or a quote is
    part of its cell.  numpy's C reader parses a valid file in one pass,
    with the same string-to-double routine as ``float``; a file it refuses,
    or whose values ``SurvivalDataset`` refuses, is read again row by row
    with ``float``, which accepts the cells only it reads (``1_0``,
    full-width digits) and reports the first bad row.  Values the doubles
    cannot carry are refused later: covariates too large to square and sum
    (the Cox fit), and fixed terms or a Monte Carlo SE that overflow.
    """
    lines = _read_text(path).splitlines()
    if not lines:
        raise ValidationError(f"{path}: empty file")
    header = [h.strip() for h in lines[0].split(",")]
    if len(header) < 3 or header[0] != "time" or header[1] != "status":
        raise ValidationError(f"{path}:1: header must be time,status,cov1..covK")
    # numpy's reader refuses whitespace-only lines, so blank lines go here.
    rows = [line for line in lines[1:] if line.strip()]
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    try:
        values = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
        if values.shape[1] == len(header):
            return cox.SurvivalDataset.from_arrays(values[:, 0], values[:, 1], values[:, 2:])
    except (ValueError, ValidationError):
        pass  # a cell only ``float`` reads, or a bad row: read again below
    return _read_rows(path, header, lines)


def parse_design(spec: str) -> design.Design:
    """Preset name, file of one point per line, or comma-separated values."""
    if spec in design.PRESETS:
        return design.PRESETS[spec]()
    path = Path(spec)
    if path.exists():
        points = []
        for lineno, line in enumerate(_read_text(spec).splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                points.append(Fraction(line) if "/" in line else float(line))
            except (ValueError, ZeroDivisionError) as exc:
                raise ValidationError(f"{spec}:{lineno}: not a number: {line!r}") from exc
        return design.Design(points=tuple(points))
    try:
        return design.Design(points=tuple(float(v) for v in spec.split(",")))
    except ValueError as exc:
        raise ValidationError(
            f"design spec {spec!r} is not a preset ({', '.join(design.PRESETS)}), "
            f"a file, or a comma-separated list") from exc


def _parse_numbers(text: str, where: str) -> list[float]:
    """Comma-separated numbers; a cell that is not one is refused, naming ``where``."""
    values = []
    for cell in text.split(","):
        try:
            values.append(float(cell))
        except ValueError as exc:
            raise ValidationError(f"{where}: not a number: {cell.strip()!r}") from exc
    return values


def _parse_new_covariates(spec: str | None, n_new: int, dim: int) -> np.ndarray:
    if n_new < 0:
        raise ValidationError("--n-new must be >= 0")
    if n_new == 0:
        return np.zeros((0, dim))
    if spec is None:
        raise ValidationError("--new-covariates is required when --n-new > 0")
    path = Path(spec)
    if path.exists():
        rows = [
            _parse_numbers(line, f"--new-covariates {spec}:{lineno}")
            for lineno, line in enumerate(_read_text(spec).splitlines(), start=1)
            if line.strip()
        ]
    else:
        rows = [_parse_numbers(chunk, "--new-covariates") for chunk in spec.split(";")]
    z = np.asarray(rows, dtype=float)
    if z.shape != (n_new, dim):
        raise ValidationError(
            f"new covariates must be {n_new} rows of {dim} values; got shape {z.shape}")
    return z


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=mc.DEFAULT_SEED,
                        help="RNG seed (fixed default keeps runs reproducible)")
    parser.add_argument("--out", help="write the report to this path as well as stdout")
    parser.add_argument("--log10", action="store_true",
                        help="display lod scores in log10 (genetics convention)")


def _binomial_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--x", type=int, required=True, help="observed successes")
    parser.add_argument("--n-obs", type=int, required=True, help="observed trials")
    parser.add_argument("--n-missing", type=int, required=True, help="missing trials")
    parser.add_argument("--p0", type=float, required=True, help="null success probability")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every :func:`run`."""
    parser = argparse.ArgumentParser(
        prog="relinfo",
        description="Relative-information measures for hypothesis testing "
                    "with missing or coarsened data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("binom-ri", help="RI1/RI0 for the binomial missing-trials model")
    _binomial_args(p)
    p.add_argument("--p1", type=float, help="fixed (sharp) alternative; default: observed MLE")
    p.add_argument("--draws", type=int, help="also compute the Monte Carlo RI1 path")
    _add_common(p)

    p = sub.add_parser("ri-y", help="per-draw lod ratios under a sharp alternative")
    _binomial_args(p)
    p.add_argument("--p1", type=float, required=True, help="fixed (sharp) alternative")
    p.add_argument("--draws", type=int, default=10_000)
    _add_common(p)

    p = sub.add_parser("lod-var", help="conditional lod variance over squared observed lod")
    _binomial_args(p)
    p.add_argument("--draws", type=int, default=10_000)
    _add_common(p)

    p = sub.add_parser("cox-ri", help="augmentation relative information for Cox regression")
    p.add_argument("--data", required=True, help="survival CSV: time,status,cov1..covK")
    p.add_argument("--mode", choices=["correct", "naive"], default="correct")
    p.add_argument("--n-new", type=int, default=0)
    p.add_argument("--new-covariates",
                   help="CSV path or inline rows 'z1,..,zK;z1,..,zK' for the new subjects")
    p.add_argument("--beta0", help="comma-separated null coefficients (default: zeros)")
    p.add_argument("--draws", type=int, default=2000)
    _add_common(p)

    p = sub.add_parser("combine", help="combine study summaries (weighted harmonic rule)")
    p.add_argument("--studies", required=True,
                   help="JSON list of {label, lod_observed, ri1}")
    _add_common(p)

    p = sub.add_parser("design-eval", help="S_x information proxies for two designs")
    p.add_argument("--design-a", required=True)
    p.add_argument("--design-b", required=True)
    p.add_argument("--centered", action="store_true",
                   help="use centered S_x (off by default; the plain sum matches "
                        "through-the-origin regression)")
    _add_common(p)

    p = sub.add_parser("doss-replication",
                       help="paired naive/correct Cox study over simulated datasets")
    p.add_argument("--n-datasets", type=int, default=100)
    p.add_argument("--n-subjects", type=int, default=20)
    p.add_argument("--n-new", type=int, default=5)
    p.add_argument("--beta-true", type=float, default=0.5)
    p.add_argument("--censoring-rate", type=float, default=0.25)
    p.add_argument("--draws", type=int, default=2000)
    _add_common(p)

    return parser


def _binomial_observed(args) -> binomial.BinomialObserved:
    """The observed binomial data; a ``--p0`` or ``--p1`` outside (0, 1) is a usage error."""
    for flag in ("p0", "p1"):
        value = getattr(args, flag, None)
        if value is not None and not 0.0 < value < 1.0:
            raise ValidationError(f"--{flag} must lie in (0, 1); got {value!r}")
    return binomial.BinomialObserved(args.x, args.n_obs, args.n_missing)


def _cmd_binom_ri(args, report: Report) -> None:
    obs = _binomial_observed(args)
    model = binomial.binomial_model()
    for key in ("x", "n_obs", "n_missing", "p0", "p1", "draws"):
        report.add(f"input.{key}", getattr(args, key.replace("-", "_"), None))
    closed = binomial.ri1_closed_form(obs)
    report.add("result.ri1_closed_form", closed)
    exact = core.ri1(model, obs, args.p0, theta_alt=args.p1)
    report.add_result("result.ri1", exact)
    report.add("result.lod_observed_display",
               _scale(exact.diagnostics["lod_observed"], args.log10))
    report.add("result.lod_scale", "log10" if args.log10 else "ln")
    ri0 = core.ri0(model, obs, args.p0)
    report.add_result("result.ri0", ri0)
    if args.draws is not None:
        engine = mc.MCConfig(n_draws=args.draws, seed=args.seed)
        mc_result = core.ri1(model, obs, args.p0, engine, theta_alt=args.p1)
        report.add_result("result.ri1_monte_carlo", mc_result)


def _cmd_ri_y(args, report: Report) -> None:
    obs = _binomial_observed(args)
    model = binomial.binomial_model()
    for key in ("x", "n_obs", "n_missing", "p0", "p1", "draws"):
        report.add(f"input.{key}", getattr(args, key))
    # A bad --draws or --seed is refused first; then the exact ri1 refuses a
    # boundary MLE or a zero lod before any completion is drawn.
    mc.MCConfig(n_draws=args.draws, seed=args.seed)
    exact = core.ri1(model, obs, args.p0, theta_alt=args.p1)
    pair = core.HypothesisPair(theta_null=args.p0, theta_alt=args.p1)
    ratios, counts = core.ri_y_samples(model, obs, pair, args.draws, args.seed)
    try:
        ri_y = mc.estimate_from_values(ratios, counts)
    except EstimationFailureError:  # every draw is a sentinel
        ri_y = mc.MCEstimate(math.nan, math.nan, 0, args.draws)
    report.add("result.n_draws", ri_y.n_draws)
    report.add("result.sentinel_count", ri_y.sentinel_count)
    # Sentinel draws (complete-data lod 0) leave no finite ratio to average.
    report.add("result.ri_y_mean", ri_y.mean)
    report.add("result.ri_y_sd", ri_y.standard_error * math.sqrt(ri_y.n_effective)
               if ri_y.n_effective > 1 else math.nan)
    recip = mc.estimate_from_values(1.0 / ratios, counts)
    report.add("result.ri_y_reciprocal_mean", recip.mean)
    report.add("result.ri_y_reciprocal_se", recip.standard_error)
    report.add("result.ri1_inverse", 1.0 / exact.estimate)


def _cmd_lod_var(args, report: Report) -> None:
    obs = _binomial_observed(args)
    model = binomial.binomial_model()
    for key in ("x", "n_obs", "n_missing", "p0", "draws"):
        report.add(f"input.{key}", getattr(args, key))
    result = core.lod_ratio_variance(model, obs, args.p0, args.draws, args.seed)
    report.add_result("result.lod_ratio_variance", result)


def _cmd_cox_ri(args, report: Report) -> None:
    data = read_survival_csv(args.data)
    report.add("input.data", args.data)
    report.add("input.mode", args.mode)
    report.add("input.n_new", args.n_new)
    report.add("input.n_subjects", data.n)
    beta0 = None
    if args.beta0:
        beta0 = np.array(_parse_numbers(args.beta0, "--beta0"))
    z_new = _parse_new_covariates(args.new_covariates, args.n_new, data.covariate_dim)
    config = mc.MCConfig(n_draws=args.draws, seed=args.seed)
    fn = cox.ri1_cox_correct if args.mode == "correct" else cox.ri1_cox_naive
    result = fn(data, args.n_new, z_new, beta0, mc_config=config)
    report.add_result("result.ri1", result)
    if args.mode == "correct":
        report.warn("no baseline is used; a censored subject stays at risk through the "
                    "last failure at or before its time and leaves just after it "
                    "(Kalbfleisch-Prentice rank convention)")


def _cmd_combine(args, report: Report) -> None:
    raw = json.loads(_read_text(args.studies))
    if not (isinstance(raw, list) and all(isinstance(s, dict) for s in raw)):
        raise ValidationError(
            f"{args.studies}: must be a JSON list of {{label, lod_observed, ri1}} objects")
    for i, s in enumerate(raw):
        for key in ("lod_observed", "ri1"):
            if key not in s:
                raise ValidationError(f"{args.studies}: study {i} "
                                      f"({s.get('label', str(i))!r}) has no {key!r}")
    studies = [combine.StudySummary(lod_observed=s["lod_observed"], ri1=s["ri1"],
                                    label=s.get("label", str(i)))
               for i, s in enumerate(raw)]
    report.add("input.studies", args.studies)
    report.add("input.n_studies", len(studies))
    report.add("result.combined_ri1", combine.combine_weighted_harmonic(studies))
    report.warn("per-study lods must share one hypothesis pair "
                "(e.g. the pooled observed-data MLE) for the rule to be exact")


def _cmd_design_eval(args, report: Report) -> None:
    a = parse_design(args.design_a)
    b = parse_design(args.design_b)
    report.add("input.design_a", args.design_a)
    report.add("input.design_b", args.design_b)
    report.add("input.centered", args.centered)
    sa = design.sx(a, centered=args.centered)
    sb = design.sx(b, centered=args.centered)
    ratio = design.variance_ratio(a, b, centered=args.centered)
    report.add("result.sx_a", f"{sa} ({float(sa):.6f})" if isinstance(sa, Fraction) else sa)
    report.add("result.sx_b", f"{sb} ({float(sb):.6f})" if isinstance(sb, Fraction) else sb)
    report.add("result.variance_ratio", float(ratio))
    report.add("result.variance_ratio_percent", f"{float(ratio) * 100:.0f}%")


def _cmd_doss_replication(args, report: Report) -> None:
    study = cox.conditioning_anomaly_study(
        n_datasets=args.n_datasets, n_subjects=args.n_subjects, n_new=args.n_new,
        beta_true=args.beta_true, censoring_rate=args.censoring_rate,
        n_draws=args.draws, seed=args.seed)
    for key, value in study.params.items():
        report.add(f"input.{key}", value)
    ok = np.isfinite(study.naive_estimates)
    if not np.any(ok):
        raise EstimationFailureError(
            f"all {study.failures} simulated datasets failed to give a measure "
            "(separation, rank deficiency or too few events on every resimulation)")
    report.add("result.fraction_naive_above_one", study.fraction_naive_above_one)
    report.add("result.max_correct_excess_se", study.max_correct_excess_se)
    report.add("result.simulation_failures", study.failures)
    report.add("result.n_usable_datasets", int(ok.sum()))
    report.add("result.naive_ri1_max", float(np.max(study.naive_estimates[ok])))
    report.add("result.correct_ri1_max",
               float(np.max(study.correct_estimates[np.isfinite(study.correct_estimates)])))


_COMMANDS = {
    "binom-ri": _cmd_binom_ri,
    "ri-y": _cmd_ri_y,
    "lod-var": _cmd_lod_var,
    "cox-ri": _cmd_cox_ri,
    "combine": _cmd_combine,
    "design-eval": _cmd_design_eval,
    "doss-replication": _cmd_doss_replication,
}


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    report = Report(args.command, seed=getattr(args, "seed", None))
    try:
        _COMMANDS[args.command](args, report)
    except (ValidationError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except RelInfoError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    report.emit(getattr(args, "out", None))
    return 0


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()

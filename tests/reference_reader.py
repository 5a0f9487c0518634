"""A row-by-row survival CSV reader: the reference for ``cli.read_survival_csv``.

It checks and converts one row at a time, in file order, so its first
refusal is the first bad row by construction.  The package reader parses a
valid file in one pass over all cells and must agree with this one on every
file: the same arrays, or the same error.
"""

import math
from pathlib import Path

import numpy as np

from relinfo import cox
from relinfo.errors import ValidationError


def _raise_for_bad_cell(path, lineno, header, cells):
    """Raise for the first cell of a row that is not a finite number."""
    for col, cell in enumerate(cells, start=1):
        where = f"{path}:{lineno}: column {col} ({header[col - 1]})"
        try:
            value = float(cell)
        except ValueError as exc:
            raise ValidationError(f"{where}: not a number: {cell.strip()!r}") from exc
        if not math.isfinite(value):
            raise ValidationError(f"{where}: not a finite number: {cell.strip()!r}")


def read_survival_csv(path):
    lines = Path(path).read_text(encoding="utf-8-sig").splitlines()
    if not lines:
        raise ValidationError(f"{path}: empty file")
    header = [h.strip() for h in lines[0].split(",")]
    if len(header) < 3 or header[0] != "time" or header[1] != "status":
        raise ValidationError(f"{path}:1: header must be time,status,cov1..covK")
    times, status, covs = [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValidationError(
                f"{path}:{lineno}: expected {len(header)} columns, got {len(cells)}")
        try:
            row = [float(cell) for cell in cells]
        except ValueError:
            row = None
        if row is None or not all(map(math.isfinite, row)):
            _raise_for_bad_cell(path, lineno, header, cells)
        if row[0] <= 0:
            raise ValidationError(f"{path}:{lineno}: column 1 (time): must be positive")
        times.append(row[0])
        if row[1] not in (0.0, 1.0):
            raise ValidationError(f"{path}:{lineno}: column 2 (status): must be 0 or 1")
        status.append(int(row[1]))
        covs.append(row[2:])
    if not times:
        raise ValidationError(f"{path}: no data rows")
    return cox.SurvivalDataset.from_arrays(times, status, np.array(covs))

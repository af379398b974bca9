"""Deterministic CSV emission and lattice layout; the one place that writes CSV.

A destination is either a path, which is opened as UTF-8 and closed here,
or an open text stream, which is borrowed and left open.
"""

from __future__ import annotations

import csv
import os

import numpy as np


def _format_cell(value):
    # csv.writer writes None as empty, an int by str and a float by repr.
    if isinstance(value, np.generic):
        value = value.item()
    return ("false", "true")[value] if isinstance(value, bool) else value


def emit_csv(rows, destination, columns) -> None:
    """Write header + rows as CSV: newline-terminated, '.' decimal points.

    Rows are plain sequences in column order, such as the row NamedTuples of
    experiments, written as they are drawn from any iterable. Output is
    byte-stable for identical inputs.
    """
    if isinstance(destination, (str, os.PathLike)):
        with open(destination, "w", newline="", encoding="utf-8") as handle:
            return emit_csv(rows, handle, columns)
    writer = csv.writer(destination, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_format_cell(v) for v in row])


def emit_lattice_csv(blocks, destination, dimension: int, columns) -> None:
    """Columns k_0..k_D, then ``columns``, from consecutive (indices, values) blocks of a
    lattice: (rows, D+1) integer indices beside a scalar or row of values per index row."""
    header = [f"k_{j}" for j in range(dimension + 1)] + list(columns)
    rows = (k.tolist() + v.tolist() for indices, values in blocks
            for k, v in zip(np.asarray(indices), np.asarray(values).reshape(len(indices), -1)))
    emit_csv(rows, destination, header)

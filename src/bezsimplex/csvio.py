"""Deterministic CSV emission and lattice layout; the one place that opens CSV files.

A destination or source is either a path, which is opened as UTF-8 and
closed here, or an open text stream, which is borrowed and left open.
"""

from __future__ import annotations

import csv
import os
from contextlib import contextmanager

import numpy as np


@contextmanager
def open_csv(target, mode: str):
    """The text handle for a path (opened, then closed) or a stream (borrowed)."""
    if isinstance(target, (str, os.PathLike)):
        with open(target, mode, newline="", encoding="utf-8") as handle:
            yield handle
    else:
        yield target


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def emit_csv(rows, destination, columns) -> None:
    """Write header + rows as CSV: newline-terminated, '.' decimal points.

    Rows may be dataclass instances (fields looked up by column name) or
    plain sequences matching the column order. Output is byte-stable for
    identical inputs.
    """
    def cells(row):
        if hasattr(row, "__dataclass_fields__"):
            return [getattr(row, name) for name in columns]
        return list(row)

    with open_csv(destination, "w") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(v) for v in cells(row)])


def emit_lattice_csv(indices, values, destination, columns) -> None:
    """Columns k_0..k_D, then ``columns`` from a scalar or row of ``values`` per index row."""
    values = np.asarray(values).reshape(len(indices), -1)
    header = [f"k_{j}" for j in range(indices.shape[1])] + list(columns)
    emit_csv([tuple(k) + tuple(v) for k, v in zip(indices, values)], destination, header)

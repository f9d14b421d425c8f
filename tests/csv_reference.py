"""The line-by-line CSV parser that ``softmapper.data.load_csv`` used before
it handed its rows to numpy's reader, kept as the reference its inputs are
checked against: the same points bit for bit, or the same FormatError.
"""

from itertools import repeat

import numpy as np

from softmapper.data import FormatError, PointCloud


def load_csv(path, has_header: bool = False) -> PointCloud:
    with open(path, "r", encoding="utf-8-sig") as fh:
        lines = [ln.strip() for ln in fh]
    linenos = [i for i, ln in enumerate(lines, 1) if ln]
    if has_header:
        linenos = linenos[1:]
    if not linenos:
        raise FormatError(f"{path}: no data rows")
    rows = [lines[i - 1] for i in linenos]
    commas = np.fromiter(map(str.count, rows, repeat(",")), int, len(rows))
    ragged = np.flatnonzero(commas != commas[0])
    n = int(ragged[0]) if ragged.size else len(rows)
    try:
        cells = np.fromiter(map(float, ",".join(rows[:n]).split(",")), float)
    except ValueError:
        for lineno, row in zip(linenos, rows):
            try:
                list(map(float, row.split(",")))
            except ValueError:
                raise FormatError(f"{path}: non-numeric cell at line {lineno}") from None
    if n < len(rows):
        raise FormatError(
            f"{path}: line {linenos[n]} has {commas[n] + 1} columns, expected {commas[0] + 1}"
        )
    return PointCloud(cells.reshape(n, -1))

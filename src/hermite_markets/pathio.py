"""Flat-file exchange formats: path ensembles as CSV plus a JSON sidecar.

The CSV layout is one time column ``t`` followed by one column per path
(``p0``, ``p1``, ...), every number rendered with %.17g so a written file
round-trips bit for bit.  The sidecar at ``<name>.json`` carries whatever
metadata is needed to regenerate the file, and readers merge it back into
the path's ``meta``.
"""

import json
import os

import numpy as np

from .processes import SamplePath

__all__ = [
    "PathFormatError",
    "write_path_csv",
    "write_sidecar",
    "read_sidecar",
    "read_path_csv",
    "write_surface_csv",
]


class PathFormatError(ValueError):
    """A path CSV failed validation; the message carries the line number."""


def _write_table(filename, label, times, table):
    """Write ``t,<label>0,<label>1,...`` then one row per time, %.17g.

    Rows are converted to Python floats one at a time, so the memory this
    takes does not grow with the table.
    """
    table = np.asarray(table, dtype=float)
    width = table.shape[1]
    line = ",".join(["%.17g"] * (width + 1)) + "\n"
    with open(filename, "w") as fh:
        fh.write("t," + ",".join(f"{label}{i}" for i in range(width)) + "\n")
        fh.writelines(line % (t, *row.tolist())
                      for t, row in zip(np.asarray(times, dtype=float).tolist(), table, strict=True))


def write_path_csv(path, filename):
    """Write a SamplePath ensemble as ``t,p0,p1,...`` rows."""
    _write_table(filename, "p", path.times, path.values.T)


def write_sidecar(filename, payload):
    """Write the JSON sidecar next to ``filename`` and return its name."""
    sidecar = f"{filename}.json"
    with open(sidecar, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return sidecar


def read_sidecar(filename):
    """Load the JSON sidecar for ``filename``; None when absent.

    A sidecar that is not a JSON object raises PathFormatError naming it.
    """
    sidecar = f"{filename}.json"
    if not os.path.exists(sidecar):
        return None
    with open(sidecar) as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:
            raise PathFormatError(f"{sidecar}: not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise PathFormatError(f"{sidecar}: must hold a JSON object, got {type(payload).__name__}")
    return payload


def read_path_csv(filename):
    """Read a path ensemble back, validating the grid as it goes.

    The header must start with ``t``, every row must parse as floats of
    consistent width, every value must be finite, and the time column must
    be a uniform grid starting at zero.  Violations raise PathFormatError
    naming the offending line, or the sidecar when its ``seed`` is not an
    integer.  The file is read a line at a time and each
    row parsed into one float array, so the text is never held whole.
    """
    with open(filename) as fh:
        header = fh.readline()
        if not header:
            raise PathFormatError("line 1: empty file")
        header = header.rstrip("\n").split(",")
        if header[0] != "t" or len(header) < 2:
            raise PathFormatError("line 1: header must be t,p0,p1,...")
        n_cols = len(header)
        rows = []
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            cells = line.rstrip("\n").split(",")
            if len(cells) != n_cols:
                raise PathFormatError(
                    f"line {lineno}: expected {n_cols} columns, found {len(cells)}")
            try:
                row = np.array(cells, dtype=float)
            except ValueError as exc:
                raise PathFormatError(f"line {lineno}: {exc}") from None
            finite = np.isfinite(row)
            if not finite.all():
                col = int(np.argmin(finite))
                raise PathFormatError(
                    f"line {lineno}: {header[col]} is not finite: {cells[col]!r}")
            rows.append(row)
    if len(rows) < 2:
        raise PathFormatError("line 2: need at least two time rows")
    times = np.array([row[0] for row in rows])
    values = np.array([row[1:] for row in rows]).T
    if abs(times[0]) > 1e-12:
        raise PathFormatError("line 2: time grid must start at 0")
    dt = times[1] - times[0]
    if dt <= 0:
        raise PathFormatError("line 3: time grid must increase")
    expected = times[0] + dt * np.arange(len(times))
    bad = np.abs(times - expected) > 1e-9 * max(1.0, abs(times[-1]))
    if bad.any():
        raise PathFormatError(f"line {int(np.argmax(bad)) + 2}: time grid not uniform")
    meta = read_sidecar(filename) or {}
    try:
        seed = int(meta.get("seed", 0))
    except (TypeError, ValueError, OverflowError):
        raise PathFormatError(
            f"{filename}.json: seed must be an integer, got {meta['seed']!r}") from None
    return SamplePath(horizon=float(times[-1]), steps=len(times) - 1,
                      values=values, seed=seed, meta=meta)


def write_surface_csv(surface, filename):
    """Write a PdeSurface as rows of time against the price nodes.

    Columns are named x0, x1, ...; the actual node prices go into the
    sidecar (written separately by the caller) since column labels have
    no room for them.
    """
    _write_table(filename, "x", surface.times, surface.values)

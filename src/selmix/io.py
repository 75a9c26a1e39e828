"""File formats: CSV datasets, newline-delimited JSON traces, summaries.

Traces are one JSON object per retained sample with keys m, m_a, alloc,
gamma, zeta and optionally weights.  Allocation labels are 1-based on disk
(1..m) and 0-based in memory; floats round-trip losslessly because JSON
serialization uses the shortest exact decimal representation.
"""

from __future__ import annotations

import csv
import json

import numpy as np

from .analysis import PosteriorTrace

__all__ = [
    "read_dataset",
    "write_dataset",
    "write_trace",
    "read_trace",
    "write_matrix_csv",
    "write_json",
    "read_json",
]

TRACE_KEYS = ("m", "m_a", "alloc", "gamma", "zeta")


def read_dataset(path):
    """Load a numeric CSV with one header row into an (n, d) array.

    Raises ValueError naming the offending file row and column (both
    1-based, the header being row 1) for non-numeric cells, and for ragged
    or empty files.
    """
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or not header:
            raise ValueError(f"{path}: empty file")
        width = len(header)
        for file_row, cells in enumerate(reader, start=2):
            if len(cells) != width:
                raise ValueError(
                    f"{path}: row {file_row} has {len(cells)} cells, expected {width}"
                )
            parsed = []
            for col, cell in enumerate(cells, start=1):
                try:
                    value = float(cell)
                except ValueError:
                    raise ValueError(
                        f"{path}: non-numeric value {cell!r} at row {file_row}, column {col}"
                    ) from None
                if not np.isfinite(value):
                    raise ValueError(
                        f"{path}: non-finite value at row {file_row}, column {col}"
                    )
                parsed.append(value)
            rows.append(parsed)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return np.asarray(rows, dtype=float)


def write_dataset(path, y, header=None):
    y = np.atleast_2d(np.asarray(y, dtype=float))
    if header is None:
        header = [f"x{j + 1}" for j in range(y.shape[1])]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in y:
            writer.writerow([repr(float(v)) for v in row])


def write_trace(path, trace):
    """Serialize a trace as newline-delimited JSON (1-based labels on disk)."""
    with open(path, "w") as fh:
        for i in range(trace.n_samples):
            record = {
                "m": int(trace.m[i]),
                "m_a": int(trace.m_allocated[i]),
                "alloc": [int(a) + 1 for a in trace.alloc[i]],
                "gamma": float(trace.gamma[i]),
                "zeta": float(trace.zeta[i]),
            }
            if trace.weights is not None:
                record["weights"] = [float(w) for w in trace.weights[i]]
            fh.write(json.dumps(record) + "\n")


def read_trace(path):
    """Load a newline-delimited JSON trace back into a PosteriorTrace."""
    m, m_a, alloc, gamma, zeta = [], [], [], [], []
    weights = []
    have_weights = None
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: bad JSON on line {line_no}: {exc}") from None
            if have_weights is None:
                have_weights = "weights" in rec
            for key in TRACE_KEYS + (("weights",) if have_weights else ()):
                if key not in rec:
                    raise ValueError(f"{path}: line {line_no}: missing key {key!r}")
            labels = np.asarray(rec["alloc"], dtype=np.int64) - 1
            if labels.size and (labels.min() < 0 or labels.max() >= rec["m"]):
                raise ValueError(f"{path}: line {line_no}: labels outside 1..m")
            if alloc and labels.size != alloc[0].size:
                raise ValueError(
                    f"{path}: line {line_no}: alloc has {labels.size} labels, "
                    f"the first record has {alloc[0].size}"
                )
            m.append(int(rec["m"]))
            m_a.append(int(rec["m_a"]))
            alloc.append(labels)
            gamma.append(float(rec["gamma"]))
            zeta.append(float(rec["zeta"]))
            if have_weights:
                weights.append(np.asarray(rec["weights"], dtype=float))
    if not m:
        raise ValueError(f"{path}: empty trace")
    return PosteriorTrace(
        m=np.asarray(m, dtype=np.int64),
        m_allocated=np.asarray(m_a, dtype=np.int64),
        alloc=np.vstack(alloc),
        gamma=np.asarray(gamma),
        zeta=np.asarray(zeta),
        weights=weights if have_weights else None,
    )


def write_matrix_csv(path, mat, denominator=None):
    """Write a matrix as plain CSV without a header (used for the PSM).

    Cells are ``repr(float(v))`` and lines end in ``\r\n``, as the csv
    module writes them.  With ``denominator`` T, every entry must be c / T
    for an integer c in 0..T (a co-allocation frequency over T draws); rows
    are then written by indexing a table of the T + 1 cell strings, which
    gives the same bytes without formatting every cell.
    """
    mat = np.atleast_2d(np.asarray(mat))
    with open(path, "w", newline="") as fh:
        if denominator is None:
            writer = csv.writer(fh)
            for row in mat:
                writer.writerow([repr(float(v)) for v in row])
            return
        cells = np.array([repr(float(c / denominator)) for c in range(denominator + 1)], dtype=object)
        for row in mat:
            counts = np.rint(row * denominator)
            if not (
                np.array_equal(counts / denominator, row)
                and 0 <= counts.min()
                and counts.max() <= denominator
            ):
                raise ValueError(f"{path}: entries are not multiples of 1/{denominator} in [0, 1]")
            fh.write(",".join(cells[counts.astype(np.intp)]) + "\r\n")


def write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path):
    with open(path) as fh:
        return json.load(fh)

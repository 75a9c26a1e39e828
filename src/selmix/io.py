"""File formats: CSV datasets and matrices, newline-delimited JSON traces, summaries.

Traces are one JSON object per retained sample with keys m, m_a, alloc,
gamma, zeta and optionally weights.  Allocation labels are 1-based on disk
(1..m) and 0-based in memory; floats round-trip losslessly because JSON
serialization uses the shortest exact decimal representation.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

from .analysis import PosteriorTrace
from .distributions import validate_weights

__all__ = [
    "read_dataset",
    "write_dataset",
    "write_trace",
    "read_trace",
    "write_matrix_csv",
    "write_psm_csv",
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
                if not math.isfinite(value):
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
        csv.writer(fh).writerow(header)
        _write_rows(fh, y)


def write_trace(path, trace):
    """Serialize a trace as newline-delimited JSON (1-based labels on disk)."""
    with open(path, "w") as fh:
        for i in range(trace.n_samples):
            record = {
                "m": int(trace.m[i]),
                "m_a": int(trace.m_allocated[i]),
                "alloc": (trace.alloc[i] + 1).tolist(),
                "gamma": float(trace.gamma[i]),
                "zeta": float(trace.zeta[i]),
            }
            if trace.weights is not None:
                record["weights"] = np.asarray(trace.weights[i], dtype=float).tolist()
            fh.write(json.dumps(record) + "\n")


def read_trace(path):
    """Load a newline-delimited JSON trace back into a PosteriorTrace.

    Every line must be a JSON object the sampler writes: ``m`` a positive
    integer below 2**63, ``alloc`` a list of integer labels in 1..m (empty
    for a chain without data), ``m_a`` the number of distinct labels,
    ``gamma`` and ``zeta`` finite numbers, and ``weights``, on every record
    or none, m numbers that ``distributions.validate_weights`` accepts.
    Each ValueError names the file, the line and the key.  The file is read
    once, so a pipe will do: the labels go straight into one (T, n) array,
    which doubles its rows in place (a realloc) as records come in and is
    cut to T rows at the end.
    """
    m, m_a, gamma, zeta, weights = [], [], [], [], []
    alloc = None
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
            where = f"{path}: line {line_no}"
            if type(rec) is not dict:
                raise ValueError(f"{where}: a record must be a JSON object")
            if have_weights is None:
                have_weights = "weights" in rec
            elif not have_weights and "weights" in rec:
                raise ValueError(f"{where}: 'weights' recorded, the first record has none")
            for key in TRACE_KEYS + (("weights",) if have_weights else ()):
                if key not in rec:
                    raise ValueError(f"{where}: missing key {key!r}")
            m_rec, alloc_rec = rec["m"], rec["alloc"]
            if type(m_rec) is not int or not 1 <= m_rec < 2**63:
                raise ValueError(f"{where}: 'm' must be a positive integer below 2**63")
            # JSON true and false load as bools, which are ints to isinstance
            if type(alloc_rec) is not list or not set(map(type, alloc_rec)) <= {int}:
                raise ValueError(f"{where}: 'alloc' must be a list of integer labels")
            if alloc is None:
                alloc = np.empty((16, len(alloc_rec)), dtype=np.int64)
            elif len(alloc_rec) != alloc.shape[1]:
                raise ValueError(
                    f"{where}: alloc has {len(alloc_rec)} labels, "
                    f"the first record has {alloc.shape[1]}"
                )
            # the distinct labels are checked as Python ints, before a label
            # beyond int64 can reach a conversion
            labels = set(alloc_rec)
            if labels and not (min(labels) >= 1 and max(labels) <= m_rec):
                raise ValueError(f"{where}: 'alloc' labels outside 1..m")
            distinct = len(labels)
            if type(rec["m_a"]) is not int or rec["m_a"] != distinct:
                raise ValueError(
                    f"{where}: 'm_a' must equal the number of distinct labels, {distinct}")
            for key in ("gamma", "zeta"):
                if not _is_finite_number(rec[key]):
                    raise ValueError(f"{where}: {key!r} must be a finite number")
            if have_weights:
                try:
                    weights.append(_weight_vector(rec["weights"], m_rec))
                except ValueError:
                    raise ValueError(f"{where}: 'weights' must be {m_rec} numbers in [0, 1] "
                                     "that sum to 1") from None
            if len(m) == len(alloc):
                alloc.resize((2 * len(alloc), alloc.shape[1]), refcheck=False)
            alloc[len(m)] = alloc_rec
            m.append(m_rec)
            m_a.append(distinct)
            gamma.append(float(rec["gamma"]))
            zeta.append(float(rec["zeta"]))
    if not m:
        raise ValueError(f"{path}: empty trace")
    alloc.resize((len(m), alloc.shape[1]), refcheck=False)
    alloc -= 1  # 1-based on disk
    return PosteriorTrace(
        m=np.asarray(m, dtype=np.int64),
        m_allocated=np.asarray(m_a, dtype=np.int64),
        alloc=alloc,
        gamma=np.asarray(gamma),
        zeta=np.asarray(zeta),
        weights=weights if have_weights else None,
    )


def _is_finite_number(value):
    """True for a JSON number (not a bool) with a finite float value."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _weight_vector(value, m):
    """``value``, a JSON list of finite numbers, as the simplex point of m
    weights it must be (``validate_weights``); else ValueError."""
    if type(value) is not list or not all(map(_is_finite_number, value)):
        raise ValueError("weights must be a list of finite numbers")
    return validate_weights(value, m)


def _write_rows(fh, mat):
    """Write ``mat`` (a 1-D array is one row) as CSV lines of ``repr(float(v))``
    cells: a float's repr needs no quoting, so these are ``csv.writer``'s bytes."""
    fh.writelines(",".join(map(repr, row.tolist())) + "\r\n"
                  for row in np.atleast_2d(np.asarray(mat, dtype=float)))


def write_matrix_csv(path, mat):
    """Write a matrix as plain CSV without a header (used for the Binder
    partition), its rows as ``write_dataset`` writes them."""
    with open(path, "w", newline="") as fh:
        _write_rows(fh, mat)


def write_psm_csv(path, counts, group, denominator):
    """Write ``counts[np.ix_(group, group)] / T`` (T = ``denominator``, the
    arrays of ``analysis.partition_summary``) as ``write_matrix_csv`` would.

    Rows of one group are equal, so each group's line is joined once from a
    table of the T + 1 cell strings and kept only until the group's last
    row.  A written count that is not an integer in 0..T raises ValueError.
    """
    cells = np.array([repr(float(c / denominator)) for c in range(denominator + 1)], dtype=object)
    last = {g: i for i, g in enumerate(group.tolist())}
    kept = {}  # group -> its line, while a later row of the group is to come
    with open(path, "w", newline="") as fh:
        for i, g in enumerate(group.tolist()):
            line = kept.pop(g, None)
            if line is None:
                row = counts[g, group]
                if not np.array_equal(row, np.clip(np.rint(row), 0, denominator)):
                    raise ValueError(f"{path}: counts are not integers in 0..{denominator}")
                line = ",".join(cells[row.astype(np.intp)]) + "\r\n"
            if last[g] > i:
                kept[g] = line
            fh.write(line)


def write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def read_json(path):
    with open(path) as fh:
        return json.load(fh)

"""Structural checks on what ``selmix fit`` and ``selmix analyze`` write.

Every check raises ``CheckError`` with a message naming the file.  None of
them asserts anything about cluster recovery, which depends on mixing.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

FIT_SUMMARY_KEYS = {"acceptance_rates", "chains", "ma_histogram", "n_chains", "seed"}
MANIFEST_KEYS = {"chains", "data", "rng", "seed", "version"}
ANALYZE_SUMMARY_KEYS = {"ma_histogram", "mean_gamma", "mean_m", "mean_m_a", "mean_zeta", "n_samples"}


class CheckError(ValueError):
    """An output broke the contract the benchmark checks."""


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _require(condition, message):
    if not condition:
        raise CheckError(message)


def _read_json_keys(path, keys):
    with open(path) as fh:
        payload = json.load(fh)
    missing = keys - payload.keys()
    _require(not missing, f"{path}: missing keys {sorted(missing)}")
    return payload


def check_trace(path, trace, n_obs):
    """Labels in 1..m on disk (0..m-1 in memory) and m_a = distinct labels, every draw."""
    alloc = trace.alloc
    _require(alloc.shape == (trace.n_samples, n_obs), f"{path}: alloc has shape {alloc.shape}")
    _require(alloc.min() >= 0 and np.all(alloc.max(axis=1) < trace.m), f"{path}: labels outside 1..m")
    ordered = np.sort(alloc, axis=1)
    distinct = 1 + (np.diff(ordered, axis=1) != 0).sum(axis=1)
    bad = np.flatnonzero(distinct != trace.m_allocated)
    _require(bad.size == 0, f"{path}: m_a differs from the distinct label count in draw {bad[:1]}")


def check_fit_outputs(out_dir, chains):
    summary = _read_json_keys(out_dir / "summary.json", FIT_SUMMARY_KEYS)
    _require(summary["n_chains"] == chains, f"{out_dir}/summary.json: n_chains is {summary['n_chains']}")
    _read_json_keys(out_dir / "manifest.json", MANIFEST_KEYS)


def check_psm(path, n_obs):
    """Symmetric, unit diagonal, entries in [0, 1]."""
    psm = np.loadtxt(path, delimiter=",", ndmin=2)
    _require(psm.shape == (n_obs, n_obs), f"{path}: shape {psm.shape}, expected {(n_obs, n_obs)}")
    _require(np.array_equal(psm, psm.T), f"{path}: not symmetric")
    _require(np.all(np.diag(psm) == 1.0), f"{path}: diagonal is not 1")
    _require(psm.min() >= 0.0 and psm.max() <= 1.0, f"{path}: entries outside [0, 1]")


def check_binder(path, alloc):
    """The reported partition is one of the sampled rows (1-based on disk)."""
    partition = np.loadtxt(path, delimiter=",", ndmin=2)
    _require(partition.shape == (1, alloc.shape[1]), f"{path}: shape {partition.shape}")
    _require(
        bool(np.any(np.all(alloc + 1 == partition, axis=1))),
        f"{path}: partition is not one of the sampled draws",
    )


def check_analyze_outputs(out_dir, alloc):
    check_psm(out_dir / "psm.csv", alloc.shape[1])
    check_binder(out_dir / "binder.csv", alloc)
    summary = _read_json_keys(out_dir / "summary.json", ANALYZE_SUMMARY_KEYS)
    _require(
        summary["n_samples"] == alloc.shape[0],
        f"{out_dir}/summary.json: n_samples {summary['n_samples']}, expected {alloc.shape[0]}",
    )

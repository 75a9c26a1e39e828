"""File formats and the command-line interface."""

import dataclasses
import gc
import json
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import helpers as H
from selmix import __version__
from selmix.analysis import PosteriorTrace, prior_ma_simulation
from selmix.cli import cli_dispatch, hyperparams_from_dict
from selmix.ensemble import GeParams, ge_log_density, ge_log_norm_const
from selmix.io import (
    read_dataset,
    read_json,
    read_trace,
    write_dataset,
    write_json,
    write_matrix_csv,
    write_psm_csv,
    write_trace,
)
from selmix.model import shifted_poisson_log_pmf
from selmix.planted import simulate_benchmark
from selmix.sampler import SamplerConfig, run_sampler
from selmix.selberg import (
    SdirParams,
    internal_dispersion_expectation,
    sdir_log_density,
    sdir_log_norm_const,
    sdir_moments,
)


def tall_data():
    """The ``tall`` workload's data, from ``bench/workloads.py``."""
    bench = str(Path(__file__).resolve().parents[1] / "bench")
    sys.path.insert(0, bench)
    try:
        from workloads import make_tall
    finally:
        sys.path.remove(bench)
    return make_tall(1)


# (data, header) given to ``write_dataset``, as ``simulate``, the bench and callers do
DATASET_CASES = {
    "planted": lambda: (simulate_benchmark(7)[0], None),
    "tall": lambda: (tall_data(), None),
    "special-values": lambda: (
        [[0.0, -0.0, 5e-324, 1e300, float("inf"), -float("inf"), float("nan")]], None),
    "1-D": lambda: (np.arange(5) / 3.0, None),
    "labels": lambda: ((simulate_benchmark(7)[1] + 1).reshape(-1, 1).astype(float), ["label"]),
    "comma-header": lambda: (np.random.default_rng(2).normal(size=(4, 2)), ["a,b", 'say "c"']),
}


class TestDatasetFiles:
    @pytest.mark.parametrize("case", list(DATASET_CASES))
    def test_bytes_are_csv_writers(self, tmp_path, case):
        y, header = DATASET_CASES[case]()
        write_dataset(tmp_path / "got.csv", y, header=header)
        H.write_dataset_ref(tmp_path / "want.csv", y, header=header)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_round_trip(self, tmp_path):
        y = np.random.default_rng(1).normal(size=(17, 3))
        path = tmp_path / "data.csv"
        write_dataset(path, y)
        back = read_dataset(path)
        np.testing.assert_array_equal(back, y)

    def test_non_numeric_cell_names_position(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2\n1.0,2.0\n3.0,oops\n")
        with pytest.raises(ValueError, match=r"row 3.*column 2"):
            read_dataset(path)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("x1,x2\n1.0,2.0\n3.0\n")
        with pytest.raises(ValueError):
            read_dataset(path)

    def test_missing_values_rejected(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("x1\n1.0\nnan\n")
        with pytest.raises(ValueError):
            read_dataset(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("x1\n")
        with pytest.raises(ValueError):
            read_dataset(path)

    def test_file_without_a_header_rejected(self, tmp_path):
        path = tmp_path / "nothing.csv"
        path.write_text("")
        with pytest.raises(ValueError, match=r"nothing\.csv: empty file$"):
            read_dataset(path)


class TestTraceFiles:
    def make_trace(self):
        rng = np.random.default_rng(2)
        t, n = 6, 5
        m = rng.integers(2, 5, size=t)
        alloc = rng.integers(0, 2, size=(t, n))
        return PosteriorTrace(
            m=m,
            m_allocated=np.array([np.unique(row).size for row in alloc]),
            alloc=alloc,
            gamma=rng.uniform(0.5, 2.0, size=t),
            zeta=rng.uniform(0.1, 1.0, size=t),
            weights=[rng.dirichlet(np.ones(k)) for k in m],
        )

    def test_round_trip(self, tmp_path):
        trace = self.make_trace()
        path = tmp_path / "trace.ndjson"
        write_trace(path, trace)
        back = read_trace(path)
        np.testing.assert_array_equal(back.m, trace.m)
        np.testing.assert_array_equal(back.m_allocated, trace.m_allocated)
        np.testing.assert_array_equal(back.alloc, trace.alloc)
        np.testing.assert_allclose(back.gamma, trace.gamma, rtol=1e-15)
        np.testing.assert_allclose(back.zeta, trace.zeta, rtol=1e-15)
        for a, b in zip(back.weights, trace.weights):
            np.testing.assert_allclose(a, b, rtol=1e-15)

    def test_zero_observation_round_trip(self, tmp_path):
        # a chain without data records empty allocations; they read back as
        # one empty int64 row per draw
        trace = dataclasses.replace(self.make_trace(), alloc=np.empty((6, 0), dtype=np.int64),
                                    m_allocated=np.zeros(6, dtype=np.int64))
        path = tmp_path / "nodata.ndjson"
        write_trace(path, trace)
        back = read_trace(path)
        assert back.alloc.shape == (6, 0)
        assert back.alloc.dtype == np.int64
        np.testing.assert_array_equal(back.m, trace.m)

    def test_labels_are_held_once(self, tmp_path):
        # read_trace fills one (T, n) array; stacking one array per record
        # at the end held every label twice
        rng = np.random.default_rng(3)
        alloc = rng.integers(0, 3, size=(400, 1000))
        trace = PosteriorTrace(m=np.full(400, 3), m_allocated=np.full(400, 3), alloc=alloc,
                               gamma=np.ones(400), zeta=np.ones(400), weights=None)
        path = tmp_path / "long.ndjson"
        write_trace(path, trace)
        tracemalloc.start()
        try:
            back = read_trace(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(back.alloc, alloc, strict=True)
        assert peak < 1.5 * alloc.nbytes

    def test_trace_read_through_a_pipe(self, tmp_path):
        # the file is read once, so a trace streamed through a pipe loads;
        # 37 records take the label array past two doublings
        rng = np.random.default_rng(4)
        alloc = rng.integers(0, 3, size=(37, 8))
        trace = PosteriorTrace(m=np.full(37, 3), m_allocated=np.array([np.unique(row).size
                                                                         for row in alloc]),
                               alloc=alloc, gamma=rng.uniform(0.5, 2.0, size=37),
                               zeta=np.ones(37), weights=None)
        path, fifo = tmp_path / "trace.ndjson", tmp_path / "pipe"
        write_trace(path, trace)
        os.mkfifo(fifo)
        got = {}

        def read():
            try:
                got["trace"] = read_trace(fifo)
            except Exception as exc:
                got["error"] = exc

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        with open(fifo, "w") as fh:
            fh.write(path.read_text())
        reader.join(timeout=30)
        if reader.is_alive():  # a second open waits for a writer: give it one
            with open(fifo, "w"):
                pass
            reader.join()
            pytest.fail("read_trace opened the pipe twice")
        assert "error" not in got, got.get("error")
        np.testing.assert_array_equal(got["trace"].alloc, alloc, strict=True)
        np.testing.assert_array_equal(got["trace"].gamma, trace.gamma)

    def test_labels_are_one_based_on_disk(self, tmp_path):
        trace = self.make_trace()
        path = tmp_path / "trace.ndjson"
        write_trace(path, trace)
        first = json.loads(path.read_text().splitlines()[0])
        assert min(first["alloc"]) >= 1

    def test_zero_label_on_disk_rejected(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_text('{"m": 2, "m_a": 1, "alloc": [0, 1], "gamma": 1.0, "zeta": 1.0}\n')
        with pytest.raises(ValueError):
            read_trace(path)

    def test_broken_line_reports_position(self, tmp_path):
        path = tmp_path / "broken.ndjson"
        path.write_text('{"m": 2, "m_a": 1, "alloc": [1, 1], "gamma": 1.0, "zeta": 1.0}\nnot json\n')
        with pytest.raises(ValueError, match="line 2"):
            read_trace(path)

    def write_records(self, path, *records):
        path.write_text("".join(json.dumps(rec) + "\n" for rec in records))
        return path

    RECORD = {"m": 2, "m_a": 1, "alloc": [1, 1], "gamma": 1.0, "zeta": 1.0}

    def test_blank_lines_are_skipped(self, tmp_path):
        record = json.dumps(self.RECORD)
        path = tmp_path / "blank.ndjson"
        path.write_text(f"\n{record}\n  \t\n{record}\n\nnot json\n")
        # the broken line is still counted among all the file's lines
        with pytest.raises(ValueError, match="line 6"):
            read_trace(path)
        path.write_text(f"\n{record}\n  \t\n{record}\n\n")
        np.testing.assert_array_equal(read_trace(path).alloc, [[0, 0], [0, 0]], strict=True)

    def test_blank_lines_alone_are_an_empty_trace(self, tmp_path):
        path = tmp_path / "blank.ndjson"
        path.write_text("\n  \n\t\n")
        with pytest.raises(ValueError, match=r"blank\.ndjson: empty trace$"):
            read_trace(path)

    def test_missing_key_reports_file_line_and_key(self, tmp_path):
        for key in self.RECORD:
            broken = {k: v for k, v in self.RECORD.items() if k != key}
            path = self.write_records(tmp_path / "missing.ndjson",
                                      self.RECORD, self.RECORD, broken)
            with pytest.raises(ValueError, match=f"missing.ndjson: line 3: missing key '{key}'"):
                read_trace(path)

    # values the sampler never writes: m not a positive integer below 2**63,
    # a label not an integer in 1..m, m_a not the number of distinct labels,
    # a scale not finite (a huge m, label or scale once stopped analyze with
    # "Python int too large to convert", naming no file, line or key)
    @pytest.mark.parametrize("key,value", [
        ("m", 0), ("m", -1), ("m", 2.7), ("m", 2.0), ("m", True), ("m", "2"),
        ("alloc", [1.5, 1]), ("alloc", [1, True]), ("alloc", [1, "1"]), ("alloc", "11"),
        ("m_a", 2), ("m_a", 0), ("m_a", 1.0), ("m_a", True),
        ("gamma", float("nan")), ("gamma", float("inf")), ("gamma", -float("inf")),
        ("gamma", True), ("gamma", "1.0"),
        ("zeta", float("nan")), ("zeta", float("inf")), ("zeta", None),
        ("m", 10**20), ("m", 2**63), ("alloc", [1, 10**20]), ("gamma", 10**400),
    ])
    def test_unwritable_value_reports_file_line_and_key(self, tmp_path, key, value):
        broken = dict(self.RECORD, **{key: value})
        path = self.write_records(tmp_path / "unwritable.ndjson", self.RECORD, broken)
        with pytest.raises(ValueError, match=f"unwritable.ndjson: line 2: '{key}'"):
            read_trace(path)

    @pytest.mark.parametrize("line", ["5", '"record"', "[2, 1, [1, 1], 1.0, 1.0]"])
    def test_line_that_is_not_an_object_reports_file_and_line(self, tmp_path, line):
        # such a line once stopped analyze with "argument of type 'int' is not
        # iterable", naming no file or line
        path = tmp_path / "scalar.ndjson"
        path.write_text(json.dumps(self.RECORD) + "\n" + line + "\n")
        with pytest.raises(ValueError, match="scalar.ndjson: line 2: a record must be a JSON object"):
            read_trace(path)

    def test_labels_above_m_report_file_line_and_key(self, tmp_path):
        path = self.write_records(tmp_path / "labels.ndjson", dict(self.RECORD, alloc=[1, 3]))
        with pytest.raises(ValueError, match="labels.ndjson: line 1: 'alloc' labels outside"):
            read_trace(path)

    def test_largest_int64_m_and_label_load(self, tmp_path):
        top = 2**63 - 1
        record = dict(self.RECORD, m=top, m_a=2, alloc=[1, top])
        back = read_trace(self.write_records(tmp_path / "top.ndjson", record))
        np.testing.assert_array_equal(back.m, [top])
        np.testing.assert_array_equal(back.alloc, [[0, top - 1]])

    @pytest.mark.parametrize("weights", [
        [float("nan"), 0.5, 7], [0.5, 0.5, 0.0], [1.0], [float("nan"), 1.0],
        [float("inf"), 0.0], [-0.25, 1.25], [0.5, 0.4], [0.5, 0.5 + 1e-11],
        [True, False], [1, "0"], [10**400, 0], "0.5,0.5", None,
    ])
    def test_unwritable_weights_report_file_line_and_key(self, tmp_path, weights):
        records = [dict(self.RECORD, weights=[0.5, 0.5]), dict(self.RECORD, weights=weights)]
        path = self.write_records(tmp_path / "weights.ndjson", *records)
        with pytest.raises(ValueError, match="weights.ndjson: line 2: 'weights'"):
            read_trace(path)

    @pytest.mark.parametrize("weights", [
        [True, 0.0], [0.5, "0.5"], [0.5, 0.25, 0.25], [0.5, 0.5 - 2e-12],
    ], ids=["bool", "string", "m+1 entries", "sum off by 2e-12"])
    def test_off_simplex_weights_keep_their_message(self, tmp_path, weights):
        records = [dict(self.RECORD, weights=[0.5, 0.5]), dict(self.RECORD, weights=weights)]
        path = self.write_records(tmp_path / "weights.ndjson", *records)
        message = f"{path}: line 2: 'weights' must be 2 numbers in [0, 1] that sum to 1"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_trace(path)

    def test_weights_on_the_simplex_load(self, tmp_path):
        records = [dict(self.RECORD, weights=w) for w in ([1, 0], [0.25, 0.75], [0.1, 0.9])]
        back = read_trace(self.write_records(tmp_path / "weights.ndjson", *records))
        for got, want in zip(back.weights, ([1.0, 0.0], [0.25, 0.75], [0.1, 0.9])):
            np.testing.assert_array_equal(got, want, strict=True)

    def test_empty_allocations_have_no_allocated_component(self, tmp_path):
        empty = dict(self.RECORD, alloc=[], m_a=0)
        back = read_trace(self.write_records(tmp_path / "empty.ndjson", empty, empty))
        assert back.alloc.shape == (2, 0)
        np.testing.assert_array_equal(back.m_allocated, [0, 0])
        with pytest.raises(ValueError, match="line 1: 'm_a'"):
            read_trace(self.write_records(tmp_path / "empty.ndjson", dict(self.RECORD, alloc=[])))

    def test_alloc_length_change_reports_file_and_line(self, tmp_path):
        longer = dict(self.RECORD, alloc=[1, 2, 1])
        path = self.write_records(tmp_path / "ragged.ndjson", self.RECORD, longer)
        with pytest.raises(ValueError, match="ragged.ndjson: line 2: alloc has 3 labels"):
            read_trace(path)

    def test_weights_dropped_after_line_one_reports_file_and_line(self, tmp_path):
        first = dict(self.RECORD, weights=[0.5, 0.5])
        path = self.write_records(tmp_path / "weights.ndjson", first, first, self.RECORD)
        with pytest.raises(ValueError, match="weights.ndjson: line 3: missing key 'weights'"):
            read_trace(path)

    def test_weights_added_after_line_one_report_file_line_and_key(self, tmp_path):
        # line 1 decides whether the trace records weights; a later vector
        # was once dropped unchecked
        later = dict(self.RECORD, weights=[0.5, 0.7])
        path = self.write_records(tmp_path / "weights.ndjson", self.RECORD, later)
        with pytest.raises(ValueError, match="weights.ndjson: line 2: 'weights' recorded"):
            read_trace(path)


def _repeating_counts(t, n_atoms, atom_size, seed):
    """Co-counts over t draws between atoms of observations that share a label
    in every draw, and the atom of each observation (atoms shuffled apart)."""
    rng = np.random.default_rng(seed)
    alloc = rng.integers(0, 3, size=(t, n_atoms))
    counts = (alloc[:, :, None] == alloc[:, None, :]).sum(axis=0)
    return counts, rng.permutation(np.repeat(np.arange(n_atoms), atom_size))


def _distinct_counts(t, n, seed):
    return np.random.default_rng(seed).integers(0, t + 1, size=(n, n)), np.arange(n)


class TestMatrixAndJson:
    def test_matrix_round_trip(self, tmp_path):
        mat = np.random.default_rng(3).normal(size=(4, 6))
        path = tmp_path / "mat.csv"
        write_matrix_csv(path, mat)
        np.testing.assert_array_equal(np.loadtxt(path, delimiter=",", ndmin=2), mat)

    # matrices given to ``write_matrix_csv``: the integer row is the binder.csv call
    @pytest.mark.parametrize("mat", [
        np.array([[3, 1, 2, 1, 10]]),
        np.array([[0.0, -0.0, 5e-324, 1e300, np.inf, -np.inf, np.nan]]),
        np.arange(5) / 3.0,
        np.empty((1, 0)),
        np.random.default_rng(5).normal(size=(3, 4)),
    ], ids=["binder", "special-values", "1-D", "empty-row", "normal"])
    def test_matrix_bytes_are_csv_writers(self, tmp_path, mat):
        write_matrix_csv(tmp_path / "got.csv", mat)
        H.write_matrix_csv_repr(tmp_path / "want.csv", mat)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def assert_psm_matches_the_oracle(self, tmp_path, counts, group, t):
        write_psm_csv(tmp_path / "table.csv", counts, group, t)
        H.write_matrix_csv_repr(tmp_path / "repr.csv", counts[np.ix_(group, group)] / t)
        assert (tmp_path / "table.csv").read_bytes() == (tmp_path / "repr.csv").read_bytes()

    def test_matrix_on_a_denominator_grid_writes_repr_bytes(self, tmp_path):
        # groups that no observation belongs to are never written
        rng = np.random.default_rng(4)
        counts = rng.integers(0, 8, size=(9, 9))
        self.assert_psm_matches_the_oracle(tmp_path, counts, rng.integers(0, 9, size=5), 7)

    def test_matrix_off_the_denominator_grid_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        message = f"{path}: counts are not integers in 0..2"
        for bad in (0.5, 3, -1, np.nan, np.inf):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                write_psm_csv(path, np.array([[2.0, bad], [bad, 2.0]]), np.array([0, 1]), 2)

    @pytest.mark.parametrize("t,counts,group", [
        (7, *_repeating_counts(7, n_atoms=6, atom_size=9, seed=5)),
        (7, *_distinct_counts(7, 30, seed=6)),
        (3, np.array([[2]]), np.array([0])),
        (1, *_repeating_counts(1, n_atoms=4, atom_size=5, seed=7)),
        (149, *_repeating_counts(149, n_atoms=5, atom_size=8, seed=8)),
        (149, *_distinct_counts(149, 40, seed=9)),
    ], ids=["repeating", "distinct", "1x1", "T=1", "repeating-T=149", "distinct-T=149"])
    def test_denominator_writer_matches_the_oracle(self, tmp_path, t, counts, group):
        self.assert_psm_matches_the_oracle(tmp_path, counts, group, t)

    def test_repeated_bad_row_rejected(self, tmp_path):
        # the bad count is in the line of a group whose rows repeat
        counts = np.array([[2, 1], [1, 3]])
        path = tmp_path / "bad.csv"
        message = f"{path}: counts are not integers in 0..2"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            write_psm_csv(path, counts, np.array([0, 0, 1, 0, 1]), 2)

    def test_distinct_rows_keep_no_lines(self, tmp_path):
        # a writer that kept every line until the end would hold 400 of them
        t, n = 149, 400
        counts, group = _distinct_counts(t, n, seed=11)
        line_bytes = sys.getsizeof(",".join(repr(float(c / t)) for c in counts[0]) + "\r\n")
        tracemalloc.start()
        try:
            write_psm_csv(tmp_path / "distinct.csv", counts, group, t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20 * line_bytes

    def test_json_round_trip(self, tmp_path):
        payload = {"b": 1, "a": [1.5, None], "c": {"x": "y"}}
        path = tmp_path / "out.json"
        write_json(path, payload)
        assert read_json(path) == payload

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_json_refuses_values_outside_json(self, tmp_path, value):
        with pytest.raises(ValueError):
            write_json(tmp_path / "out.json", {"mean_gamma": value})


@pytest.fixture(scope="module")
def benchmark_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "bench.csv"
    assert cli_dispatch(["simulate", "--seed", "7", "--out", str(path)]) == 0
    return path


# manifest.json of ``tiny_fit_args``, as written before the hyperparameter
# keys were derived from the dataclass fields, less the retired
# "covariance_update" key (see ``test_parent_manifest_replays``)
PINNED_MANIFEST = """{
  "adapt": true,
  "alpha0": 1.0,
  "birth_death": "reversible",
  "burn_in": 40,
  "chains": 1,
  "data": @DATA@,
  "gamma_fixed": 1.0,
  "gamma_rate": 2.0,
  "gamma_shape": 3.0,
  "lam": 3.0,
  "n_samples": 30,
  "nu0": 2.0,
  "q_birth": 0.5,
  "record_weights": false,
  "rho": 1.0,
  "rng": "numpy.random.PCG64",
  "seed": 3,
  "step_gamma": 0.25,
  "step_mu": 0.25,
  "thin": 1,
  "v0": [
    [
      1.0,
      0.0
    ],
    [
      0.0,
      1.0
    ]
  ],
  "version": @VERSION@,
  "zeta_fixed": 0.5,
  "zeta_mode": "fixed",
  "zeta_rate": 2.0,
  "zeta_shape": 3.0
}
"""


SDIR_ARGS = {"alpha": "1.5", "gamma": "0.7", "m": "4"}


def tiny_fit_args(data, out_dir, extra=()):
    return [
        "fit", "--data", str(data), "--out-dir", str(out_dir),
        "--gamma", "1.0", "--zeta-mode", "fixed", "--zeta", "0.5",
        "--burn-in", "40", "--thin", "1", "--n-samples", "30",
        "--seed", "3",
    ] + list(extra)


class TestCli:
    def test_simulate_writes_dataset_and_labels(self, tmp_path):
        out = tmp_path / "y.csv"
        labels = tmp_path / "labels.csv"
        code = cli_dispatch(["simulate", "--seed", "7", "--out", str(out),
                             "--labels-out", str(labels), "--n", "60"])
        assert code == 0
        y = read_dataset(out)
        assert y.shape == (60, 2)
        lab = read_dataset(labels)
        assert lab.min() >= 1  # labels are reported one-based

    def test_fit_outputs(self, benchmark_csv, tmp_path):
        out_dir = tmp_path / "fit"
        assert cli_dispatch(tiny_fit_args(benchmark_csv, out_dir)) == 0
        trace = read_trace(out_dir / "trace_chain0.ndjson")
        assert trace.n_samples == 30 and trace.n_obs == 300

        summary = read_json(out_dir / "summary.json")
        assert set(summary["acceptance_rates"]) == {
            "means", "weights", "gamma", "zeta", "birth", "death"}
        assert summary["chains"]["0"]["mean_m"] >= 1.0

        manifest = read_json(out_dir / "manifest.json")
        assert manifest["rng"] == "numpy.random.PCG64"
        assert manifest["birth_death"] == "reversible"
        assert "covariance_update" not in manifest
        assert manifest["gamma_fixed"] == 1.0
        assert manifest["chains"] == 1

    def test_recorded_weights_read_back(self, benchmark_csv, tmp_path):
        out_dir = tmp_path / "fit"
        args = tiny_fit_args(benchmark_csv, out_dir, extra=["--record-weights"])
        assert cli_dispatch(args) == 0
        trace = read_trace(out_dir / "trace_chain0.ndjson")
        assert [w.size for w in trace.weights] == trace.m.tolist()
        assert len(set(trace.m.tolist())) > 1

    def test_fit_summary_reports_refresh_rate(self, benchmark_csv, tmp_path):
        out_dir = tmp_path / "fit"
        assert cli_dispatch(tiny_fit_args(benchmark_csv, out_dir, extra=["--chains", "2"])) == 0
        summary = read_json(out_dir / "summary.json")
        hyper = hyperparams_from_dict(read_json(out_dir / "manifest.json"))
        y = read_dataset(benchmark_csv)
        for i, chain in summary["chains"].items():
            _, diag = run_sampler(y, SamplerConfig(hyper=hyper, seed=3 ^ int(i)))
            assert diag.attempts["means_refresh"] > 0
            assert chain["means_refresh_rate"] == diag.rate("means_refresh")
            assert "covariance_ridge_retries" not in chain
            assert set(chain["acceptance_rates"]) == {
                "means", "weights", "gamma", "zeta", "birth", "death"}

    def test_manifest_bytes_are_pinned(self, benchmark_csv, tmp_path):
        out_dir = tmp_path / "fit"
        assert cli_dispatch(tiny_fit_args(benchmark_csv, out_dir)) == 0
        expected = (PINNED_MANIFEST
                    .replace("@DATA@", json.dumps(str(benchmark_csv)))
                    .replace("@VERSION@", json.dumps(__version__)))
        assert (out_dir / "manifest.json").read_text() == expected

    def test_fit_is_reproducible(self, benchmark_csv, tmp_path):
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        assert cli_dispatch(tiny_fit_args(benchmark_csv, dir_a)) == 0
        assert cli_dispatch(tiny_fit_args(benchmark_csv, dir_b)) == 0
        assert (dir_a / "trace_chain0.ndjson").read_bytes() == \
               (dir_b / "trace_chain0.ndjson").read_bytes()

    def test_manifest_rerun_matches(self, benchmark_csv, tmp_path):
        dir_a = tmp_path / "a"
        assert cli_dispatch(tiny_fit_args(benchmark_csv, dir_a)) == 0
        dir_b = tmp_path / "b"
        code = cli_dispatch(["fit", "--config", str(dir_a / "manifest.json"),
                             "--out-dir", str(dir_b)])
        assert code == 0
        assert (dir_a / "trace_chain0.ndjson").read_bytes() == \
               (dir_b / "trace_chain0.ndjson").read_bytes()

    def test_parent_manifest_replays(self, benchmark_csv, tmp_path):
        # a manifest written while "covariance_update" was a hyperparameter
        # carries it; its one surviving value replays the same trace
        dir_a = tmp_path / "a"
        assert cli_dispatch(tiny_fit_args(benchmark_csv, dir_a)) == 0
        parent = tmp_path / "parent.json"
        parent.write_text(PINNED_MANIFEST
                          .replace('  "data"', '  "covariance_update": "centered",\n  "data"')
                          .replace("@DATA@", json.dumps(str(benchmark_csv)))
                          .replace("@VERSION@", json.dumps(__version__)))
        dir_b = tmp_path / "b"
        assert cli_dispatch(["fit", "--config", str(parent), "--out-dir", str(dir_b)]) == 0
        assert (dir_a / "trace_chain0.ndjson").read_bytes() == \
               (dir_b / "trace_chain0.ndjson").read_bytes()

    @pytest.mark.parametrize("entry,named", [
        ({"lamda": 9.0}, "lamda"),
        ({"covariance_update": "literal"}, "covariance_update"),
    ])
    def test_config_rejects_unknown_keys_and_values(self, benchmark_csv, tmp_path, capsys,
                                                    entry, named):
        config = tmp_path / "config.json"
        write_json(config, {"data": str(benchmark_csv), **entry})
        out_dir = tmp_path / "fit"
        assert cli_dispatch(["fit", "--config", str(config), "--out-dir", str(out_dir)]) == 1
        assert named in capsys.readouterr().err
        assert not (out_dir / "trace_chain0.ndjson").exists()

    @pytest.mark.parametrize("top", [
        [["data", "d.csv"], ["burn_in", 2], ["thin", 1], ["n_samples", 2]], "ab", [1, 2], 5, None,
    ], ids=["pairs", "string", "list", "number", "null"])
    def test_config_must_hold_an_object(self, benchmark_csv, tmp_path, capsys, monkeypatch,
                                        top):
        # dict() once turned a list of pairs into a config and ran the fit
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d.csv").write_bytes(benchmark_csv.read_bytes())
        write_json(tmp_path / "config.json", top)
        assert cli_dispatch(["fit", "--config", "config.json", "--out-dir", "fit"]) == 1
        assert capsys.readouterr().err == ("selmix: error: --config config.json: "
                                           "the top level must be a JSON object\n")
        assert not (tmp_path / "fit").exists()

    def test_covariance_update_flag_is_gone(self, benchmark_csv, tmp_path):
        args = tiny_fit_args(benchmark_csv, tmp_path / "fit",
                             extra=["--covariance-update", "centered"])
        assert cli_dispatch(args) == 2

    def test_multiple_chains_and_analyze(self, benchmark_csv, tmp_path):
        fit_dir = tmp_path / "fit"
        assert cli_dispatch(tiny_fit_args(benchmark_csv, fit_dir,
                                          extra=["--chains", "2"])) == 0
        assert (fit_dir / "trace_chain1.ndjson").exists()

        an_dir = tmp_path / "an"
        code = cli_dispatch([
            "analyze",
            "--trace", str(fit_dir / "trace_chain0.ndjson"),
            "--trace", str(fit_dir / "trace_chain1.ndjson"),
            "--out-dir", str(an_dir),
        ])
        assert code == 0
        psm = np.loadtxt(an_dir / "psm.csv", delimiter=",", ndmin=2)
        assert psm.shape == (300, 300)
        assert np.allclose(np.diag(psm), 1.0)
        partition = np.loadtxt(an_dir / "binder.csv", delimiter=",", ndmin=2)
        assert partition.shape == (1, 300)
        assert partition.min() >= 1
        summary = read_json(an_dir / "summary.json")
        assert summary["n_samples"] == 60

    def test_chains_run_as_separate_fits_match_one_multi_chain_fit(self, benchmark_csv,
                                                                   tmp_path):
        # chain i of ``--seed s --chains k`` is the one chain of ``--seed s^i``, so
        # the chains of a study can run as concurrent processes
        assert cli_dispatch(tiny_fit_args(benchmark_csv, tmp_path / "both",
                                          extra=["--seed", "5", "--chains", "2"])) == 0
        for seed in (5, 4):
            assert cli_dispatch(tiny_fit_args(benchmark_csv, tmp_path / f"s{seed}",
                                              extra=["--seed", str(seed)])) == 0
        together = [tmp_path / "both" / f"trace_chain{i}.ndjson" for i in (0, 1)]
        apart = [tmp_path / f"s{seed}" / "trace_chain0.ndjson" for seed in (5, 4)]
        for a, b in zip(together, apart):
            assert a.read_bytes() == b.read_bytes()
        for name, traces in (("an_both", together), ("an_apart", apart)):
            argv = ["analyze", "--out-dir", str(tmp_path / name)]
            for path in traces:
                argv += ["--trace", str(path)]
            assert cli_dispatch(argv) == 0
        for name in ("psm.csv", "binder.csv", "summary.json"):
            assert ((tmp_path / "an_both" / name).read_bytes()
                    == (tmp_path / "an_apart" / name).read_bytes())

    @pytest.mark.parametrize("key,value,message", [
        pytest.param("seed", 2.5, "seed must be an integer >= 0",
                     id="seed-2.5---seed must be a non-negative integer, got 2.5"),
        pytest.param("chains", True, "chains must be an integer >= 1",
                     id="chains-True---chains must be a positive integer, got True"),
    ])
    def test_seed_and_chains_in_config_must_be_integers(self, benchmark_csv, tmp_path,
                                                         capsys, key, value, message):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}))
        args = ["fit", "--data", str(benchmark_csv), "--out-dir", str(tmp_path / "fit"),
                "--config", str(config)]
        assert cli_dispatch(args) == 1
        assert capsys.readouterr().err == f"selmix: error: {message}\n"
        assert not (tmp_path / "fit").exists()

    @pytest.mark.parametrize("key,value,message", [
        ("record_weights", "no", "record_weights must be true or false, got 'no'"),
        ("adapt", "false", "adapt must be true or false, got 'false'"),
        ("burn_in", True, "burn_in must be an integer >= 0"),
        ("thin", True, "thin must be an integer >= 1"),
        ("nu0", "3", "nu0 must be a number, got '3'"),
        ("lam", "3", "lam must be a number, got '3'"),
        ("alpha0", "1", "alpha0 must be a number, got '1'"),
        ("gamma_fixed", "1", "gamma_fixed must be a number, got '1'"),
        ("step_mu", True, "step_mu must be a number, got True"),
        ("q_birth", "0.5", "q_birth must be a number, got '0.5'"),
        ("v0", "x", "v0 must be a matrix of numbers, got 'x'"),
        ("v0", [["1", "0"], ["0", "1"]], "v0 must be a matrix of numbers, got [['1', '0'], "
                                         "['0', '1']]"),
        ("v0", [[1, 0], [0]], "v0 must be a matrix of numbers, got [[1, 0], [0]]"),
        ("data", 0, "data must be a path, got 0"),
    ])
    def test_config_value_of_the_wrong_type_names_the_field(self, benchmark_csv, tmp_path,
                                                             capsys, key, value, message):
        # each is refused before the dataset is read or the output directory made
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"data": str(benchmark_csv), "burn_in": 2, "thin": 1,
                                      "n_samples": 2, key: value}))
        args = ["fit", "--out-dir", str(tmp_path / "fit"), "--config", str(config)]
        assert cli_dispatch(args) == 1
        assert capsys.readouterr().err == f"selmix: error: {message}\n"
        assert not (tmp_path / "fit").exists()

    def test_number_not_in_use_of_the_wrong_type_names_the_field(self, benchmark_csv,
                                                                  tmp_path, capsys):
        # gamma is fixed, so gamma_shape is not in use; it is still refused
        # rather than copied into the manifest
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"data": str(benchmark_csv), "gamma_fixed": 1.0,
                                      "gamma_shape": "x"}))
        args = ["fit", "--out-dir", str(tmp_path / "fit"), "--config", str(config)]
        assert cli_dispatch(args) == 1
        assert capsys.readouterr().err == "selmix: error: gamma_shape must be a number, got 'x'\n"
        assert not (tmp_path / "fit").exists()

    def test_analyze_outputs_match_loop_references(self, benchmark_csv, tmp_path):
        fit_dir, an_dir = tmp_path / "fit", tmp_path / "an"
        assert cli_dispatch(tiny_fit_args(benchmark_csv, fit_dir, extra=["--chains", "2"])) == 0
        paths = [fit_dir / f"trace_chain{i}.ndjson" for i in range(2)]
        argv = ["analyze", "--out-dir", str(an_dir)]
        for path in paths:
            argv += ["--trace", str(path)]
        assert cli_dispatch(argv) == 0

        merged = PosteriorTrace.concat(read_trace(p) for p in paths)
        sim = H.posterior_similarity_loop(merged)
        H.write_matrix_csv_repr(tmp_path / "psm.csv", sim)
        assert (an_dir / "psm.csv").read_bytes() == (tmp_path / "psm.csv").read_bytes()
        partition = H.binder_estimate_scan(merged, sim)
        H.write_matrix_csv_repr(tmp_path / "binder.csv", (partition + 1).reshape(1, -1))
        assert (an_dir / "binder.csv").read_bytes() == (tmp_path / "binder.csv").read_bytes()

        summary = read_json(an_dir / "summary.json")
        assert summary["binder_loss"] == pytest.approx(
            H.binder_loss_dense(partition, sim), rel=1e-12)
        distinct = {H.canonical_labels_loop(row).tobytes() for row in merged.alloc}
        assert summary["n_unique_partitions"] == len(distinct)

    def test_analyze_psm_with_repeated_rows_matches_loop_reference(self, tmp_path):
        # tight clusters: the observations of one cluster share a label in
        # every draw, so their PSM rows are equal and psm.csv reuses lines
        rng = np.random.default_rng(12)
        centres = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 20.0]])
        write_dataset(tmp_path / "tight.csv",
                      np.repeat(centres, 10, axis=0) + rng.normal(0.0, 0.1, size=(30, 2)))
        fit_dir, an_dir = tmp_path / "fit", tmp_path / "an"
        assert cli_dispatch(tiny_fit_args(tmp_path / "tight.csv", fit_dir)) == 0
        trace_path = fit_dir / "trace_chain0.ndjson"
        assert cli_dispatch(["analyze", "--trace", str(trace_path),
                             "--out-dir", str(an_dir)]) == 0

        sim = H.posterior_similarity_loop(read_trace(trace_path))
        assert len(np.unique(sim, axis=0)) <= 10
        assert ((sim > 0.0) & (sim < 1.0)).any()
        H.write_matrix_csv_repr(tmp_path / "psm.csv", sim)
        assert (an_dir / "psm.csv").read_bytes() == (tmp_path / "psm.csv").read_bytes()

    def test_append_bookkeeping_flag_recorded(self, benchmark_csv, tmp_path):
        out_dir = tmp_path / "fit"
        args = tiny_fit_args(benchmark_csv, out_dir,
                             extra=["--birth-death", "append"])
        assert cli_dispatch(args) == 0
        assert read_json(out_dir / "manifest.json")["birth_death"] == "append"

    def test_every_fit_flag_reaches_its_field(self, benchmark_csv, tmp_path):
        # zero and false values must survive the flag table and the
        # payload-to-Hyperparams step
        fields = {
            "--alpha0": ("alpha0", 1.5), "--lam": ("lam", 2.5), "--nu0": ("nu0", 4.0),
            "--gamma": ("gamma_fixed", 0.0), "--gamma-shape": ("gamma_shape", 2.5),
            "--gamma-rate": ("gamma_rate", 1.5), "--zeta-mode": ("zeta_mode", "gamma"),
            "--zeta": ("zeta_fixed", 0.7), "--zeta-shape": ("zeta_shape", 2.0),
            "--zeta-rate": ("zeta_rate", 1.25), "--rho": ("rho", 0.5),
            "--q-birth": ("q_birth", 0.4), "--step-mu": ("step_mu", 0.3),
            "--step-gamma": ("step_gamma", 0.2), "--burn-in": ("burn_in", 7),
            "--thin": ("thin", 2), "--n-samples": ("n_samples", 5),
            "--birth-death": ("birth_death", "append"),
        }
        out_dir = tmp_path / "fit"
        args = ["fit", "--data", str(benchmark_csv), "--out-dir", str(out_dir),
                "--no-adapt", "--v0-diag", "2,3"]
        for flag, (_, value) in fields.items():
            args += [flag, str(value)]
        assert cli_dispatch(args) == 0
        manifest = read_json(out_dir / "manifest.json")
        assert {key: manifest[key] for key, _ in fields.values()} == dict(fields.values())
        assert manifest["adapt"] is False
        assert manifest["v0"] == [[2.0, 0.0], [0.0, 3.0]]

    def test_prior_ma_lines(self, capsys):
        assert cli_dispatch(["prior-ma", "--gamma", "0.0", "--m", "3",
                             "--n", "20", "--reps", "200"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4
        probs = [float(line.split(",")[1]) for line in lines]
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)

    def test_prior_ma_prints_the_simulation(self, capsys):
        assert cli_dispatch(["prior-ma", "--gamma", "3", "--m", "8", "--seed", "4"]) == 0
        probs = prior_ma_simulation(1.0, 3.0, 8, 100, 10000, np.random.default_rng(4))
        want = "".join(f"{k},{repr(float(p))}\n" for k, p in enumerate(probs))
        assert capsys.readouterr().out == want

    def test_prior_ma_out_writes_the_printed_table(self, tmp_path, capsys):
        argv = ["prior-ma", "--gamma", "3", "--m", "8", "--reps", "500", "--seed", "4"]
        assert cli_dispatch(argv) == 0
        printed = capsys.readouterr().out
        assert cli_dispatch(argv + ["--out", str(tmp_path / "ma.csv")]) == 0
        assert capsys.readouterr().out == ""
        assert (tmp_path / "ma.csv").read_text() == printed

    def test_elicit_zeta_prints_choice(self, benchmark_csv, capsys):
        code = cli_dispatch(["elicit-zeta", "--data", str(benchmark_csv),
                             "--k", "5", "--seed", "1"])
        assert code == 0
        assert float(capsys.readouterr().out.strip()) in (0.01, 0.05, 0.1, 0.5, 1.0)

    @pytest.mark.parametrize("args,expected", [
        (["dist", "sdir-mean", "--alpha", "1", "--gamma", "1", "--m", "3"], 0.2),
        (["dist", "sdir-variance", "--alpha", "1", "--gamma", "1", "--m", "3"], 2.0 / 75.0),
        (["dist", "ge-log-const", "--zeta", "2", "--m", "2"], np.log(np.pi)),
        (["dist", "count-log-pmf", "--m", "1", "--lam", "3"], -3.0),
        (["dist", "dispersion", "--alpha", "1", "--gamma", "1", "--m", "3", "--tau", "0"], 1.0),
        (["dist", "ge-log-pdf", "--zeta", "1", "--m", "2", "--x", "1e308,-1e308"], -np.inf),
        (["dist", "ge-log-pdf", "--zeta", "1e300", "--m", "2", "--x", "1e10,-1e10"], -np.inf),
        (["dist", "ge-log-const", "--zeta", "1e307", "--m", "1"],
         0.5 * np.log(2.0 * np.pi / 1e307)),
    ])
    def test_dist_values(self, capsys, args, expected):
        assert cli_dispatch(args) == 0
        assert float(capsys.readouterr().out.strip()) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("args,message", [
        (["dist", "sdir-mean", "--alpha", "1", "--gamma", "nan", "--m", "3"],
         "gamma must be non-negative"),
        (["dist", "sdir-mean", "--alpha", "inf", "--gamma", "1", "--m", "3"],
         "alpha must be finite"),
        (["dist", "dispersion", "--alpha", "1", "--gamma", "1", "--m", "3", "--tau", "nan"],
         "tau must be non-negative"),
        (["dist", "count-log-pmf", "--m", "3", "--lam", "inf"], "lam must be finite"),
        (["dist", "ge-log-const", "--zeta", "inf", "--m", "3"], "zeta must be finite"),
        (["prior-ma", "--gamma", "nan", "--m", "3"], "gamma must be non-negative"),
        # These three cases keep the ids they had before the count rule
        # (distributions.require_count) added "an integer" to its message.
        pytest.param(["simulate", "--seed", "1", "--n=-3", "--out", "unused.csv"],
                     "n_obs must be an integer >= 1", id="args6-n_obs must be >= 1"),
        pytest.param(["simulate", "--seed", "1", "--n", "0", "--out", "unused.csv"],
                     "n_obs must be an integer >= 1", id="args7-n_obs must be >= 1"),
        (["dist", "sdir-log-pdf", "--alpha", "1", "--gamma", "1", "--m", "3",
          "--w", "nan,0.5,0.5"], "weights must lie in [0, 1]"),
        pytest.param(["elicit-zeta", "--data", "d.csv", "--k", "3", "--reps", "0"],
                     "reps must be an integer >= 1", id="args9-reps must be >= 1"),
        (["dist", "ge-log-const", "--zeta", "1e307", "--m", "2"],
         "zeta = 1e+307 overflows the ensemble constant at m = 2"),
        (["dist", "ge-log-pdf", "--zeta", "1e307", "--m", "2", "--x", "1e100,-1e100"],
         "zeta = 1e+307 overflows the ensemble constant at m = 2"),
        (["fit", "--data", "d.csv", "--out-dir", "unused.csv", "--v0-diag", "1,x"],
         "--v0-diag must be comma-separated numbers, got '1,x'"),
        (["dist", "sdir-log-pdf", "--alpha", "1", "--gamma", "1", "--m", "3", "--w", "0.2,,0.8"],
         "--w must be comma-separated numbers, got '0.2,,0.8'"),
        (["dist", "ge-log-pdf", "--zeta", "1", "--m", "2", "--x", "1,two"],
         "--x must be comma-separated numbers, got '1,two'"),
        (["elicit-zeta", "--data", "d.csv", "--k", "3", "--grid", "0.1,abc"],
         "--grid must be comma-separated numbers, got '0.1,abc'"),
        pytest.param(["fit", "--data", "d.csv", "--out-dir", "unused.csv", "--chains", "0"],
                     "chains must be an integer >= 1",
                     id="args16---chains must be a positive integer, got 0"),
        pytest.param(["fit", "--data", "d.csv", "--out-dir", "unused.csv", "--seed", "-1"],
                     "seed must be an integer >= 0",
                     id="args17---seed must be a non-negative integer, got -1"),
        pytest.param(["simulate", "--seed", "-1", "--out", "unused.csv"],
                     "seed must be an integer >= 0",
                     id="args18---seed must be a non-negative integer, got -1"),
        pytest.param(["prior-ma", "--gamma", "1", "--m", "3", "--seed", "-2", "--out",
                      "unused.csv"], "seed must be an integer >= 0",
                     id="args19---seed must be a non-negative integer, got -2"),
        pytest.param(["elicit-zeta", "--data", "d.csv", "--k", "3", "--seed", "-1"],
                     "seed must be an integer >= 0",
                     id="args20---seed must be a non-negative integer, got -1"),
    ])
    def test_unusable_parameter_names_the_field(self, capsys, tmp_path, monkeypatch,
                                                args, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d.csv").write_text("x1,x2\n0.0,1.0\n1.0,0.0\n2.0,2.0\n3.0,1.0\n")
        assert cli_dispatch(args) == 1
        assert capsys.readouterr().err == f"selmix: error: {message}\n"
        assert not (tmp_path / "unused.csv").exists()

    def test_analyze_names_the_trace_of_another_size(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for name, n in (("a", 40), ("b", 30)):
            write_trace(f"{name}.ndjson", PosteriorTrace(
                m=np.ones(2, dtype=np.int64), m_allocated=np.ones(2, dtype=np.int64),
                alloc=np.zeros((2, n), dtype=np.int64), gamma=np.ones(2), zeta=np.ones(2)))
        argv = ["analyze", "--trace", "a.ndjson", "--trace", "b.ndjson", "--out-dir", "an"]
        assert cli_dispatch(argv) == 1
        assert capsys.readouterr().err == (
            "selmix: error: b.ndjson: 30 observations per draw, a.ndjson has 40\n")
        assert not (tmp_path / "an").exists()

    def test_analyze_refuses_zero_observations(self, tmp_path, capsys):
        trace = PosteriorTrace(m=np.ones(3, dtype=np.int64),
                               m_allocated=np.zeros(3, dtype=np.int64),
                               alloc=np.empty((3, 0), dtype=np.int64),
                               gamma=np.ones(3), zeta=np.ones(3))
        write_trace(tmp_path / "nodata.ndjson", trace)
        assert cli_dispatch(["analyze", "--trace", str(tmp_path / "nodata.ndjson"),
                             "--out-dir", str(tmp_path / "an")]) == 1
        assert capsys.readouterr().err == (
            "selmix: error: cannot analyze traces with zero observations\n")
        assert not (tmp_path / "an").exists()

    def test_dist_log_pdf_with_vector(self, capsys):
        code = cli_dispatch(["dist", "sdir-log-pdf", "--alpha", "1", "--gamma", "0",
                             "--m", "3", "--w", "0.5,0.3,0.2"])
        assert code == 0
        assert float(capsys.readouterr().out.strip()) == pytest.approx(np.log(2.0), rel=1e-10)

    @pytest.mark.parametrize("quantity,required,optional,value", [
        ("sdir-mean", SDIR_ARGS, {}, lambda p: sdir_moments(p).mean),
        ("sdir-variance", SDIR_ARGS, {}, lambda p: sdir_moments(p).variance),
        ("sdir-second-moment", SDIR_ARGS, {}, lambda p: sdir_moments(p).second_moment),
        ("sdir-marginal-moment", SDIR_ARGS, {"k": "3"},
         lambda p: sdir_moments(p, k=3).marginal_k_moment),
        ("sdir-product-moment", SDIR_ARGS, {"k": "2"},
         lambda p: sdir_moments(p, k=2).product_moment_k),
        ("sdir-log-const", SDIR_ARGS, {}, lambda p: sdir_log_norm_const(p)),
        ("sdir-log-pdf", {**SDIR_ARGS, "w": "0.1,0.2,0.3,0.4"}, {},
         lambda p: sdir_log_density(np.array([0.1, 0.2, 0.3, 0.4]), p)),
        ("dispersion", {**SDIR_ARGS, "tau": "0.5"}, {},
         lambda p: internal_dispersion_expectation(p, 0.5)),
        ("ge-log-const", {"zeta": "0.3", "m": "4"}, {},
         lambda p: ge_log_norm_const(GeParams(0.3, 4))),
        ("ge-log-pdf", {"zeta": "0.3", "m": "4", "x": "0.1,-0.5,1.2,2.0"}, {},
         lambda p: ge_log_density(np.array([0.1, -0.5, 1.2, 2.0]), GeParams(0.3, 4))),
        ("count-log-pmf", {"m": "4", "lam": "2.5"}, {}, lambda p: shifted_poisson_log_pmf(4, 2.5)),
    ])
    def test_every_dist_quantity(self, capsys, quantity, required, optional, value):
        def argv(given):
            return ["dist", quantity] + [arg for name, text in given.items()
                                         for arg in (f"--{name}", text)]

        assert cli_dispatch(argv({**required, **optional})) == 0
        assert capsys.readouterr().out == f"{value(SdirParams(1.5, 0.7, 4)):.12g}\n"
        for left_out in required:
            given = {k: v for k, v in required.items() if k != left_out}
            assert cli_dispatch(argv(given)) == 1
            err = capsys.readouterr().err
            assert err == f"selmix: error: dist {quantity} requires --{left_out}\n"
        # flags are checked in order, so with none given the first is named
        assert cli_dispatch(argv({})) == 1
        first = next(iter(required))
        assert capsys.readouterr().err == f"selmix: error: dist {quantity} requires --{first}\n"

    @pytest.mark.parametrize("flag,field,modes", [
        ("--gamma-shape", "gamma_shape", []), ("--gamma-rate", "gamma_rate", []),
        ("--zeta-shape", "zeta_shape", ["--zeta-mode", "gamma"]),
        ("--zeta-rate", "zeta_rate", ["--zeta-mode", "gamma"]),
        ("--rho", "rho", ["--zeta-mode", "ratio"]),
    ])
    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_nonpositive_hyperprior_names_the_field(self, benchmark_csv, tmp_path, capsys,
                                                    flag, field, modes, value):
        args = ["fit", "--data", str(benchmark_csv), "--out-dir", str(tmp_path / "fit"),
                "--burn-in", "2", "--n-samples", "2", *modes, f"{flag}={value}"]
        assert cli_dispatch(args) == 1
        assert capsys.readouterr().err == f"selmix: error: {field} must be positive\n"

    @pytest.mark.parametrize("flags,message", [
        (["--gamma=nan"], "gamma_fixed must be non-negative"),
        (["--gamma=inf"], "gamma_fixed must be finite"),
        (["--step-mu=nan"], "step_mu must be positive"),
        (["--step-gamma=nan"], "step_gamma must be positive"),
        (["--gamma-shape=inf"], "gamma_shape must be finite"),
        (["--nu0=inf"], "nu0 must be finite"),
        (["--zeta=0"], "zeta_fixed must be positive"),
        (["--zeta=-1"], "zeta_fixed must be positive"),
        (["--zeta=nan"], "zeta_fixed must be positive"),
        (["--gamma=0", "--zeta-mode=ratio"], "gamma_fixed must be positive"),
        (["--zeta-mode=gamma", "--zeta-rate=inf"], "zeta_rate must be finite"),
        (["--lam=inf"], "lam must be finite"),
        (["--alpha0=1e300", "--gamma=1"], "alpha0 = 1e+300 gave tied starting weights in "
                                          "1000 Dirichlet draws; use a smaller alpha0"),
    ])
    def test_unusable_number_names_the_field(self, benchmark_csv, tmp_path, capsys,
                                             flags, message):
        args = ["fit", "--data", str(benchmark_csv), "--out-dir", str(tmp_path / "fit"),
                "--burn-in", "20", "--thin", "1", "--n-samples", "5", *flags]
        assert cli_dispatch(args) == 1
        assert capsys.readouterr().err == f"selmix: error: {message}\n"

    @pytest.mark.parametrize("field,low", [("burn_in", 0), ("thin", 1), ("n_samples", 1)])
    def test_fractional_run_length_in_config_names_the_field(self, benchmark_csv, tmp_path,
                                                             capsys, field, low):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"burn_in": 2, "thin": 1, "n_samples": 2, field: 2.5}))
        args = ["fit", "--data", str(benchmark_csv), "--out-dir", str(tmp_path / "fit"),
                "--config", str(config)]
        assert cli_dispatch(args) == 1
        assert capsys.readouterr().err == f"selmix: error: {field} must be an integer >= {low}\n"

    def test_ma_histogram_keys_in_numeric_order(self, benchmark_csv, tmp_path, monkeypatch):
        # chain 0 reaches m_a = 10: sorted as strings, "10" would come before "2"
        import selmix.sampler as sampler_mod

        def fake_run_sampler(y, config):
            m_a = {0: [2, 10, 2], 1: [1, 2, 3]}[config.seed]
            trace = PosteriorTrace(
                m=np.array(m_a), m_allocated=np.array(m_a),
                alloc=np.stack([np.arange(y.shape[0]) % k for k in m_a]),
                gamma=np.ones(3), zeta=np.ones(3),
            )
            diag = sampler_mod.StepDiagnostics(accepts={}, attempts={},
                                               step_mu_final=0.25, step_gamma_final=0.25)
            return trace, diag

        monkeypatch.setattr(sampler_mod, "run_sampler", fake_run_sampler)
        fit_dir, an_dir = tmp_path / "fit", tmp_path / "an"
        assert cli_dispatch(["fit", "--data", str(benchmark_csv), "--out-dir", str(fit_dir),
                             "--seed", "0", "--chains", "2"]) == 0
        assert cli_dispatch(["analyze", "--out-dir", str(an_dir),
                             "--trace", str(fit_dir / "trace_chain0.ndjson"),
                             "--trace", str(fit_dir / "trace_chain1.ndjson")]) == 0
        want = [("1", 1), ("2", 3), ("3", 1), ("10", 1)]
        for out_dir in (fit_dir, an_dir):
            assert list(read_json(out_dir / "summary.json")["ma_histogram"].items()) == want

    def test_unused_hyperprior_is_not_checked(self, benchmark_csv, tmp_path):
        args = tiny_fit_args(benchmark_csv, tmp_path / "fit", ["--gamma-rate", "0"])
        assert cli_dispatch(args) == 0

    def test_exit_codes(self, tmp_path, capsys):
        assert cli_dispatch(["bogus-command"]) == 2
        assert cli_dispatch(["fit", "--out-dir", str(tmp_path)]) == 1  # no data
        assert cli_dispatch(["analyze", "--trace", str(tmp_path / "missing.ndjson"),
                             "--out-dir", str(tmp_path)]) == 1
        assert cli_dispatch(["dist", "sdir-mean", "--alpha", "1"]) == 1
        capsys.readouterr()

    def test_console_entry_point(self, tmp_path):
        def run(*argv):
            return subprocess.run([sys.executable, "-m", "selmix.cli", *argv],
                                  capture_output=True, text=True, env=H.child_env())

        proc = run("--version")
        assert proc.returncode == 0
        assert "selmix" in proc.stdout
        proc = run("fit", "--out-dir", str(tmp_path / "fit"))  # no data
        assert proc.returncode == 1
        assert proc.stderr.startswith("selmix: error:")
        proc = run("bogus-command")
        assert proc.returncode == 2
        assert "invalid choice" in proc.stderr


# runs ``main()`` with the arguments after ``-c``, then reports the collector
# as ``main()`` left it, whether it exited or raised
MAIN_CHILD = """
import gc, json
from selmix.cli import main
try:
    main()
finally:
    print(json.dumps({"enabled": gc.isenabled(), "frozen": gc.get_freeze_count()}))
"""


class TestCollectorPolicy:
    """The collector is off and the heap frozen in ``main()`` alone."""

    def test_main_turns_the_collector_off_and_freezes(self, benchmark_csv, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-c", MAIN_CHILD, *tiny_fit_args(benchmark_csv, tmp_path / "fit")],
            capture_output=True, text=True, env=H.child_env())
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout.splitlines()[-1])
        assert report["enabled"] is False
        assert report["frozen"] > 0
        assert read_trace(tmp_path / "fit" / "trace_chain0.ndjson").n_samples == 30

    def test_cli_dispatch_keeps_the_collector(self, benchmark_csv, tmp_path):
        before = gc.isenabled(), gc.get_freeze_count()
        assert cli_dispatch(tiny_fit_args(benchmark_csv, tmp_path / "fit")) == 0
        assert (gc.isenabled(), gc.get_freeze_count()) == before

"""Posterior summaries: similarity matrices, point partitions, prior
cluster-count simulation, and repulsion-scale elicitation."""

import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.cluster.vq import kmeans

import helpers as H
from selmix import analysis
from selmix.analysis import (
    PosteriorTrace,
    binder_estimate,
    binder_loss,
    canonical_labels,
    center_gap_by_dimension,
    elicit_zeta,
    partition_summary,
    posterior_similarity,
    prior_ma_simulation,
)
from selmix.cli import cli_dispatch
from selmix.io import read_json, read_trace, write_trace
from selmix.model import Hyperparams
from selmix.planted import simulate_benchmark
from selmix.sampler import SamplerConfig, run_sampler

# binder_loss on a seeded trace of 10 draws over n = 3000, printed as repr
BINDER_CHILD = """
import numpy as np
from selmix.analysis import PosteriorTrace, binder_estimate, binder_loss, posterior_similarity
rng = np.random.default_rng(30)
alloc = rng.integers(0, 6, size=(10, 3000))
trace = PosteriorTrace(m=np.full(10, 6), m_allocated=np.full(10, 6), alloc=alloc,
                       gamma=np.zeros(10), zeta=np.ones(10))
sim = posterior_similarity(trace)
print(repr(binder_loss(binder_estimate(trace), sim)))
"""


def make_trace(alloc_rows, weights=None):
    alloc = np.asarray(alloc_rows, dtype=np.int64)
    t = alloc.shape[0]
    return PosteriorTrace(
        m=np.full(t, int(alloc.max()) + 1, dtype=np.int64),
        m_allocated=np.array([np.unique(row).size for row in alloc]),
        alloc=alloc,
        gamma=np.zeros(t),
        zeta=np.ones(t),
        weights=weights,
    )


def empty_trace(t):
    """A trace of t draws without observations, as a chain run without data records."""
    return PosteriorTrace(m=np.ones(t, dtype=np.int64), m_allocated=np.zeros(t, dtype=np.int64),
                          alloc=np.empty((t, 0), dtype=np.int64), gamma=np.zeros(t),
                          zeta=np.ones(t))


def random_traces(rng, cases, t_choices, n_range, m_range):
    """Random traces: T from ``t_choices``, n and m drawn from their ranges,
    labels uniform on 0..m-1 (so a draw may leave some labels unused)."""
    for _ in range(cases):
        t = int(rng.choice(t_choices))
        n = int(rng.integers(*n_range))
        m = int(rng.integers(*m_range))
        yield make_trace(rng.integers(0, m, size=(t, n)))


class TestConcat:
    def test_weights_kept_when_every_trace_has_them(self):
        rng = np.random.default_rng(20)
        a = make_trace([[0, 1, 1], [0, 0, 1]], weights=[rng.dirichlet(np.ones(2))] * 2)
        b = make_trace([[1, 1, 0]], weights=[rng.dirichlet(np.ones(2))])
        merged = PosteriorTrace.concat([a, b])
        np.testing.assert_array_equal(merged.alloc, np.vstack([a.alloc, b.alloc]))
        np.testing.assert_array_equal(merged.m, np.concatenate([a.m, b.m]))
        assert merged.n_samples == 3
        assert len(merged.weights) == 3
        for got, want in zip(merged.weights, a.weights + b.weights):
            np.testing.assert_array_equal(got, want)

    def test_weights_dropped_when_any_trace_lacks_them(self):
        a = make_trace([[0, 1, 1]], weights=[np.array([0.5, 0.5])])
        b = make_trace([[1, 1, 0]])
        assert PosteriorTrace.concat([a, b]).weights is None
        assert PosteriorTrace.concat([b, a]).weights is None

    def test_observation_counts_must_agree(self):
        with pytest.raises(ValueError):
            PosteriorTrace.concat([make_trace([[0, 1]]), make_trace([[0, 1, 1]])])
        with pytest.raises(ValueError):
            PosteriorTrace.concat([])


class TestSimilarity:
    def test_frozen_small_example(self):
        trace = make_trace([[0, 0, 1], [0, 1, 1], [0, 0, 0]])
        sim = posterior_similarity(trace)
        want = np.array([
            [1.0, 2 / 3, 1 / 3],
            [2 / 3, 1.0, 2 / 3],
            [1 / 3, 2 / 3, 1.0],
        ])
        np.testing.assert_allclose(sim, want, rtol=1e-12)

    def test_label_invariance(self):
        a = make_trace([[0, 0, 1, 2], [1, 1, 0, 0]])
        b = make_trace([[5, 5, 2, 0], [0, 0, 3, 3]])
        np.testing.assert_allclose(posterior_similarity(a), posterior_similarity(b))

    def test_empty_trace_rejected(self):
        trace = make_trace([[0, 0]])
        trace.m = trace.m[:0]
        trace.alloc = trace.alloc[:0]
        with pytest.raises(ValueError):
            posterior_similarity(trace)

    def test_matches_loop_oracle_exactly(self):
        # up to 200 draws of up to 9 labels: several one-hot blocks per call;
        # at n = 301 and 1025 about 320 columns make several blocks, each later
        # one added in row chunks whose last one is shorter
        rng = np.random.default_rng(21)
        traces = [*random_traces(rng, 40, [1, 2, 3, 7, 10, 64, 200], (1, 40), (1, 10)),
                  *(make_trace(rng.integers(0, 20, size=(16, n))) for n in (301, 1025))]
        for trace in traces:
            np.testing.assert_array_equal(
                posterior_similarity(trace), H.posterior_similarity_loop(trace))

    def test_negative_labels_rejected(self):
        with pytest.raises(ValueError):
            posterior_similarity(make_trace([[0, -1]]))

    def test_huge_label_gives_the_psm_of_its_relabelled_copy(self):
        # a draw's one-hot matrix has a column per distinct label; one per
        # label value up to 10**12 would not fit in memory
        alloc = np.random.default_rng(22).integers(0, 4, size=(6, 300))
        huge = np.where(alloc == 3, 10**12, alloc)
        sim = posterior_similarity(make_trace(huge))
        np.testing.assert_array_equal(sim, posterior_similarity(make_trace(canonical_labels(huge))))
        np.testing.assert_array_equal(sim, H.posterior_similarity_loop(make_trace(alloc)))


class TestPartitionHelpers:
    def test_canonical_labels_first_appearance(self):
        np.testing.assert_array_equal(
            canonical_labels([2, 2, 0, 1, 0]), [0, 0, 1, 2, 1])

    def test_canonical_labels_matches_loop_oracle_row_by_row(self):
        rng = np.random.default_rng(22)
        cases = [rng.integers(lo, hi, size=(t, n)) for t, n, lo, hi in
                 [(1, 1, 0, 1), (5, 12, -3, 4), (200, 150, 0, 9), (3, 40, 0, 10**9)]]
        cases += [
            # labels with gaps and large values
            rng.choice([3, 70, 10**6, 2**62, -2**40], size=(6, 30)),
            np.empty((4, 0), dtype=np.int64),
            np.empty((0, 7), dtype=np.int64),
            np.empty(0, dtype=np.int64),
            rng.integers(0, 5, size=(3, 4, 9)),
        ]
        for alloc in cases:
            want = np.empty(alloc.shape, dtype=np.int64)
            for row in np.ndindex(alloc.shape[:-1]):
                want[row] = H.canonical_labels_loop(alloc[row])
                np.testing.assert_array_equal(
                    canonical_labels(alloc[row]), want[row], strict=True)
            np.testing.assert_array_equal(canonical_labels(alloc), want, strict=True)

    def test_binder_loss_matches_dense_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = int(rng.integers(2, 60))
            sim = rng.uniform(size=(n, n))
            sim = 0.5 * (sim + sim.T)
            alloc = rng.integers(0, 4, size=n)
            assert binder_loss(alloc, sim) == pytest.approx(
                H.binder_loss_dense(alloc, sim), rel=1e-12, abs=1e-12 * n * n)

    def test_canonical_labels_invariant_under_relabeling(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            alloc = rng.integers(0, 4, size=12)
            perm = rng.permutation(4)
            np.testing.assert_array_equal(
                canonical_labels(alloc), canonical_labels(perm[alloc]))

    def test_binder_loss_hand_value(self):
        sim = np.array([[1.0, 0.8, 0.1], [0.8, 1.0, 0.4], [0.1, 0.4, 1.0]])
        # pairs: (0,1) together, (0,2) apart, (1,2) apart
        want = (1 - 0.8) ** 2 + 0.1 ** 2 + 0.4 ** 2
        assert binder_loss([0, 0, 1], sim) == pytest.approx(want, rel=1e-12)

    def test_binder_loss_is_independent_of_blas_threads(self):
        printed = []
        for threads in ("1", "2"):
            proc = subprocess.run([sys.executable, "-c", BINDER_CHILD], capture_output=True,
                                  text=True, env=H.child_env(OPENBLAS_NUM_THREADS=threads),
                                  check=True)
            printed.append(proc.stdout)
        assert printed[0] == printed[1]

    def test_analyze_reports_the_exact_loss_whatever_the_blas_threads(self, tmp_path):
        # T = 15 is not a power of two, so no c / T above 0 and below 1 is a
        # binary fraction; the loss is the exact rational rounded once
        rng = np.random.default_rng(32)
        trace = make_trace(rng.integers(0, 3, size=(15, 40))[:, rng.integers(0, 40, size=400)])
        path = tmp_path / "trace.ndjson"
        write_trace(path, trace)
        losses = []
        for threads in ("1", "2"):
            out_dir = tmp_path / f"threads{threads}"
            subprocess.run([sys.executable, "-m", "selmix.cli", "analyze", "--trace", str(path),
                            "--out-dir", str(out_dir)],
                           env=H.child_env(OPENBLAS_NUM_THREADS=threads), check=True)
            losses.append(read_json(out_dir / "summary.json")["binder_loss"])
            partition = np.loadtxt(out_dir / "binder.csv", delimiter=",").astype(np.int64) - 1
            assert losses[-1] == float(H.binder_loss_exact(read_trace(path), partition))
        assert losses[0] == losses[1]

    def test_binder_loss_label_invariant(self):
        rng = np.random.default_rng(4)
        sim = rng.uniform(size=(6, 6))
        sim = 0.5 * (sim + sim.T)
        alloc = rng.integers(0, 3, size=6)
        perm = rng.permutation(3)
        assert binder_loss(alloc, sim) == pytest.approx(
            binder_loss(perm[alloc], sim), rel=1e-12)


def summary_traces(rng):
    """Random traces with and without repeated PSM rows, a huge label, and
    draws without observations."""
    traces = [*random_traces(rng, 60, [1, 7, 150], (1, 40), (1, 6)),
              *(make_trace(rng.integers(0, 20, size=(t, 301))) for t in (1, 7, 150))]
    alloc = rng.integers(0, 4, size=(7, 50))
    traces.append(make_trace(np.where(alloc == 2, 10**12, alloc)))
    return traces + [empty_trace(t) for t in (1, 7, 150)]


class TestPartitionSummary:
    """One relabelling gives the grouped co-counts, the Binder draw and its
    loss, and the partition count."""

    def test_agrees_with_the_separate_summaries(self):
        for trace in summary_traces(np.random.default_rng(27)):
            counts, group, t, loss, count = partition_summary(trace)
            sim = posterior_similarity(trace)
            np.testing.assert_array_equal(
                counts[np.ix_(group, group)] / trace.n_samples, sim, strict=True)
            np.testing.assert_array_equal(
                trace.alloc[t], binder_estimate(trace), strict=True)
            assert loss == float(H.binder_loss_exact(trace, trace.alloc[t]))
            assert loss == pytest.approx(binder_loss(trace.alloc[t], sim), rel=1e-12, abs=1e-9)
            canon = [canonical_labels(row).tobytes() for row in trace.alloc]
            assert canon.index(canon[t]) == t
            assert count == len(set(canon))

    def test_one_call_gives_the_similarity_and_the_binder_draw(self):
        # the README recipe for wanting both: one pass over the co-counts
        y, _ = simulate_benchmark(7)
        hyper = Hyperparams(gamma_fixed=1.0, zeta_fixed=0.1, burn_in=50, thin=2, n_samples=40)
        trace, _ = run_sampler(y, SamplerConfig(hyper=hyper, seed=101))
        counts, group, t, _, _ = partition_summary(trace)
        psm = counts[np.ix_(group, group)] / trace.n_samples
        np.testing.assert_array_equal(psm, posterior_similarity(trace), strict=True)
        np.testing.assert_array_equal(trace.alloc[t], binder_estimate(trace), strict=True)

    def test_rows_are_equal_exactly_within_a_group(self):
        # two PSM rows are equal if and only if their observations share a
        # label in every draw, which is what the groups are
        for trace in summary_traces(np.random.default_rng(29)):
            _, group, *_ = partition_summary(trace)
            sim = posterior_similarity(trace)
            rows_equal = (sim[:, None, :] == sim[None, :, :]).all(axis=2)
            np.testing.assert_array_equal(rows_equal, group[:, None] == group[None, :])

    def test_counts_distinct_partitions(self):
        rows = [[1, 1, 0], [0, 0, 1], [0, 1, 1], [2, 2, 2], [5, 5, 3], [1, 0, 0]]
        assert partition_summary(make_trace(rows))[4] == 3

    def test_draws_without_observations_are_one_partition(self):
        counts, group, t, loss, count = partition_summary(empty_trace(3))
        assert (counts.shape, group.shape, t, loss, count) == ((0, 0), (0,), 0, 0.0, 1)

    def test_holds_no_observation_by_observation_matrix(self):
        # 3000 observations in 5 groups: the co-counts are (5, 5), where one
        # (n, n) float64 matrix would take 72 MB
        rng = np.random.default_rng(31)
        n, t = 3000, 20
        alloc = rng.integers(0, 3, size=(t, 5))[:, rng.integers(0, 5, size=n)]
        trace = make_trace(alloc)
        tracemalloc.start()
        try:
            counts, group, *_ = partition_summary(trace)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 16
        assert counts.shape == (5, 5) and group.shape == (n,)

    def test_analyze_relabels_the_merged_draws_once(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(28)
        paths = [tmp_path / f"trace{i}.ndjson" for i in range(2)]
        for path in paths:
            write_trace(path, make_trace(rng.integers(0, 4, size=(9, 40))))
        seen = []

        def spy(alloc):
            seen.append(np.shape(alloc))
            return canonical_labels(alloc)

        monkeypatch.setattr(analysis, "canonical_labels", spy)
        argv = ["analyze", "--out-dir", str(tmp_path / "an")]
        for path in paths:
            argv += ["--trace", str(path)]
        assert cli_dispatch(argv) == 0
        assert seen == [(18, 40)]
        assert read_json(tmp_path / "an" / "summary.json")["n_samples"] == 18


class TestBinderEstimate:
    def brute_force(self, trace, sim):
        losses = [binder_loss(row, sim) for row in trace.alloc]
        return min(losses)

    def test_matches_exhaustive_over_candidates(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            t = int(rng.integers(2, 12))
            alloc = rng.integers(0, 3, size=(t, 4))
            trace = make_trace(alloc)
            sim = posterior_similarity(trace)
            est = binder_estimate(trace)
            assert binder_loss(est, sim) == pytest.approx(
                self.brute_force(trace, sim), rel=1e-12)
            # the estimate is one of the sampled partitions
            keys = {canonical_labels(row).tobytes() for row in alloc}
            assert canonical_labels(est).tobytes() in keys

    def test_matches_scan_oracle(self):
        # T a power of two keeps every loss of the float scan exact, so exact
        # ties occur and both must resolve them to the earliest draw
        # (16 draws of up to 20 labels at n = 301 and 1025 span several blocks)
        rng = np.random.default_rng(24)
        traces = [trace for n_range in [(1, 8), (30, 80)]
                  for trace in random_traces(rng, 100, [1, 2, 4, 8, 16, 32, 128], n_range, (1, 5))]
        traces += [make_trace(rng.integers(0, 20, size=(16, n))) for n in (301, 1025)]
        for trace in traces:
            sim = posterior_similarity(trace)
            np.testing.assert_array_equal(
                binder_estimate(trace), H.binder_estimate_scan(trace, sim))

    def test_matches_exact_oracle(self):
        # for other T the float scan can split an exact tie the wrong way
        # (it does at n=32, T=5), so the reference is the integer loss
        # (7 draws of up to 20 labels at n = 301 and 1025 span several blocks)
        rng = np.random.default_rng(25)
        traces = [trace for n_range in [(1, 8), (30, 80)]
                  for trace in random_traces(rng, 200, [3, 5, 6, 7, 9, 11, 12, 13, 77], n_range, (1, 5))]
        traces += [make_trace(rng.integers(0, 20, size=(7, n))) for n in (301, 1025)]
        for trace in traces:
            np.testing.assert_array_equal(
                binder_estimate(trace), H.binder_estimate_exact(trace))

    def test_exact_tie_goes_to_earliest_draw(self):
        # swapping observations 1 and 2 maps [0,0,1] to [0,1,0] and fixes
        # [0,1,1], so all three have the same loss (6/9) against T = 3
        rows = [[0, 1, 0], [0, 0, 1], [0, 1, 1]]
        for shift in range(3):
            rolled = rows[shift:] + rows[:shift]
            trace = make_trace(rolled)
            est = binder_estimate(trace)
            np.testing.assert_array_equal(est, rolled[0])
        # with T = 4 the oracle's float losses tie exactly as well
        trace = make_trace([[1, 1, 0, 0], [0, 1, 0, 1], [0, 0, 1, 1], [1, 0, 1, 0]])
        sim = posterior_similarity(trace)
        np.testing.assert_array_equal(binder_estimate(trace), [1, 1, 0, 0])
        np.testing.assert_array_equal(H.binder_estimate_scan(trace, sim), [1, 1, 0, 0])

    def test_similarity_not_on_the_trace_grid(self):
        # the documented one-liner scores the draws against any similarity
        rng = np.random.default_rng(26)
        for _ in range(20):
            trace = make_trace(rng.integers(0, 3, size=(6, 10)))
            sim = rng.uniform(size=(10, 10))
            sim = 0.5 * (sim + sim.T)
            np.fill_diagonal(sim, 1.0)
            np.testing.assert_array_equal(
                min(trace.alloc, key=lambda a: binder_loss(a, sim)),
                H.binder_estimate_scan(trace, sim))

    def test_prior_only_chain_gets_the_empty_draw(self):
        # a chain run without data records one empty allocation per draw
        hyper = Hyperparams(gamma_fixed=1.0, burn_in=5, thin=1, n_samples=3)
        trace, _ = run_sampler(np.empty((0, 1)), SamplerConfig(hyper=hyper, seed=3))
        assert trace.alloc.shape == (3, 0)
        sim = posterior_similarity(trace)
        est = binder_estimate(trace)
        np.testing.assert_array_equal(est, trace.alloc[0], strict=True)
        assert binder_loss(est, sim) == 0.0

    def test_recovers_exact_modal_partition(self):
        rows = [[0, 0, 1, 1]] * 8 + [[0, 1, 0, 1]] * 2
        est = binder_estimate(make_trace(rows))
        np.testing.assert_array_equal(canonical_labels(est), [0, 0, 1, 1])


class TestPriorClusterCount:
    def test_probabilities_are_a_distribution(self):
        rng = np.random.default_rng(6)
        probs = prior_ma_simulation(1.0, 1.0, 4, 50, 500, rng)
        assert probs.shape == (5,)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert probs[0] == 0.0  # at least one component is always occupied

    def test_gamma_zero_matches_direct_dirichlet_multinomial(self):
        rng = np.random.default_rng(7)
        m, n, reps = 3, 30, 6000
        probs = prior_ma_simulation(1.5, 0.0, m, n, reps, rng)
        direct = np.zeros(m + 1)
        for _ in range(reps):
            w = rng.dirichlet(np.full(m, 1.5))
            hits = rng.multinomial(n, w)
            direct[(hits > 0).sum()] += 1
        direct /= reps
        assert 0.5 * np.abs(probs - direct).sum() < 0.04

    def test_repulsion_lowers_expected_count(self):
        rng = np.random.default_rng(8)
        means = []
        for gamma in (0.0, 3.0):
            probs = prior_ma_simulation(1.0, gamma, 5, 100, 3000, rng)
            means.append((np.arange(6) * probs).sum())
        assert means[1] < means[0]


    # a fractional n was once truncated: 10.5 gave the distribution of n = 10
    @pytest.mark.parametrize("n,reps,name", [
        (0, 10, "n"), (10, 0, "reps"), (-1, 10, "n"), (10.5, 10, "n"), (True, 10, "n"),
        (10, 2.5, "reps"),
    ], ids=["0-10", "10-0", "-1-10", "10.5-10", "True-10", "10-2.5"])
    def test_needs_observations_and_replicates(self, n, reps, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1$"):
            prior_ma_simulation(1.0, 1.0, 3, n, reps, np.random.default_rng(0))


class TestElicitation:
    def test_center_gap_frozen_example(self):
        centers = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 5.0]])
        gaps = center_gap_by_dimension(centers)
        np.testing.assert_allclose(gaps, [2.0, 10.0 / 3.0], rtol=1e-12)

    @pytest.mark.parametrize("k", [0, 1])
    def test_center_gap_needs_two_centers(self, k):
        with pytest.raises(ValueError, match="^need at least two centers$"):
            center_gap_by_dimension(np.zeros((k, 2)))

    @pytest.mark.parametrize("grid", [[], [0.1, 0.0], [-1.0], [0.1, np.nan], [0.1, np.inf]])
    def test_grid_must_hold_positive_values(self, grid):
        with pytest.raises(ValueError, match="^zeta grid must hold positive finite values$"):
            elicit_zeta(np.random.default_rng(3).normal(size=(20, 2)), 3, grid,
                        np.random.default_rng(4))

    def test_wider_spread_selects_smaller_zeta(self):
        rng = np.random.default_rng(12)
        grid = [0.01, 0.1, 1.0]
        tight = np.vstack([rng.normal(c, 0.05, size=(30, 1))
                           for c in (-0.5, 0.0, 0.5)])
        wide = np.vstack([rng.normal(c, 0.05, size=(30, 1))
                          for c in (-14.0, 0.0, 14.0)])
        z_tight = elicit_zeta(tight, 3, grid, np.random.default_rng(1))
        z_wide = elicit_zeta(wide, 3, grid, np.random.default_rng(1))
        assert z_wide < z_tight

    def test_data_without_spread_selects_the_largest_zeta(self):
        # every k-means centre but one ends empty and is dropped
        y = np.zeros((20, 2))
        assert elicit_zeta(y, 3, [0.01, 0.1, 1.0], np.random.default_rng(2)) == 1.0

    @pytest.mark.parametrize("k,message", [
        pytest.param(0, "^k must be an integer >= 2$", id="0"),
        pytest.param(1, "^k must be an integer >= 2$", id="1"),
        pytest.param(21, r"^k must lie in 2\.\.n$", id="21"),
    ])
    def test_k_must_lie_between_two_and_n(self, k, message):
        with pytest.raises(ValueError, match=message):
            elicit_zeta(np.random.default_rng(3).normal(size=(20, 2)), k, [0.1],
                        np.random.default_rng(4))

    @pytest.mark.parametrize("y,k,grid,message", [
        (np.arange(20.0), 3, [0.1], r"^data must be a 2-D array \(n, d\)$"),
        (np.ones((20, 2)), 3.0, [0.1], "^k must be an integer >= 2$"),
        (np.ones((20, 2)), 3.5, [0.1], "^k must be an integer >= 2$"),
        (np.ones((20, 2)), True, [0.1], "^k must be an integer >= 2$"),
        (np.r_[np.ones((19, 2)), [[1.0, np.nan]]], 3, [0.1],
         "^array must not contain infs or NaNs$"),
        (np.ones((20, 2)), 3, ["0.1"], "^zeta grid entry must be a number, got '0.1'$"),
        (np.ones((20, 2)), 3, [True], "^zeta grid entry must be a number, got True$"),
    ], ids=["1-D y", "k=3.0", "k=3.5", "k=True", "NaN in y", "grid '0.1'", "grid True"])
    def test_input_refusals_name_the_input(self, y, k, grid, message):
        with pytest.raises(ValueError, match=message):
            elicit_zeta(y, k, grid, np.random.default_rng(4))

    @pytest.mark.parametrize("reps", [2.5, True])
    def test_reps_must_be_an_integer(self, reps):
        with pytest.raises(ValueError, match="^reps must be an integer >= 1$"):
            elicit_zeta(np.random.default_rng(3).normal(size=(20, 2)), 3, [0.1],
                        np.random.default_rng(4), reps=reps)

    def test_kmeans_is_scipys_bit_for_bit(self):
        # 132 fixed-seed cases: d 1-11 (scipy's vq switches to a BLAS distance
        # from 5 features), every third one rounded so that centres get
        # dropped, every tenth with k = n
        cases, dropped = np.random.default_rng(28), 0
        for case in range(132):
            d = case % 11 + 1
            n = int(cases.integers(5, 13 if case % 10 == 0 else 300))
            k = n if case % 10 == 0 else int(cases.integers(2, min(n, 8) + 1))
            y = cases.normal(size=(n, d)) * cases.uniform(0.1, 10.0) + cases.normal(size=d)
            if case % 3 == 0:
                # mostly zeros: repeated points, some of them starting centres
                y = np.round(0.4 * cases.normal(size=(n, d)))
            seed = int(cases.integers(2**32))
            ours_rng, scipy_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            ours = analysis._kmeans(y, k, ours_rng)
            want, _ = kmeans(y, k, iter=10, rng=scipy_rng)
            assert np.array_equal(ours, want), (case, n, d, k)
            assert ours_rng.random() == scipy_rng.random(), (case, n, d, k)
            dropped += len(want) < k
        assert dropped >= 10

    def test_benchmark_selects_frozen_scale(self):
        y, _ = simulate_benchmark(0)
        chosen = elicit_zeta(y, 5, [0.01, 0.05, 0.1, 0.5, 1.0], np.random.default_rng(1000))
        assert chosen == 0.1

"""Tests for the SimPoint-equivalent clustering stack."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering.bic import weighted_bic
from repro.clustering.kmeans import weighted_kmeans
from repro.clustering.normalize import normalize_l1, normalize_rows
from repro.clustering.projection import random_projection
from repro.clustering.simpoint import KSweep, SimPointClusterer
from repro.config import SimPointConfig
from repro.errors import ClusteringError


class TestNormalize:
    def test_l1(self):
        out = normalize_l1(np.array([1.0, 3.0]))
        assert out.tolist() == [0.25, 0.75]

    def test_zero_vector_unchanged(self):
        assert normalize_l1(np.zeros(3)).tolist() == [0, 0, 0]

    def test_negative_rejected(self):
        with pytest.raises(ClusteringError):
            normalize_l1(np.array([-1.0, 2.0]))

    def test_wrong_ndim(self):
        with pytest.raises(ClusteringError):
            normalize_l1(np.ones((2, 2)))

    def test_rows(self):
        out = normalize_rows(np.array([[2.0, 2.0], [0.0, 0.0]]))
        assert out[0].tolist() == [0.5, 0.5]
        assert out[1].tolist() == [0.0, 0.0]

    @settings(max_examples=25)
    @given(st.lists(st.floats(0, 100, allow_nan=False), min_size=1,
                    max_size=20))
    def test_l1_sums_to_one_or_zero(self, values):
        out = normalize_l1(np.asarray(values))
        total = out.sum()
        assert total == pytest.approx(1.0) or total == 0.0


class TestProjection:
    def test_reduces_dimensionality(self):
        mat = np.random.default_rng(0).random((10, 100))
        out = random_projection(mat, 15, seed=1)
        assert out.shape == (10, 15)

    def test_low_dim_passthrough(self):
        mat = np.random.default_rng(0).random((5, 10))
        out = random_projection(mat, 15, seed=1)
        assert np.array_equal(out, mat)

    def test_deterministic_in_seed(self):
        mat = np.random.default_rng(0).random((6, 50))
        assert np.array_equal(random_projection(mat, 4, 7),
                              random_projection(mat, 4, 7))
        assert not np.array_equal(random_projection(mat, 4, 7),
                                  random_projection(mat, 4, 8))

    def test_preserves_relative_distances(self):
        rng = np.random.default_rng(3)
        # Two tight clusters far apart survive projection.
        a = rng.normal(0, 0.01, (20, 200))
        b = rng.normal(5, 0.01, (20, 200))
        out = random_projection(np.vstack([a, b]), 15, seed=2)
        within = np.linalg.norm(out[0] - out[10])
        across = np.linalg.norm(out[0] - out[30])
        assert across > 5 * within

    def test_nonfinite_rejected(self):
        mat = np.full((3, 30), np.nan)
        with pytest.raises(ClusteringError):
            random_projection(mat, 4, 0)

    def test_bad_dims(self):
        with pytest.raises(ClusteringError):
            random_projection(np.ones((2, 30)), 0, 0)


class TestWeightedKMeans:
    def _two_blobs(self, n=20):
        rng = np.random.default_rng(0)
        a = rng.normal(0.0, 0.05, (n, 3))
        b = rng.normal(4.0, 0.05, (n, 3))
        return np.vstack([a, b])

    def test_separates_blobs(self):
        points = self._two_blobs()
        weights = np.ones(points.shape[0])
        result = weighted_kmeans(points, weights, 2, seed=1)
        labels = result.labels
        assert len(set(labels[:20].tolist())) == 1
        assert len(set(labels[20:].tolist())) == 1
        assert labels[0] != labels[-1]

    def test_k1_center_is_weighted_mean(self):
        points = np.array([[0.0], [10.0]])
        weights = np.array([3.0, 1.0])
        result = weighted_kmeans(points, weights, 1, seed=0)
        assert result.centers[0, 0] == pytest.approx(2.5)

    def test_weights_shift_boundaries(self):
        points = np.array([[0.0], [1.0], [10.0]])
        heavy_left = weighted_kmeans(points, np.array([100.0, 1.0, 1.0]),
                                     1, seed=0)
        heavy_right = weighted_kmeans(points, np.array([1.0, 1.0, 100.0]),
                                      1, seed=0)
        assert heavy_left.centers[0, 0] < heavy_right.centers[0, 0]

    def test_distortion_non_increasing_in_k(self):
        points = self._two_blobs()
        weights = np.ones(points.shape[0])
        distortions = [
            weighted_kmeans(points, weights, k, seed=3).distortion
            for k in (1, 2, 4)
        ]
        assert distortions[0] >= distortions[1] >= distortions[2]

    def test_duplicate_points_handled(self):
        points = np.zeros((10, 2))
        weights = np.ones(10)
        result = weighted_kmeans(points, weights, 4, seed=0)
        assert result.distortion == pytest.approx(0.0)
        assert np.isfinite(result.centers).all()

    def test_invalid_k(self):
        points = np.ones((3, 2))
        with pytest.raises(ClusteringError):
            weighted_kmeans(points, np.ones(3), 4, seed=0)
        with pytest.raises(ClusteringError):
            weighted_kmeans(points, np.ones(3), 0, seed=0)

    def test_non_positive_weights_rejected(self):
        with pytest.raises(ClusteringError):
            weighted_kmeans(np.ones((3, 2)), np.array([1.0, 0.0, 1.0]),
                            1, seed=0)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 5), st.integers(0, 1000))
    def test_labels_always_valid(self, k, seed):
        rng = np.random.default_rng(seed)
        points = rng.random((12, 4))
        weights = rng.random(12) + 0.1
        result = weighted_kmeans(points, weights, k, seed=seed)
        assert result.labels.shape == (12,)
        assert set(result.labels.tolist()) <= set(range(k))
        assert np.isfinite(result.centers).all()


class TestWeightedBic:
    def test_better_fit_higher_bic(self):
        rng = np.random.default_rng(1)
        a = rng.normal(0, 0.05, (15, 3))
        b = rng.normal(3, 0.05, (15, 3))
        points = np.vstack([a, b])
        weights = np.ones(30)
        good = weighted_kmeans(points, weights, 2, seed=0)
        bad = weighted_kmeans(points, weights, 1, seed=0)
        bic_good = weighted_bic(points, weights, good.labels, good.centers)
        bic_bad = weighted_bic(points, weights, bad.labels, bad.centers)
        assert bic_good > bic_bad

    def test_overfitting_penalized_on_duplicates(self):
        # Two distinct values only: k=2 is perfect, k>2 pays the parameter
        # penalty with no likelihood gain (thanks to the variance floor).
        points = np.array([[0.0, 0.0]] * 10 + [[5.0, 5.0]] * 10)
        weights = np.ones(20)
        fits = {
            k: weighted_kmeans(points, weights, k, seed=0) for k in (2, 6)
        }
        bics = {
            k: weighted_bic(points, weights, fit.labels, fit.centers)
            for k, fit in fits.items()
        }
        assert bics[2] >= bics[6]

    def test_shape_mismatch(self):
        with pytest.raises(ClusteringError):
            weighted_bic(np.ones((4, 2)), np.ones(3),
                         np.zeros(4, dtype=int), np.ones((1, 2)))


class TestSimPointClusterer:
    def _clusterer(self, max_k=8):
        return SimPointClusterer(SimPointConfig(max_k=max_k,
                                                kmeans_restarts=2))

    def test_finds_phase_structure(self):
        rng = np.random.default_rng(5)
        phases = [rng.random(40) for _ in range(3)]
        signatures = np.vstack([
            phases[i % 3] + rng.normal(0, 1e-3, 40) for i in range(24)
        ])
        weights = np.ones(24) * 100
        result = self._clusterer().fit(signatures, weights)
        assert result.chosen_k == 3
        # regions of the same phase share labels
        for i in range(0, 24, 3):
            assert result.labels[i] == result.labels[0]

    def test_representative_is_member(self):
        rng = np.random.default_rng(6)
        signatures = rng.random((12, 20))
        weights = rng.random(12) + 1.0
        result = self._clusterer(max_k=4).fit(signatures, weights)
        for cluster, rep in enumerate(result.representatives):
            assert result.labels[rep] == cluster

    def test_single_region(self):
        result = self._clusterer().fit(np.ones((1, 5)), np.array([10.0]))
        assert result.chosen_k == 1
        assert result.representatives == (0,)

    def test_max_k_respected(self):
        rng = np.random.default_rng(7)
        signatures = rng.random((30, 10))
        result = self._clusterer(max_k=5).fit(signatures, np.ones(30))
        assert result.chosen_k <= 5

    def test_ties_prefer_heavier_representative(self):
        signatures = np.vstack([np.ones(5), np.ones(5), np.zeros(5)])
        weights = np.array([1.0, 50.0, 10.0])
        result = self._clusterer(max_k=2).fit(signatures, weights)
        cluster_of_dup = result.labels[0]
        rep = result.representatives[cluster_of_dup]
        assert rep == 1  # the heavier of the two identical regions

    def test_bad_inputs(self):
        with pytest.raises(ClusteringError):
            self._clusterer().fit(np.ones((0, 3)), np.ones(0))
        with pytest.raises(ClusteringError):
            self._clusterer().fit(np.ones((3, 3)), np.ones(4))

    def test_duplicate_heavy_signatures_keep_diagnostics_consistent(self):
        """Regression: with duplicate-heavy data the reported diagnostics
        must stay self-consistent — ``chosen_k`` keys ``bic_by_k`` while
        ``num_clusters`` counts the compacted clusters."""
        signatures = np.vstack([
            np.zeros(6) if i % 2 else np.ones(6) for i in range(12)
        ])
        result = self._clusterer(max_k=6).fit(signatures, np.ones(12))
        assert result.chosen_k in result.bic_by_k
        assert result.num_clusters == len(result.representatives)
        assert result.num_clusters <= result.chosen_k
        assert int(result.labels.max()) + 1 == result.num_clusters
        covered = sorted(
            i
            for cluster in range(result.num_clusters)
            for i in result.members_of(cluster).tolist()
        )
        assert covered == list(range(12))

    def test_empty_cluster_drop_records_selected_k(self, monkeypatch):
        """Regression: when compaction drops an empty cluster, the result
        must still report the *selected* pre-compaction k (a ``bic_by_k``
        key), with the compacted count in ``num_clusters``."""
        from types import SimpleNamespace

        from repro.clustering import simpoint as sp

        def fake_kmeans(points, weights, k, seed, max_iterations, restarts):
            if k == 3:  # cluster 1 comes back empty
                labels = np.array([0, 0, 2, 2, 0, 2])
            else:
                labels = np.arange(points.shape[0]) % k
            centers = np.vstack([
                points[labels == j].mean(axis=0)
                if np.any(labels == j) else np.zeros(points.shape[1])
                for j in range(k)
            ])
            return SimpleNamespace(labels=labels, centers=centers)

        monkeypatch.setattr(sp, "weighted_kmeans", fake_kmeans)
        # Monotone scores make the BIC rule select the largest k (3).
        monkeypatch.setattr(
            sp, "weighted_bic", lambda p, w, labels, c: float(c.shape[0])
        )
        signatures = np.arange(24, dtype=float).reshape(6, 4)
        result = SimPointClusterer(
            SimPointConfig(max_k=3, kmeans_restarts=1)
        ).fit(signatures, np.ones(6))
        assert result.chosen_k == 3
        assert result.chosen_k in result.bic_by_k
        assert result.num_clusters == 2
        assert len(result.representatives) == 2
        assert set(result.labels.tolist()) == {0, 1}  # renumbered densely

    def test_members_of(self):
        rng = np.random.default_rng(8)
        signatures = rng.random((10, 8))
        result = self._clusterer(max_k=3).fit(signatures, np.ones(10))
        seen = []
        for cluster in range(result.num_clusters):
            seen.extend(result.members_of(cluster).tolist())
        assert sorted(seen) == list(range(10))


class TestSharedSweep:
    """Selections at several maxK share one k sweep with identical results."""

    CFG = SimPointConfig(kmeans_restarts=2)

    @staticmethod
    def _phases(n=24, num_phases=8, seed=9):
        rng = np.random.default_rng(seed)
        phases = rng.random((num_phases, 30))
        signatures = phases[np.arange(n) % num_phases] + rng.normal(
            0, 0.05, (n, 30)
        )
        return np.abs(signatures), rng.integers(1, 10**6, n).astype(float)

    @staticmethod
    def _tiny_runner():
        from repro.experiments.common import ExperimentRunner

        return ExperimentRunner(
            scale=0.05, benchmarks=("npb-is",), store=None, workers=1,
            simpoint=SimPointConfig(kmeans_restarts=1),
        )

    @pytest.fixture
    def fitted(self, monkeypatch):
        """The ``k`` of every ``weighted_kmeans`` call, in call order."""
        from repro.clustering import simpoint as sp

        calls = []
        real = sp.weighted_kmeans

        def counting(points, weights, k, **kwargs):
            calls.append(k)
            return real(points, weights, k, **kwargs)

        monkeypatch.setattr(sp, "weighted_kmeans", counting)
        return calls

    @pytest.mark.parametrize("order", [(1, 5, 10, 20, 30), (30, 20, 10, 5, 1)])
    def test_prefix_matches_fresh_fit(self, order):
        signatures, weights = self._phases()
        sweep = KSweep(self.CFG, signatures, weights)
        for max_k in order:
            shared = sweep.result(max_k)
            fresh = SimPointClusterer(replace(self.CFG, max_k=max_k)).fit(
                signatures, weights
            )
            assert shared.labels.dtype == fresh.labels.dtype
            assert np.array_equal(shared.labels, fresh.labels)
            assert shared.representatives == fresh.representatives
            assert shared.chosen_k == fresh.chosen_k
            assert shared.bic_by_k == fresh.bic_by_k
            assert list(shared.bic_by_k) == list(range(1, min(max_k, 24) + 1))

    def test_each_k_fitted_once(self, fitted):
        signatures, weights = self._phases()
        sweep = KSweep(self.CFG, signatures, weights)
        for max_k in (5, 1, 20, 10, 30):
            sweep.result(max_k)
        assert fitted == list(range(1, 25))

    def test_bad_max_k(self):
        signatures, weights = self._phases()
        with pytest.raises(ClusteringError):
            KSweep(self.CFG, signatures, weights).result(0)

    def test_fig5_fits_each_variant_cores_k_once(self, fitted):
        from repro.experiments import fig5_maxk_methods
        from repro.experiments.common import CORE_COUNTS

        runner = self._tiny_runner()
        fig5_maxk_methods.compute(runner)
        n = len(runner.profiles("npb-is", CORE_COUNTS[0]))
        top = min(max(fig5_maxk_methods.MAX_K_SWEEP), n)
        sweeps = len(fig5_maxk_methods.VARIANTS) * len(CORE_COUNTS)
        assert len(fitted) == sweeps * top
        assert all(fitted.count(k) == sweeps for k in range(1, top + 1))

    def test_default_max_k_shares_the_selection(self):
        runner = self._tiny_runner()
        default = runner.selection("npb-is", 8)
        assert runner.selection("npb-is", 8, max_k=20) is default
        assert runner.selection("npb-is", 8, max_k=5) is not default

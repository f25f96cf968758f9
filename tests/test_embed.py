"""Tests for the PCA basis, LLE weights, and latent initialization."""
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

from nlunmix import embed
from nlunmix.embed import init_latents, lle_weights, pca_basis


def _centered(rng, n, l):
    Y = rng.normal(size=(n, l))
    return Y - Y.mean(axis=0)


class TestPcaBasis:
    def test_rank_one_data(self):
        rng = np.random.default_rng(0)
        spectrum = rng.uniform(0.1, 1.0, 6)
        coeff = rng.normal(size=40)
        Yc = np.outer(coeff - coeff.mean(), spectrum)
        pb = pca_basis(Yc, 1)
        cos = abs(pb.basis[:, 0] @ spectrum) / np.linalg.norm(spectrum)
        assert cos >= 1.0 - 1e-10

    def test_isotropic_eigenvalues_close(self):
        rng = np.random.default_rng(1)
        Yc = _centered(rng, 20000, 3)
        pb = pca_basis(Yc, 2)
        assert pb.eigenvalues[0] <= 1.1 * pb.eigenvalues[1]

    def test_full_basis_reconstructs(self):
        rng = np.random.default_rng(2)
        Yc = _centered(rng, 30, 8)
        pb = pca_basis(Yc, 8)
        recon = Yc @ pb.basis @ pb.basis.T
        assert np.max(np.abs(recon - Yc)) < 1e-9

    def test_orthonormal_and_sorted(self):
        rng = np.random.default_rng(3)
        pb = pca_basis(_centered(rng, 50, 10), 4)
        assert np.max(np.abs(pb.basis.T @ pb.basis - np.eye(4))) < 1e-10
        assert np.all(np.diff(pb.eigenvalues) <= 0)

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(4)
        Yc = _centered(rng, 50, 10)
        a = pca_basis(Yc, 3)
        b = pca_basis(Yc.copy(), 3)
        assert np.array_equal(a.basis, b.basis)
        for d in range(3):
            lead = np.argmax(np.abs(a.basis[:, d]))
            assert a.basis[lead, d] > 0

    def test_residual_variance(self):
        rng = np.random.default_rng(5)
        Yc = _centered(rng, 100, 6)
        cov_evals = np.sort(np.linalg.eigvalsh(Yc.T @ Yc / 100))[::-1]
        pb = pca_basis(Yc, 2)
        assert pb.residual_variance == pytest.approx(cov_evals[2:].mean(), rel=1e-10)

    def test_rejects_oversized_d(self):
        with pytest.raises(ValueError):
            pca_basis(np.zeros((5, 3)), 4)


class TestLleWeights:
    def test_collinear_midpoint(self):
        Y = np.array([[0.0, 1.0], [1.0, 1.0], [2.0, 1.0]])
        w = lle_weights(Y, K=2)
        i = 1  # midpoint pixel
        vals = dict(zip(w.neighbors[i], w.weights[i]))
        assert vals[0] == pytest.approx(0.5, abs=1e-8)
        assert vals[2] == pytest.approx(0.5, abs=1e-8)

    def test_beats_uniform_weights(self):
        rng = np.random.default_rng(6)
        Y = rng.normal(size=(40, 5))
        w = lle_weights(Y, K=3)
        obj = w.objective(Y)
        uniform = 0.0
        for i in range(40):
            uniform += np.sum((Y[i] - Y[w.neighbors[i]].mean(axis=0)) ** 2)
        assert obj <= uniform + 1e-12

    def test_duplicated_pixel(self):
        rng = np.random.default_rng(7)
        Y = rng.normal(size=(10, 4))
        Y[3] = Y[8]
        w = lle_weights(Y, K=1)
        assert w.neighbors[3, 0] == 8
        assert w.weights[3, 0] == pytest.approx(1.0, abs=1e-10)
        resid = Y[3] - w.weights[3, 0] * Y[8]
        assert np.max(np.abs(resid)) < 1e-10

    def test_objective_monotone_in_k(self):
        rng = np.random.default_rng(8)
        Y = rng.normal(size=(30, 6))
        objs = [lle_weights(Y, K).objective(Y) for K in range(1, 6)]
        for a, b in zip(objs, objs[1:]):
            assert b <= a + 1e-9

    def test_sparsity_count(self):
        rng = np.random.default_rng(9)
        Y = rng.normal(size=(25, 4))
        w = lle_weights(Y, K=3)
        assert w.matrix().nnz == 25 * 3
        assert w.neighbors.shape == (25, 3)

    def test_tie_break_lower_index(self):
        # pixel 0 has two equidistant neighbors, indices 1 and 2
        Y = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [5.0, 5.0]])
        w = lle_weights(Y, K=1)
        assert w.neighbors[0, 0] == 1

    def test_rejects_k_too_large(self):
        with pytest.raises(ValueError):
            lle_weights(np.zeros((4, 2)), K=4)

    def test_singular_gram_regularized(self):
        # three identical neighbors make the local Gram exactly singular
        Y = np.array([[1.0, 1.0]] * 4 + [[9.0, 9.0]])
        w = lle_weights(Y, K=3)
        assert np.all(np.isfinite(w.weights))


def _weights_per_row(Y, neighbors):
    """Reference: one K x K solve per pixel, with its ridge and
    least-squares fallbacks."""
    K = neighbors.shape[1]
    weights = np.empty(neighbors.shape)
    for i in range(len(Y)):
        Z = Y[neighbors[i]]
        G = Z @ Z.T
        b = Z @ Y[i]
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
                w = scipy.linalg.solve(G, b, assume_a="pos")
            if not np.all(np.isfinite(w)):
                raise np.linalg.LinAlgError
        except (np.linalg.LinAlgError, ValueError):
            try:
                w = scipy.linalg.solve(G + 1e-9 * np.trace(G) * np.eye(K), b, assume_a="pos")
            except (np.linalg.LinAlgError, ValueError):
                w = np.linalg.lstsq(G, b, rcond=None)[0]
        weights[i] = w
    return weights


class TestStackedWeightSolves:
    """The stacked solves give the per-row solves' weights bit for bit,
    fallbacks included, whatever rows share a stack."""

    @staticmethod
    def _fixture(kind):
        rng = np.random.default_rng(12)
        Y = rng.normal(size=(60, 5))
        if kind == "duplicates":  # singular local Gram matrices: the ridge
            Y[[10, 11, 12]] = Y[3]
            Y[[40, 41]] = Y[20]
        elif kind == "zeros":  # an all-zero neighborhood: least squares
            Y[[0, 17, 33, 50]] = 0.0
        return Y

    @pytest.mark.parametrize("kind", ["plain", "duplicates", "zeros"])
    @pytest.mark.parametrize("K", [1, 3])
    @pytest.mark.parametrize("entries", [None, 7 * 5])
    def test_weights_equal_per_row_solves(self, monkeypatch, kind, K, entries):
        Y = self._fixture(kind)
        if entries is not None:  # stacks of 7 rows for K = 1, 2 rows for K = 3
            monkeypatch.setattr(embed, "KNN_BLOCK_ENTRIES", entries)
        calls = {"lstsq": 0}
        lstsq = np.linalg.lstsq

        def counted(*args, **kwargs):
            calls["lstsq"] += 1
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counted)
        w = lle_weights(Y, K)
        want = _weights_per_row(Y, w.neighbors)
        assert np.array_equal(w.weights, want)
        assert (calls["lstsq"] > 0) == (kind == "zeros")

    def test_duplicates_take_the_ridge(self, monkeypatch):
        ridged = []
        ridge = embed._ridged_weights
        monkeypatch.setattr(embed, "_ridged_weights", lambda G, b: ridged.append(1) or ridge(G, b))
        lle_weights(self._fixture("duplicates"), 3)
        assert ridged


def _dense_neighbors(Y, K):
    """Brute-force reference: the full distance matrix, stable-sorted per row."""
    sq = np.sum(Y**2, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (Y @ Y.T)
    np.fill_diagonal(d2, np.inf)
    return np.argsort(d2, axis=1, kind="stable")[:, :K], d2


class TestBlockedNeighborSearch:
    @staticmethod
    def _lattice():
        # a 4 x 4 integer grid plus seven duplicated pixels, shuffled: every
        # distance is exact and most rows have equidistant candidates
        grid = np.array([[x, y, 0.0] for x in range(4) for y in range(4)])
        Y = np.vstack([grid, grid[[0, 5, 5, 10, 15, 3, 12]]])
        return Y[np.random.default_rng(0).permutation(len(Y))]

    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    @pytest.mark.parametrize("step", [1, 5])
    def test_ties_across_blocks_match_dense_sort(self, monkeypatch, K, step):
        Y = self._lattice()
        n = len(Y)  # 23 rows; blocks of 5 leave a short last block of 3
        ref, d2 = _dense_neighbors(Y, K)
        single = lle_weights(Y, K)  # N is far below one block's capacity
        monkeypatch.setattr(embed, "KNN_BLOCK_ENTRIES", step * n)
        blocked = lle_weights(Y, K)

        # the fixture has rows whose tied candidates at the K-th distance
        # lie in different column blocks, on both sides of a block edge
        kth = np.sort(d2, axis=1)[:, K - 1:K]
        tied = [np.flatnonzero(row <= t) for row, t in zip(d2, kth) if np.sum(row <= t) > K]
        assert any(np.unique(cols // step).size > 1 for cols in tied)

        assert np.array_equal(single.neighbors, ref)
        assert np.array_equal(blocked.neighbors, ref)
        assert np.array_equal(blocked.weights, single.weights)

    def test_random_data_matches_dense_sort(self, monkeypatch):
        Y = np.random.default_rng(10).normal(size=(97, 6))
        Y[40] = Y[3]
        Y[90] = Y[3]
        monkeypatch.setattr(embed, "KNN_BLOCK_ENTRIES", 11 * len(Y))
        assert np.array_equal(lle_weights(Y, 4).neighbors, _dense_neighbors(Y, 4)[0])

    def test_memory_stays_below_dense_matrix(self):
        # one 4000 x 4000 float64 matrix is 128 MB; the blocked search holds
        # a few blocks of at most KNN_BLOCK_ENTRIES distances at a time
        Y = np.random.default_rng(11).normal(size=(4000, 8))
        tracemalloc.start()
        try:
            lle_weights(Y, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20


def _low_rank(n, l=40, r=3, sigma2=1e-4, seed=20):
    """Centered linear mixtures of r endmembers plus white noise, like the
    bench scenes."""
    rng = np.random.default_rng(seed)
    Y = rng.dirichlet(np.ones(r), n) @ rng.uniform(0.0, 1.0, (r, l))
    Y += rng.normal(scale=np.sqrt(sigma2), size=Y.shape)
    return Y - Y.mean(axis=0)


def _record_scans(monkeypatch):
    """Wrap the block-distance helper; return the list of (rows, cols,
    shape) of its calls, rows as given (a slice in the all-pairs scan)."""
    calls = []
    scan = embed._scan_distances

    def recorded(Y, sq, rows, cols=None):
        d2 = scan(Y, sq, rows, cols)
        calls.append((rows, cols, d2.shape))
        return d2

    monkeypatch.setattr(embed, "_scan_distances", recorded)
    return calls


class TestPrunedNeighborSearch:
    """The k-d tree search returns the dense stable sort's neighbors, so the
    weights are those of per-row solves on them, bit for bit."""

    @staticmethod
    def _assert_dense(Y, K):
        w = lle_weights(Y, K)
        ref = _dense_neighbors(Y, K)[0]
        assert np.array_equal(w.neighbors, ref)
        assert np.array_equal(w.weights, _weights_per_row(Y, ref))

    def test_low_rank_scene(self):
        self._assert_dense(_low_rank(3000), 3)

    def test_isotropic_data_scans_all_columns(self, monkeypatch):
        # in 8-D the 3-D bound leaves about a quarter of the pixels as each
        # row's candidates, so leaves fall back to all N columns
        calls = _record_scans(monkeypatch)
        self._assert_dense(np.random.default_rng(11).normal(size=(4000, 8)), 3)
        assert any(cols is None and not isinstance(rows, slice) for rows, cols, _ in calls)

    @pytest.mark.parametrize("K", [1, 3, 49])
    def test_identical_pixels(self, monkeypatch, K):
        calls = _record_scans(monkeypatch)
        Y = np.tile(np.random.default_rng(13).normal(size=6), (50, 1))
        self._assert_dense(Y, K)
        assert any(isinstance(rows, slice) for rows, _, _ in calls)  # all tied

    def test_rank_one_data(self):
        rng = np.random.default_rng(14)
        self._assert_dense(np.outer(rng.normal(size=300), rng.uniform(0.1, 1.0, 12)), 3)

    def test_k_is_n_minus_one(self):
        self._assert_dense(_low_rank(60, l=10), 59)

    @pytest.mark.parametrize("entries", [2**13, 2**14])
    def test_small_blocks_split_candidate_sets(self, monkeypatch, entries):
        # 2**14: each leaf's candidate columns are scored in several row
        # parts; 2**13: most leaves' candidates exceed the gathering budget
        # and they are scored against all N in parts of two or three rows
        Y = _low_rank(3000)
        ref = lle_weights(Y, 3)
        calls = _record_scans(monkeypatch)
        monkeypatch.setattr(embed, "KNN_BLOCK_ENTRIES", entries)
        w = lle_weights(Y, 3)
        assert all(rows * cols <= max(entries, len(Y)) for _, _, (rows, cols) in calls)
        assert any(rows < embed._LEAF_ROWS // 2 for _, _, (rows, _) in calls)
        assert np.array_equal(w.neighbors, ref.neighbors)
        assert np.array_equal(w.weights, ref.weights)
        assert np.array_equal(ref.neighbors, _dense_neighbors(Y, 3)[0])

    def test_scores_a_fraction_of_the_pairs_in_bounded_memory(self, monkeypatch):
        # dense distances at N = 20,000 would be 3.2 GB; the search keeps a
        # few blocks of at most KNN_BLOCK_ENTRIES entries plus O(N) arrays
        Y = _low_rank(20_000)
        calls = _record_scans(monkeypatch)
        tracemalloc.start()
        try:
            lle_weights(Y, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(rows * cols for _, _, (rows, cols) in calls) < len(Y) ** 2 / 10
        assert peak < 48 * 2**20

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_pixels(self, bad):
        Y = np.random.default_rng(15).normal(size=(20, 4))
        Y[7, 2] = bad
        Y[12, 0] = np.nan
        with pytest.raises(ValueError, match="pixel 7 "):
            lle_weights(Y, 3)


class TestInitLatents:
    def _inputs(self, seed=0, n=60, l=8, R=3):
        rng = np.random.default_rng(seed)
        Yc = _centered(rng, n, l)
        basis = pca_basis(Yc, R - 1).basis
        return Yc, basis, R

    def test_rows_sum_to_one(self):
        Yc, basis, _ = self._inputs()
        X0 = init_latents(Yc, basis)
        assert np.all(np.abs(X0.sum(axis=1) - 1.0) <= 1e-12)

    def test_identical_pixels_identical_rows(self):
        Yc, basis, _ = self._inputs()
        Yc = Yc.copy()
        Yc[5] = Yc[17]
        X0 = init_latents(Yc, basis)
        assert np.array_equal(X0[5], X0[17])

    def test_per_axis_stdev(self):
        Yc, basis, R = self._inputs()
        X0 = init_latents(Yc, basis)
        stds = X0[:, : R - 1].std(axis=0)
        assert np.all(np.abs(stds - 1.0 / (2 * R)) <= 1e-9)

    def test_deterministic(self):
        Yc, basis, _ = self._inputs(seed=1)
        assert np.array_equal(init_latents(Yc, basis), init_latents(Yc, basis))

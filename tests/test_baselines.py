"""Tests for VCA endmember extraction and exact FCLS abundances."""
import tracemalloc

import numpy as np
import pytest

from nlunmix.baselines import fcls, kkt_residual, simplex_lstsq, vca
from nlunmix.core import EndmemberSet, center
from nlunmix.metrics import align_columns, sam
from nlunmix.scene import (
    SceneRecipe,
    add_noise,
    generate_scene,
    mix,
    sample_abundances,
    synth_endmembers,
)


class TestSimplexLstsq:
    def test_vertex_pixel(self):
        M = synth_endmembers(3, 16, seed=0).spectra
        for r in range(3):
            a = simplex_lstsq(M, M[:, r])
            want = np.zeros(3)
            want[r] = 1.0
            assert np.max(np.abs(a - want)) < 1e-10

    def test_interior_exact_mixture(self):
        M = synth_endmembers(3, 16, seed=1).spectra
        y = 0.5 * M[:, 0] + 0.5 * M[:, 1]
        a = simplex_lstsq(M, y)
        assert np.max(np.abs(a - [0.5, 0.5, 0.0])) < 1e-10

    def test_beats_random_feasible_points(self):
        rng = np.random.default_rng(2)
        M = synth_endmembers(4, 12, seed=2).spectra
        for _ in range(5):
            y = rng.normal(size=12)
            a = simplex_lstsq(M, y)
            f_opt = np.sum((y - M @ a) ** 2)
            cand = rng.dirichlet(np.ones(4), size=1000)
            f_cand = np.sum((y[None, :] - cand @ M.T) ** 2, axis=1)
            assert f_opt <= f_cand.min() + 1e-12

    def test_kkt_residual_small(self):
        rng = np.random.default_rng(3)
        M = rng.uniform(0.05, 1.0, size=(20, 5))
        for _ in range(50):
            y = rng.normal(scale=0.8, size=20)
            a = simplex_lstsq(M, y)
            assert kkt_residual(M, y, a) <= 1e-9
            assert a.min() >= 0.0
            assert abs(a.sum() - 1.0) <= 1e-12

    def test_grid_oracle_r3(self):
        rng = np.random.default_rng(4)
        M = synth_endmembers(3, 10, seed=4).spectra
        step = 1e-3
        g1 = np.arange(0.0, 1.0 + step / 2, step)
        pts = []
        for a1 in g1:
            a2 = np.arange(0.0, 1.0 - a1 + step / 2, step)
            block = np.empty((a2.size, 3))
            block[:, 0] = a1
            block[:, 1] = a2
            block[:, 2] = 1.0 - a1 - a2
            pts.append(block)
        grid = np.vstack(pts)
        for _ in range(3):
            y = rng.normal(scale=0.5, size=10) + 0.5
            a = simplex_lstsq(M, y)
            f_opt = np.sum((y - M @ a) ** 2)
            f_grid = np.min(np.sum((y[None, :] - grid @ M.T) ** 2, axis=1))
            assert f_opt <= f_grid + 1e-12
            # the optimum cannot be better than the best grid point by more
            # than the grid resolution allows
            gnorm = np.linalg.norm(M.T @ (M @ a - y))
            smax = np.linalg.svd(M, compute_uv=False)[0]
            bound = 2 * gnorm * step + smax**2 * step**2
            assert f_grid - f_opt <= bound


def _simplex_lstsq_row(M, y, max_iter=None):
    """Reference: the one-pixel active-set solver that simplex_lstsq batches."""
    L, R = M.shape
    if max_iter is None:
        max_iter = 6 * R * R + 30
    G = M.T @ M
    q = M.T @ y
    a = np.full(R, 1.0 / R)
    passive = np.ones(R, dtype=bool)

    def eq_solve(mask):
        idx = np.flatnonzero(mask)
        k = idx.size
        kkt = np.zeros((k + 1, k + 1))
        kkt[:k, :k] = G[np.ix_(idx, idx)]
        kkt[:k, k] = 1.0
        kkt[k, :k] = 1.0
        sol = np.linalg.solve(kkt, np.concatenate([q[idx], [1.0]]))
        full = np.zeros(R)
        full[idx] = sol[:k]
        return full, sol[k]

    for _ in range(max_iter):
        trial, nu = eq_solve(passive)
        if trial[passive].min() > -1e-13:
            a = np.where(passive, trial, 0.0)
            lam = G @ a - q + nu
            blocked = ~passive
            if not blocked.any() or lam[blocked].min() >= -1e-9:
                return np.maximum(a, 0.0)
            passive[np.flatnonzero(blocked)[np.argmin(lam[blocked])]] = True
            continue
        drops = passive & (trial <= 0.0)
        denom = a - trial
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(drops & (denom > 0), a / denom, np.inf)
        ratios = np.where(drops & (denom <= 0), 0.0, ratios)
        t = min(1.0, float(ratios[drops].min()))
        a = a + t * (trial - a)
        a[~passive] = 0.0
        newly = passive & drops & (a <= 1e-13)
        assert newly.any(), "reference step made no progress"
        a[newly] = 0.0
        passive[newly] = False
    raise AssertionError("reference did not converge")


class TestBatchedSimplexLstsq:
    @staticmethod
    def _pixels(M, rng):
        """Random pixels, the vertices, the edge midpoints, and repeats."""
        L, R = M.shape
        noisy = rng.dirichlet(np.ones(R), size=40) @ M.T + rng.normal(scale=0.3, size=(40, L))
        outside = rng.normal(scale=0.8, size=(20, L)) + 0.5
        mids = np.array([(M[:, i] + M[:, j]) / 2 for i in range(R) for j in range(i + 1, R)])
        Y = np.vstack([noisy, outside, M.T, mids])
        return np.vstack([Y, Y[::3], Y[:5]])

    @pytest.mark.parametrize("R", [2, 3, 4, 5])
    def test_rows_match_one_pixel_solver(self, R):
        rng = np.random.default_rng(20 + R)
        for M in (rng.uniform(0.05, 1.0, size=(12, R)), rng.normal(size=(R - 1, R))):
            Y = self._pixels(M, rng)
            A = simplex_lstsq(M, Y)
            ref = np.array([_simplex_lstsq_row(M, y) for y in Y])
            assert A.shape == (len(Y), R)
            np.testing.assert_allclose(A, ref, rtol=0, atol=1e-12)
            assert max(kkt_residual(M, y, a) for y, a in zip(Y, A)) <= 1e-9
            # repeated pixels get the identical row
            assert np.array_equal(A[len(Y) - 5:], A[:5])

    def test_one_pixel_gives_one_row(self):
        M = synth_endmembers(3, 16, seed=0).spectra
        y = 0.2 * M[:, 0] + 0.8 * M[:, 2]
        a = simplex_lstsq(M, y)
        assert a.shape == (3,)
        assert np.array_equal(a, simplex_lstsq(M, y[None, :])[0])

    @pytest.mark.parametrize("R", [2, 3, 4, 5])
    def test_affinely_dependent_columns_fail_naming_the_row(self, R):
        # the last column is an exact affine combination of the first two:
        # a duplicate for R = 2, their midpoint otherwise
        rng = np.random.default_rng(30 + R)
        M = rng.integers(1, 16, size=(12, R)) / 16.0
        M[:, -1] = M[:, 0] if R == 2 else (M[:, 0] + M[:, 1]) / 2
        Y = rng.normal(scale=0.1, size=(6, 12)) + 0.5
        for scale in (1e-8, 1.0, 1e8):
            with pytest.raises(np.linalg.LinAlgError, match=r"row 0 \(6 of 6 rows failed\): singular KKT"):
                simplex_lstsq(M * scale, Y * scale)

    def test_stuck_rows_are_named_first_to_last(self):
        M = synth_endmembers(3, 16, seed=0).spectra
        Y = np.random.default_rng(5).normal(scale=0.1, size=(10, 16)) + 0.5
        Y[[7, 3]] = np.nan
        with pytest.raises(RuntimeError, match=r"row 3 \(2 of 10 rows failed\): .*no progress"):
            simplex_lstsq(M, Y)

    def test_unconverged_rows_are_named(self):
        M = synth_endmembers(3, 16, seed=0).spectra
        y = 2.0 * M[:, 0] - 0.5 * M[:, 1]  # needs more than one step
        with pytest.raises(RuntimeError, match=r"row 1 \(1 of 2 rows failed\): .*converge in 1 steps"):
            simplex_lstsq(M, np.vstack([M[:, 0], y]), max_iter=1)


class TestFcls:
    def test_rows_on_simplex(self):
        scene = generate_scene(SceneRecipe(model="lmm", R=3, L=16, N=40, sigma2=1e-4, seed=5))
        A = fcls(scene.image, scene.endmembers)
        v = A.values
        assert np.all(v >= 0)
        assert np.max(np.abs(v.sum(axis=1) - 1.0)) <= 1e-12

    def test_recovers_abundances_noise_free(self):
        M = synth_endmembers(3, 24, seed=6)
        A = sample_abundances(60, 3, amax=1.0, seed=6)
        img = mix(SceneRecipe(model="lmm", R=3, L=24, N=60, sigma2=1e-4, seed=6), A, M)
        Ahat = fcls(img, M)
        assert np.max(np.abs(Ahat.values - A.values)) < 1e-8

    def test_rank_deficient_rejected(self):
        S = np.ones((8, 3))
        with pytest.raises(ValueError):
            fcls(np.ones((4, 8)), EndmemberSet(S))


class TestVca:
    def _pure_scene(self, model="lmm", sigma2=None, seed=7, N=200, L=24):
        M = synth_endmembers(3, L, seed=seed)
        A = sample_abundances(N - 3, 3, amax=1.0, seed=seed)
        Av = np.vstack([A.values, np.eye(3)])  # guarantee pure pixels
        from nlunmix.core import AbundanceMatrix

        rec = SceneRecipe(model=model, R=3, L=L, N=N, sigma2=sigma2 or 1e-4, seed=seed)
        img = mix(rec, AbundanceMatrix(Av), M)
        if sigma2 is not None:
            img = add_noise(img, sigma2, seed=seed + 1)
        return img, M

    def test_noise_free_recovers_pure_pixels(self):
        img, M = self._pure_scene()
        est = vca(img, 3, seed=0)
        perm = align_columns(M, est)
        aligned = est.spectra[:, perm]
        assert np.max(np.abs(aligned - M.spectra)) < 1e-12

    def test_noisy_sam_small(self):
        img, M = self._pure_scene(sigma2=1e-4, N=500)
        est = vca(img, 3, seed=1)
        perm = align_columns(M, est)
        for r in range(3):
            assert sam(M.spectra[:, r], est.spectra[:, perm[r]]) <= 1e-2

    def test_deterministic(self):
        img, _ = self._pure_scene(sigma2=1e-4)
        a = vca(img, 3, seed=42)
        b = vca(img, 3, seed=42)
        assert np.array_equal(a.spectra, b.spectra)

    def test_rejects_rank_deficient(self):
        rank1 = np.outer(np.linspace(0, 1, 30), np.ones(8))
        from nlunmix.core import HyperImage

        with pytest.raises(ValueError):
            vca(HyperImage(rank1 + 0.1), 3, seed=0)

    def test_rejects_rank_deficient_past_the_subsample(self):
        # N = 1000 >= 8 L, so the strided subsample is tried first; it cannot
        # certify rank 3 and the full SVD rejects the image as before
        from nlunmix.core import HyperImage

        rank2 = np.outer(np.linspace(0, 1, 1000), np.ones(8))
        rank2[:, 0] += np.linspace(0, 1, 1000) ** 2
        with pytest.raises(ValueError):
            vca(HyperImage(rank2 + 0.1), 3, seed=0)

    def test_rank_carried_off_the_stride_is_accepted(self):
        # every pixel the rank subsample reads is the same spectrum; only
        # the pixels between them span three dimensions, so the full SVD
        # must decide, and it accepts
        from nlunmix.baselines import _rank_certified
        from nlunmix.core import HyperImage

        L, N = 8, 400
        step = N // (4 * L)
        M = synth_endmembers(3, L, seed=3).spectra
        A = sample_abundances(N, 3, amax=1.0, seed=3).values
        pixels = A @ M.T
        pixels[::step] = M.mean(axis=1)
        assert np.linalg.matrix_rank(pixels[::step]) == 1
        assert not _rank_certified(pixels.T, 3)
        est = vca(HyperImage(pixels), 3, seed=0)
        assert est.spectra.shape == (L, 3)

    def test_rejects_centered_input(self):
        img, _ = self._pure_scene()
        cimg, _ = center(img)
        with pytest.raises(ValueError):
            vca(cimg, 3, seed=0)

    @pytest.mark.parametrize("sigma2", [1e-4, 1e-1])
    def test_memory_stays_below_image_size(self, sigma2):
        # N=4000, L=160: one image is 5.12 MB.  sigma2 1e-4 takes the
        # projective branch (SNR 34 dB), 1e-1 the affine one (4 dB).  Both
        # used to build the centered L x N copy, the full projection and a
        # squared copy for the SNR: 11.2 MB and 16.0 MB peaks; now ~1 MB
        img, _ = self._pure_scene(sigma2=sigma2, N=4000, L=160)
        tracemalloc.start()
        try:
            vca(img, 3, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * img.pixels.nbytes

    def test_noisy_scene_matches_centered_reference(self):
        # the affine branch projects with the centered second moment, formed
        # here as E[y y^T] - mean mean^T; the vertices it picks and their
        # spectra match the explicit centered-copy formulation
        img, _ = self._pure_scene(sigma2=1e-1, N=500, L=40)
        Ym = img.pixels.T
        Yo = Ym - Ym.mean(axis=1, keepdims=True)
        Ud = np.linalg.svd(Yo @ Yo.T / Ym.shape[1])[0][:, :2]
        x = Ud.T @ Yo
        est = vca(img, 3, seed=0).spectra
        # each returned spectrum is the projection of one pixel
        proj = Ud @ x + Ym.mean(axis=1, keepdims=True)
        for r in range(3):
            dist = np.max(np.abs(proj - est[:, r : r + 1]), axis=0)
            assert dist.min() <= 1e-12


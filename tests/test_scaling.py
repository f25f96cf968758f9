"""Tests for the minimum-volume simplex fit and the abundance scaling."""
from itertools import permutations

import numpy as np
import pytest

from nlunmix.metrics import rnmse
from nlunmix.scaling import (
    MU_SCHEDULE,
    SimplexFit,
    _augment,
    _bfgs,
    _homogeneous,
    _inflate_to_contain,
    _nfindr,
    _penalized_objective,
    constrained_latents,
    fit_min_volume_simplex,
)
from nlunmix.scene import sample_abundances


def vertex_error(V_true, V_est):
    """Best column alignment in Euclidean distance, max vertex error."""
    R = V_true.shape[1]
    best = np.inf
    for p in permutations(range(R)):
        err = np.max(np.linalg.norm(V_true - V_est[:, p], axis=0))
        best = min(best, err)
    return best


def latent_cloud(V, N, amax=1.0, seed=0, include_vertices=False):
    A = sample_abundances(N, V.shape[1], amax=amax, seed=seed).values
    if include_vertices:
        A = np.vstack([A, np.eye(V.shape[1])])
    return A @ V.T, A


class TestPenalizedObjective:
    @pytest.mark.parametrize("per_face", [False, True])
    def test_gradient_matches_fd(self, per_face):
        rng = np.random.default_rng(0)
        for R in (2, 3, 4):
            X = rng.normal(size=(30, R - 1))
            Xt = np.vstack([X.T, np.ones((1, 30))])
            v = rng.normal(scale=2.0, size=(R - 1) * R)
            mu = rng.uniform(50, 200, size=R) if per_face else 100.0
            _, g = _penalized_objective(v, Xt, R, mu=mu)
            h = 1e-6
            for i in range(v.size):
                e = np.zeros_like(v)
                e[i] = h
                fp = _penalized_objective(v + e, Xt, R, mu=mu)[0]
                fm = _penalized_objective(v - e, Xt, R, mu=mu)[0]
                assert g[i] == pytest.approx((fp - fm) / (2 * h), abs=1e-4, rel=1e-5)


class TestBfgs:
    def test_quadratic_stops_on_gtol(self):
        # f = 1/2 x^T A x - b^T x; a gradient test loose enough that the
        # value still falls visibly per step is what stops it
        rng = np.random.default_rng(0)
        Q = np.linalg.qr(rng.normal(size=(6, 6)))[0]
        A = Q @ np.diag(np.logspace(0, 2, 6)) @ Q.T
        b = rng.normal(size=6)

        def fg(x):
            return 0.5 * x @ A @ x - b @ x, A @ x - b

        x, nit, stop = _bfgs(fg, np.zeros(6), gtol=1e-6)
        assert stop == "gtol"
        assert nit < 100
        assert np.max(np.abs(A @ x - b)) <= 1e-6
        np.testing.assert_allclose(x, np.linalg.solve(A, b), rtol=0, atol=1e-6)

    def test_quadratic_at_its_minimum_takes_no_step(self):
        A = np.diag([1.0, 4.0])
        x, nit, stop = _bfgs(lambda x: (0.5 * x @ A @ x, A @ x), np.zeros(2))
        assert (nit, stop) == (0, "gtol")
        assert np.array_equal(x, np.zeros(2))

    @staticmethod
    def _rosenbrock(x):
        a, b = x
        f = (1 - a) ** 2 + 100 * (b - a * a) ** 2
        g = np.array([-2 * (1 - a) - 400 * a * (b - a * a), 200 * (b - a * a)])
        return f, g

    def test_rosenbrock_converges(self):
        x, nit, stop = _bfgs(self._rosenbrock, np.array([-1.2, 1.0]))
        assert stop in ("gtol", "ftol")
        assert nit < 500
        np.testing.assert_allclose(x, [1.0, 1.0], rtol=0, atol=1e-7)

    def test_rosenbrock_stops_on_ftol(self):
        # a loose relative-decrease test ends the valley crawl early, with
        # the gradient still far from zero
        x, nit, stop = _bfgs(self._rosenbrock, np.array([-1.2, 1.0]), gtol=0.0, ftol=1e-2)
        assert stop == "ftol"
        assert nit < 500
        assert np.max(np.abs(self._rosenbrock(x)[1])) > 1e-6

    def test_rosenbrock_stops_at_maxiter(self):
        x, nit, stop = _bfgs(self._rosenbrock, np.array([-1.2, 1.0]), maxiter=5)
        assert (nit, stop) == (5, "maxiter")
        assert self._rosenbrock(x)[0] < self._rosenbrock(np.array([-1.2, 1.0]))[0]


def _reference_vertices(X, noise_scale=None):
    """The simplex fit's stages with scipy's L-BFGS-B in place of _bfgs."""
    import scipy.optimize

    def lbfgsb(V, mu):
        res = scipy.optimize.minimize(
            _penalized_objective, V.ravel(), args=(Xt, R, mu), jac=True,
            method="L-BFGS-B", options=dict(maxiter=500, ftol=1e-16, gtol=1e-12),
        )
        return res.x.reshape(R - 1, R)

    n, R = X.shape[0], X.shape[1] + 1
    Xt = _homogeneous(X)
    V = _inflate_to_contain(_nfindr(X), X)
    for mu in MU_SCHEDULE:
        V = lbfgsb(V, mu)
    if noise_scale is not None and noise_scale > 0:
        W = np.linalg.inv(_augment(V))
        face_norm2 = np.sum(W[:, : R - 1] ** 2, axis=1)
        mu_faces = np.minimum(1.0 / (2.0 * n * noise_scale**2 * face_norm2), MU_SCHEDULE[-1])
        V = lbfgsb(V, mu_faces)
    return V


class TestMatchesLbfgsbReference:
    @pytest.mark.parametrize(
        "case",
        ["pure_pixels", "truncated", "noise_weighted_faces", "r4_truncated", "r2_segment"],
    )
    def test_vertices_match(self, case):
        noise_scale = None
        if case == "pure_pixels":
            X, _ = latent_cloud(np.array([[0.0, 1.0, 0.2], [0.0, 0.1, 0.9]]), 400, seed=1,
                                include_vertices=True)
        elif case in ("truncated", "noise_weighted_faces"):
            X, _ = latent_cloud(np.array([[0.0, 1.0, 0.3], [0.0, 0.2, 1.1]]), 1500, amax=0.9,
                                seed=3)
            if case == "noise_weighted_faces":
                noise_scale = 0.01
                X = X + np.random.default_rng(0).normal(scale=noise_scale, size=X.shape)
        elif case == "r4_truncated":
            V4 = np.array([[0.0, 1.0, 0.0, 0.3], [0.0, 0.0, 1.0, 0.3], [0.0, 0.0, 0.0, 1.0]])
            X, _ = latent_cloud(V4, 800, amax=0.9, seed=5)
        else:
            X = np.random.default_rng(2).uniform(-0.3, 1.7, size=(200, 1))
        ref = _reference_vertices(X, noise_scale)
        got = fit_min_volume_simplex(X, noise_scale=noise_scale).vertices
        assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref))


class TestFitMinVolumeSimplex:
    def test_exact_recovery_with_vertices(self):
        V_true = np.array([[0.0, 1.0, 0.2], [0.0, 0.1, 0.9]])
        X, _ = latent_cloud(V_true, 400, seed=1, include_vertices=True)
        fit = fit_min_volume_simplex(X)
        assert vertex_error(V_true, fit.vertices) <= 1e-6

    def test_r2_segment(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-0.3, 1.7, size=(200, 1))
        fit = fit_min_volume_simplex(pts)
        lo, hi = pts.min(), pts.max()
        got = np.sort(fit.vertices.ravel())
        assert got[0] == pytest.approx(lo, abs=1e-6)
        assert got[1] == pytest.approx(hi, abs=1e-6)

    def test_truncated_cloud_recovery(self):
        V_true = np.array([[0.0, 1.0, 0.3], [0.0, 0.2, 1.1]])
        X, A_true = latent_cloud(V_true, 1500, amax=0.9, seed=3)
        fit = fit_min_volume_simplex(X)
        assert vertex_error(V_true, fit.vertices) <= 0.05
        # align estimated abundance columns to the generator's
        best = np.inf
        for p in permutations(range(3)):
            best = min(best, rnmse(A_true, fit.abundances.values[:, p]))
        assert best <= 2e-2

    def test_feasible_abundances(self):
        V_true = np.array([[0.0, 2.0, 0.5], [0.0, 0.0, 1.5]])
        X, _ = latent_cloud(V_true, 300, seed=4)
        fit = fit_min_volume_simplex(X)
        v = fit.abundances.values
        assert v.min() >= 0.0
        assert np.max(np.abs(v.sum(axis=1) - 1.0)) <= 1e-12

    @pytest.mark.parametrize("noise_scale", [None, 0.01])
    def test_reports_each_stage_stop(self, noise_scale):
        V_true = np.array([[0.0, 1.0, 0.3], [0.0, 0.2, 1.1]])
        X, _ = latent_cloud(V_true, 600, amax=0.9, seed=3)
        fit = fit_min_volume_simplex(X, noise_scale=noise_scale)
        assert len(fit.stages) == len(MU_SCHEDULE) + (noise_scale is not None)
        for stop, grad_max in fit.stages:
            assert stop in ("gtol", "ftol", "linesearch", "maxiter")
            assert 0.0 <= grad_max < np.inf
            # only the gradient-norm rule promises a gradient at gtol
            assert stop != "gtol" or grad_max <= 1e-12

    def test_volume_not_above_initialization(self):
        for seed in range(4):
            V_true = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
            X, _ = latent_cloud(V_true, 500, amax=0.95, seed=seed)
            fit = fit_min_volume_simplex(X)
            assert fit.volume <= fit.init_volume * (1 + 1e-9)

    def test_affine_equivariance(self):
        V_true = np.array([[0.0, 1.0, 0.1], [0.0, 0.0, 0.8]])
        X, _ = latent_cloud(V_true, 400, seed=5, include_vertices=True)
        rng = np.random.default_rng(6)
        T = np.array([[1.3, 0.4], [-0.2, 0.9]])
        b = np.array([0.3, -1.0])
        assert np.linalg.cond(T) <= 10
        fit1 = fit_min_volume_simplex(X)
        fit2 = fit_min_volume_simplex(X @ T.T + b)
        mapped = T @ fit1.vertices + b[:, None]
        assert vertex_error(mapped, fit2.vertices) <= 1e-6

    def test_deterministic(self):
        V_true = np.array([[0.0, 1.0, 0.5], [0.0, 0.0, 1.0]])
        X, _ = latent_cloud(V_true, 200, seed=7)
        f1 = fit_min_volume_simplex(X)
        f2 = fit_min_volume_simplex(X)
        assert np.array_equal(f1.vertices, f2.vertices)
        assert np.array_equal(f1.abundances.values, f2.abundances.values)

    def test_degenerate_span_rejected(self):
        collinear = np.outer(np.linspace(0, 1, 50), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            fit_min_volume_simplex(collinear)


class TestEndToEndIdentifiability:
    def test_full_simplex_scene_recovers_abundances(self):
        # generate with the bilinear model the estimator itself assumes,
        # fit the latent posterior, scale: abundances must come back to
        # within 1e-2 RNMSE up to column permutation
        import warnings

        from nlunmix.core import center
        from nlunmix.embed import init_latents, lle_weights, pca_basis
        from nlunmix.metrics import rnmse as _rnmse
        from nlunmix.model import (
            ModelContext,
            feature_dim,
            initial_state,
            latent_noise_scale,
            scg_optimize,
        )
        from nlunmix.scene import SceneRecipe, gamma_matrix, generate_scene

        recipe = SceneRecipe(
            model="gbm", R=3, L=40, N=400, sigma2=1e-6, seed=40,
            gamma=gamma_matrix(3, [0.9, 0.5, 0.3]),
        )
        scene = generate_scene(recipe)
        cimg, _ = center(scene.image)
        pb = pca_basis(cimg.pixels, feature_dim(3))
        ctx = ModelContext(cimg.pixels, pb, lle_weights(cimg.pixels, K=3), gamma=1e3)
        x0 = init_latents(cimg.pixels, pb.basis[:, :2])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            state, _ = scg_optimize(initial_state(ctx, x0), ctx, max_iter=6000, tol=1e-12)
        fit = fit_min_volume_simplex(
            state.X[:, :2], noise_scale=latent_noise_scale(state, pb.basis)
        )
        A = scene.abundances.values
        best = min(
            _rnmse(A, fit.abundances.values[:, p]) for p in permutations(range(3))
        )
        assert best <= 1e-2


class TestConstrainedLatents:
    def _fit(self):
        V_true = np.array([[0.0, 1.0, 0.2], [0.0, 0.1, 0.9]])
        X, _ = latent_cloud(V_true, 150, seed=8, include_vertices=True)
        return fit_min_volume_simplex(X)

    def test_identity_abundances_map_to_vertices(self):
        fit = self._fit()
        from nlunmix.core import AbundanceMatrix

        pure = SimplexFit(
            vertices=fit.vertices,
            abundances=AbundanceMatrix(np.eye(3)),
            v_r=fit.v_r,
            volume=fit.volume,
            init_volume=fit.init_volume,
        )
        Xc, v_r = constrained_latents(pure)
        assert np.allclose(Xc.T, v_r, atol=1e-14)

    def test_uniform_row_maps_to_centroid(self):
        fit = self._fit()
        from nlunmix.core import AbundanceMatrix

        uniform = SimplexFit(
            vertices=fit.vertices,
            abundances=AbundanceMatrix(np.full((1, 3), 1.0 / 3.0)),
            v_r=fit.v_r,
            volume=fit.volume,
            init_volume=fit.init_volume,
        )
        Xc, v_r = constrained_latents(uniform)
        assert np.allclose(Xc[0], v_r.mean(axis=1), atol=1e-14)

    def test_row_sums_exact(self):
        fit = self._fit()
        Xc, _ = constrained_latents(fit)
        assert np.max(np.abs(Xc.sum(axis=1) - 1.0)) <= 1e-12
        assert np.array_equal(Xc, fit.abundances.values @ fit.v_r.T)

    def test_reconstruction_identity_columns(self):
        fit = self._fit()
        # the map's columns sum to one (they are R-dim vertex coordinates)
        assert np.allclose(fit.v_r.sum(axis=0), 1.0, atol=1e-12)
        assert abs(np.linalg.det(_augment(fit.vertices))) == pytest.approx(
            fit.volume, rel=1e-12
        )

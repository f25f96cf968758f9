"""Tests for GP spectrum prediction and endmember extraction."""
import tracemalloc

import numpy as np
import pytest

from nlunmix.core import AbundanceMatrix, center
from nlunmix.embed import init_latents, lle_weights, pca_basis
from nlunmix.gpregress import GpPredictor, confidence95, extract_endmembers, predict_spectrum
from nlunmix.metrics import sam
from nlunmix.model import (
    LatentState,
    ModelContext,
    feature_dim,
    initial_state,
    map_P,
    psi,
    psi_batch,
    psi_jacobian,
    scg_optimize,
)
from nlunmix.scaling import constrained_latents, fit_min_volume_simplex
from nlunmix.scene import SceneRecipe, generate_scene, mix, sample_abundances, synth_endmembers


def make_predictor(rng, n=12, l=8, R=3, s2=0.8, sigma2=0.05, data_noise=None):
    """Hand-built predictor on synthetic latents lying on a known simplex,
    with its abundances and training pixels.

    ``data_noise`` decouples the noise actually added to the training data
    from the model's sigma2 (needed for limit checks)."""
    D = feature_dim(R)
    A = sample_abundances(n, R, amax=1.0, seed=int(rng.integers(1 << 30))).values
    v_r = np.vstack([rng.normal(scale=0.7, size=(R - 1, R)), np.zeros(R)])
    v_r[R - 1] = 1.0 - v_r[: R - 1].sum(axis=0)
    X = A @ v_r.T
    U = rng.normal(scale=0.5, size=(D, D))
    P = rng.normal(size=(l, D))
    noise = np.sqrt(sigma2 if data_noise is None else data_noise)
    Yc = psi_batch(X) @ U @ P.T + rng.normal(scale=noise, size=(n, l))
    Yc = Yc - Yc.mean(axis=0)
    state = LatentState(X=X, U=U, s2=s2, sigma2=sigma2)
    pred = GpPredictor(
        state=state, spectral_map=P, v_r=v_r, mean_spectrum=np.zeros(l), Yc=Yc
    )
    return pred, A, Yc


class TestPredictSpectrum:
    def test_s2_zero_gives_prior_mean_and_zero_variance(self):
        rng = np.random.default_rng(0)
        pred, _, _ = make_predictor(rng, s2=0.0)
        alpha = np.array([0.2, 0.5, 0.3])
        mu, var = predict_spectrum(alpha, pred)
        want = pred.spectral_map @ (pred.state.U.T @ psi(pred.v_r @ alpha))
        assert np.max(np.abs(mu - want)) < 1e-12
        assert np.max(np.abs(var)) == 0.0

    def test_huge_noise_gives_prior_mean_and_prior_variance(self):
        rng = np.random.default_rng(1)
        pred, _, _ = make_predictor(rng, sigma2=1e12, data_noise=0.05)
        alpha = np.array([0.6, 0.1, 0.3])
        mu, var = predict_spectrum(alpha, pred)
        u_psi = pred.state.U.T @ psi(pred.v_r @ alpha)
        want_mu = pred.spectral_map @ u_psi
        want_var = pred.state.s2 * (u_psi @ u_psi)
        assert np.max(np.abs(mu - want_mu)) < 1e-6
        assert var[0] == pytest.approx(want_var, rel=1e-6)

    def test_matches_dense_gp_oracle(self):
        rng = np.random.default_rng(2)
        pred, _, Yc = make_predictor(rng, n=10, l=6)
        st = pred.state
        C = psi_batch(st.X) @ st.U
        K = st.s2 * (C @ C.T)
        Kn = K + st.sigma2 * np.eye(10)
        for alpha in [np.array([1.0, 0, 0]), np.array([0.3, 0.3, 0.4])]:
            psi_star = psi(pred.v_r @ alpha)
            kappa = st.s2 * (C @ (st.U.T @ psi_star))
            sig_star2 = st.s2 * float((st.U.T @ psi_star) @ (st.U.T @ psi_star))
            prior_train = C @ pred.spectral_map.T
            prior_star = pred.spectral_map @ (st.U.T @ psi_star)
            mu_ref = prior_star + (Yc - prior_train).T @ np.linalg.solve(Kn, kappa)
            var_ref = sig_star2 - kappa @ np.linalg.solve(Kn, kappa)
            mu, var = predict_spectrum(alpha, pred)
            assert np.max(np.abs(mu - mu_ref)) < 1e-9
            assert var[0] == pytest.approx(var_ref, abs=1e-9)

    def test_variance_nonnegative_on_simplex(self):
        rng = np.random.default_rng(3)
        pred, _, _ = make_predictor(rng, n=30, l=10)
        A = sample_abundances(1000, 3, amax=1.0, seed=9).values
        for alpha in A:
            _, var = predict_spectrum(alpha, pred)
            assert var[0] >= -1e-10

    def test_variance_at_training_point_bounded_by_noise(self):
        rng = np.random.default_rng(4)
        pred, A, _ = make_predictor(rng, n=15, l=8)
        # predict exactly at training abundance rows
        for n in range(5):
            _, var = predict_spectrum(A[n], pred)
            assert var[0] <= pred.state.sigma2 + 1e-8

    def test_rejects_off_simplex(self):
        rng = np.random.default_rng(5)
        pred, _, _ = make_predictor(rng)
        with pytest.raises(ValueError):
            predict_spectrum(np.array([0.7, 0.4, 0.0]), pred)
        with pytest.raises(ValueError):
            predict_spectrum(np.array([1.2, -0.2, 0.0]), pred)

    def test_lipschitz_smoothness(self):
        rng = np.random.default_rng(6)
        pred, _, Yc = make_predictor(rng, n=20, l=12)
        st = pred.state
        A = sample_abundances(60, 3, amax=1.0, seed=10).values
        # analytic-norm bound with factor-10 slack; Sigma^{-1} Ybar and C U^T
        # are formed densely here
        C = psi_batch(st.X) @ st.U
        Sigma = st.s2 * (C @ C.T) + st.sigma2 * np.eye(20)
        si_resid = np.linalg.solve(Sigma, Yc - C @ pred.spectral_map.T)
        jmax = max(
            np.linalg.norm(psi_jacobian(pred.v_r @ a), 2) for a in A
        )
        amps = (
            np.linalg.norm(pred.spectral_map @ st.U.T, 2)
            + st.s2
            * np.linalg.norm(si_resid.T, 2)
            * np.linalg.norm(C @ st.U.T, 2)
        )
        C_bound = 10.0 * amps * jmax * np.linalg.norm(pred.v_r, 2)
        mus = [predict_spectrum(a, pred)[0] for a in A]
        for i in range(0, 60, 7):
            for j in range(i + 1, 60, 11):
                lhs = np.linalg.norm(mus[i] - mus[j])
                rhs = C_bound * np.linalg.norm(A[i] - A[j])
                assert lhs <= rhs + 1e-12


def _ld_solve(A, b):
    """Solve the symmetric positive definite system A x = b in np.longdouble
    by Cholesky (numpy's linalg has no extended-precision routines)."""
    n = A.shape[0]
    Lc = np.zeros_like(A)
    for j in range(n):
        Lc[j, j] = np.sqrt(A[j, j] - Lc[j, :j] @ Lc[j, :j])
        Lc[j + 1 :, j] = (A[j + 1 :, j] - Lc[j + 1 :, :j] @ Lc[j, :j]) / Lc[j, j]
    z = np.zeros_like(b)
    for i in range(n):
        z[i] = (b[i] - Lc[i, :i] @ z[:i]) / Lc[i, i]
    x = np.zeros_like(b)
    for i in reversed(range(n)):
        x[i] = (z[i] - Lc[i + 1 :, i] @ x[i + 1 :]) / Lc[i, i]
    return x


class TestFittedRegime:
    """The regime a finished latent fit leaves: s2 * lambda_max(C^T C) many
    orders above sigma2, where Sigma^{-1} applied to vectors in span(C)
    cancels to a few digits when it is formed as (B - W W^T B ...) / sigma2."""

    def test_matches_extended_precision_reference(self):
        rng = np.random.default_rng(12)
        n, l, s2, sigma2 = 200, 12, 1.0, 1e-8
        pred, _, Yc = make_predictor(rng, n=n, l=l, s2=s2, sigma2=sigma2)
        st = pred.state
        C = psi_batch(st.X) @ st.U
        assert s2 * np.linalg.eigvalsh(C.T @ C)[-1] / sigma2 >= 1e8
        ld = np.longdouble
        Cl, Yl, Pl = C.astype(ld), Yc.astype(ld), pred.spectral_map.astype(ld)
        G = Cl.T @ Cl
        core = s2 * G + sigma2 * np.eye(C.shape[1], dtype=ld)
        H = Cl.T @ Yl - G @ Pl.T  # C^T Ybar
        alphas = np.vstack([np.eye(3), sample_abundances(5, 3, amax=1.0, seed=13).values])
        for alpha in alphas:
            u = (st.U.T @ psi(pred.v_r @ alpha)).astype(ld)
            Ku = _ld_solve(core, u)
            mu_ref = Pl @ u + s2 * (H.T @ Ku)
            # s2 u^T u - s2^2 u^T G K u = s2 sigma2 u^T K u, with no cancellation
            var_ref = s2 * sigma2 * (u @ Ku)
            mu, var = predict_spectrum(alpha, pred)
            err = np.linalg.norm(mu.astype(ld) - mu_ref) / np.linalg.norm(mu_ref)
            assert err <= 1e-12
            assert np.all(var >= 0.0)
            assert abs(ld(var[0]) - var_ref) <= 1e-6 * var_ref


class TestMemory:
    N, L = 4000, 160  # one N x L image is 5.12 MB

    def _inputs(self):
        rng = np.random.default_rng(14)
        R, D = 3, feature_dim(3)
        X = rng.dirichlet(np.ones(R), size=self.N)
        state = LatentState(X=X, U=rng.normal(size=(D, D)), s2=1e-3, sigma2=1e-4)
        Yc = rng.normal(size=(self.N, self.L))
        return state, Yc - Yc.mean(axis=0), rng.normal(size=(self.L, D))

    def test_predictor_and_extraction_stay_below_image_size(self):
        # the predictor used to keep a copy of Yc, the N x L residual and
        # Sigma^{-1} times it: a 15.8 MB peak here; now 0.4 MB
        state, Yc, P = self._inputs()
        tracemalloc.start()
        try:
            pred = GpPredictor(
                state=state, spectral_map=P, v_r=np.eye(3),
                mean_spectrum=np.zeros(self.L), Yc=Yc,
            )
            extract_endmembers(pred)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * Yc.nbytes

    def test_predictor_holds_no_pixel_sized_array(self):
        state, Yc, P = self._inputs()
        pred = GpPredictor(
            state=state, spectral_map=P, v_r=np.eye(3),
            mean_spectrum=np.zeros(self.L), Yc=Yc,
        )
        held = {k: v for k, v in vars(pred).items() if isinstance(v, np.ndarray)}
        assert held and all(v.shape[0] != self.N for v in held.values()), {
            k: v.shape for k, v in held.items()
        }
        # the latents are the caller's state, referenced rather than copied
        assert pred.state is state
        assert not hasattr(pred, "Yc")


class TestExtractEndmembers:
    def test_shapes_and_finite(self):
        rng = np.random.default_rng(7)
        pred, _, _ = make_predictor(rng, l=9)
        endm = extract_endmembers(pred)
        assert endm.spectra.shape == (9, 3)
        assert endm.band_variance.shape == (9, 3)
        assert np.all(np.isfinite(endm.spectra))
        lo, hi = confidence95(endm)
        assert np.all(lo <= endm.spectra) and np.all(endm.spectra <= hi)

    def test_noise_free_lmm_end_to_end(self):
        # full chain on a pure-pixel linear scene: fit, scale, extract; the
        # GP endmembers must match the generating spectra to within 1e-3 rad.
        # The fit's posterior-mean spectral map (mean_mode "map") is the
        # variant that interpolates the recovered data map exactly, so the
        # noise-free oracle runs through it; the fixed-basis default trades a
        # little accuracy for the prior structure and is exercised elsewhere.
        recipe = SceneRecipe(model="lmm", R=3, L=20, N=150, sigma2=1e-10, seed=0)
        M = synth_endmembers(3, 20, seed=0)
        A = AbundanceMatrix(
            np.vstack([sample_abundances(147, 3, 1.0, 1).values, np.eye(3)])
        )
        img = mix(recipe, A, M)
        cimg, mean = center(img)
        D = feature_dim(3)
        pb = pca_basis(cimg.pixels, D)
        lle = lle_weights(cimg.pixels, K=3)
        ctx = ModelContext(cimg.pixels, pb, lle, gamma=1e3)
        x0 = init_latents(cimg.pixels, pb.basis[:, :2])
        state, _ = scg_optimize(initial_state(ctx, x0), ctx, max_iter=8000, tol=1e-12)
        fit = fit_min_volume_simplex(state.X[:, :2])
        Xc, v_r = constrained_latents(fit)
        cstate = LatentState(X=Xc, U=state.U, s2=state.s2, sigma2=state.sigma2)
        pred = GpPredictor(
            state=cstate, spectral_map=map_P(state, ctx), v_r=v_r,
            mean_spectrum=mean, Yc=cimg.pixels,
        )
        endm = extract_endmembers(pred)
        from nlunmix.metrics import align_columns

        perm = align_columns(M, endm)
        for r in range(3):
            assert sam(M.spectra[:, r], endm.spectra[:, perm[r]]) <= 1e-3

    def test_mean_mode_map_accepted(self):
        rng = np.random.default_rng(8)
        recipe = SceneRecipe(model="lmm", R=2, L=8, N=40, sigma2=1e-4, seed=5)
        scene = generate_scene(recipe)
        cimg, mean = center(scene.image)
        pb = pca_basis(cimg.pixels, feature_dim(2))
        ctx = ModelContext(cimg.pixels, pb, lle_weights(cimg.pixels, K=2), gamma=1e3)
        x0 = init_latents(cimg.pixels, pb.basis[:, :1])
        state, _ = scg_optimize(initial_state(ctx, x0), ctx, max_iter=300, tol=1e-8)
        fit = fit_min_volume_simplex(state.X[:, :1])
        Xc, v_r = constrained_latents(fit)
        cstate = LatentState(X=Xc, U=state.U, s2=state.s2, sigma2=state.sigma2)
        for P in (pb.basis, map_P(state, ctx)):
            pred = GpPredictor(
                state=cstate, spectral_map=P, v_r=v_r, mean_spectrum=mean, Yc=cimg.pixels
            )
            endm = extract_endmembers(pred)
            assert np.all(np.isfinite(endm.spectra))

"""Tests for the scaled conjugate gradient minimizer and the latent fit."""
import numpy as np
import pytest

import nlunmix.model as model
from nlunmix.core import center
from nlunmix.embed import init_latents, lle_weights, pca_basis
from nlunmix.metrics import are
from nlunmix.model import (
    ModelContext,
    feature_dim,
    initial_state,
    map_P,
    neg_log_posterior,
    reconstruct,
    scg_optimize,
)
from nlunmix.scene import SceneRecipe, gamma_matrix, generate_scene
from nlunmix.scg import ScgError, scg


def quadratic(A, b):
    def fg(w):
        return 0.5 * float(w @ (A @ w)) - float(b @ w), A @ w - b

    return fg


class TestScgOnQuadratics:
    @pytest.mark.parametrize("dim", [2, 5, 12])
    def test_reaches_minimizer(self, dim):
        rng = np.random.default_rng(dim)
        Q = rng.normal(size=(dim, dim))
        A = Q.T @ Q + 0.5 * np.eye(dim)
        b = rng.normal(size=dim)
        wstar = np.linalg.solve(A, b)
        w, res = scg(quadratic(A, b), np.zeros(dim), max_iter=2 * dim, tol=1e-14)
        assert np.max(np.abs(w - wstar)) < 1e-8
        assert res.iterations <= 2 * dim

    def test_infinite_tol_returns_start(self):
        A = np.eye(3)
        b = np.ones(3)
        w0 = np.array([5.0, -2.0, 0.5])
        w, res = scg(quadratic(A, b), w0, max_iter=100, tol=np.inf)
        assert np.array_equal(w, w0)
        assert res.iterations == 0
        assert res.converged

    def test_trace_nonincreasing(self):
        rng = np.random.default_rng(3)
        Q = rng.normal(size=(8, 8))
        A = Q.T @ Q + 0.1 * np.eye(8)
        b = rng.normal(size=8)
        _, res = scg(quadratic(A, b), rng.normal(size=8), max_iter=60, tol=1e-12)
        assert np.all(np.diff(res.trace) <= 0)

    def test_nonfinite_start_raises(self):
        def bad(w):
            return np.inf, np.zeros_like(w)

        with pytest.raises(ScgError):
            scg(bad, np.zeros(2))

    def test_rosenbrock(self):
        # non-quadratic sanity: banana function reaches its minimum at (1, 1)
        def fg(w):
            x, y = w
            f = (1 - x) ** 2 + 100 * (y - x * x) ** 2
            g = np.array(
                [-2 * (1 - x) - 400 * x * (y - x * x), 200 * (y - x * x)]
            )
            return f, g

        w, res = scg(fg, np.array([-1.2, 1.0]), max_iter=2000, tol=1e-14)
        assert np.max(np.abs(w - 1.0)) < 1e-4

    def test_persistent_failure_aborts(self):
        calls = {"n": 0}

        def trap(w):
            calls["n"] += 1
            if calls["n"] == 1:
                return 1.0, np.array([1.0, 1.0])
            return np.inf, np.full(2, np.nan)

        with pytest.raises(ScgError):
            scg(trap, np.zeros(2), max_iter=500, tol=1e-10)

    def test_gradient_entry_takes_the_probes(self):
        # the same Rosenbrock run with and without a gradient-only entry: the
        # path is identical, and the counts say which entry did each call
        def rosenbrock(w):
            x, y = w
            f = (1 - x) ** 2 + 100 * (y - x * x) ** 2
            return f, np.array([-2 * (1 - x) - 400 * x * (y - x * x), 200 * (y - x * x)])

        calls = {"fg": 0, "gradient": 0}

        def fg(w):
            calls["fg"] += 1
            return rosenbrock(w)

        def gradient(w):
            calls["gradient"] += 1
            return rosenbrock(w)[1]

        w0 = np.array([-1.2, 1.0])
        w_full, full = scg(fg, w0, max_iter=300, tol=1e-14)
        assert (full.evaluations, full.probes) == (calls["fg"], 0)
        calls["fg"] = 0
        w_lean, lean = scg(fg, w0, max_iter=300, tol=1e-14, gradient=gradient)
        assert (lean.evaluations, lean.probes) == (calls["fg"], calls["gradient"])
        assert np.array_equal(w_lean, w_full)
        assert np.array_equal(lean.trace, full.trace)
        assert lean.iterations == full.iterations
        assert lean.evaluations + lean.probes == full.evaluations
        assert lean.probes > 0 and lean.rejected > 0
        assert full.rejected == lean.rejected == full.iterations - (len(full.trace) - 1)


class LmmFixture:
    """Small linear scene plus the prepared fit context.  Interaction
    coefficients ``gbm`` make it a GBM scene without pure pixels instead."""

    def __init__(self, seed=0, n=100, l=20, sigma2=1e-4, R=3, gamma=1e3, gbm=None):
        mixing = {} if gbm is None else dict(model="gbm", amax=0.9, gamma=gamma_matrix(R, gbm))
        self.recipe = SceneRecipe(
            **{"model": "lmm", **mixing}, R=R, L=l, N=n, sigma2=sigma2, seed=seed
        )
        self.scene = generate_scene(self.recipe)
        self.centered, self.mean = center(self.scene.image)
        D = feature_dim(R)
        self.pbar = pca_basis(self.centered.pixels, D)
        self.lle = lle_weights(self.centered.pixels, K=R)
        self.ctx = ModelContext(
            Yc=self.centered.pixels, pbar=self.pbar, lle=self.lle, gamma=gamma
        )
        self.x0 = init_latents(
            self.centered.pixels, self.pbar.basis[:, : R - 1]
        )


def hide_gradient_entry(factory, calls=None):
    """An objective factory whose callables have no gradient-only entry, so
    SCG probes the curvature with full evaluations; each call's point is
    appended to ``calls`` when given."""

    def objective_function(*args):
        fg = factory(*args)

        def plain(w):
            if calls is not None:
                calls.append(w)
            return fg(w)

        return plain

    return objective_function


class TestLatentFit:
    def test_lmm_fixture_reaches_noise_floor(self):
        fx = LmmFixture()
        state0 = initial_state(fx.ctx, fx.x0)
        state, report = scg_optimize(state0, fx.ctx, max_iter=1500, tol=1e-10)
        assert np.all(np.diff(report.trace) <= 0)
        Phat = map_P(state, fx.ctx)
        recon = reconstruct(state, Phat)
        err = are(fx.centered.pixels, recon)
        assert err <= 1.5 * np.sqrt(fx.recipe.sigma2)

    def test_stationary_gradient_norm(self):
        # a well-conditioned instance (strong prior, high noise) where the
        # optimizer reaches an actual stationary point; the analytic gradient
        # must be tiny there
        fx = LmmFixture(seed=11, n=16, l=10, sigma2=0.09, R=2, gamma=1e4)
        state0 = initial_state(fx.ctx, fx.x0)
        state, report = scg_optimize(state0, fx.ctx, max_iter=60000, tol=1e-14)
        value = neg_log_posterior(state, fx.ctx)
        assert report.converged
        assert report.grad_norm <= 1e-4 * (1.0 + abs(value))

    def test_zero_iteration_stop(self):
        fx = LmmFixture(seed=2, n=40, l=10)
        state0 = initial_state(fx.ctx, fx.x0)
        state, report = scg_optimize(state0, fx.ctx, max_iter=100, tol=np.inf)
        assert report.iterations == 0
        assert np.array_equal(state.X, state0.X)
        assert report.converged

    def test_start_is_evaluated_once(self, monkeypatch):
        fx = LmmFixture(seed=2, n=40, l=10)
        calls = []
        monkeypatch.setattr(model, "objective_function",
                            hide_gradient_entry(model.objective_function, calls))
        _, report = scg_optimize(initial_state(fx.ctx, fx.x0), fx.ctx, max_iter=100, tol=np.inf)
        assert len(calls) == report.evaluations == 1

    def test_nonfinite_start_raises_value_error(self):
        fx = LmmFixture(seed=2, n=40, l=10)
        state0 = initial_state(fx.ctx, fx.x0)
        outside = model.LatentState(X=state0.X, U=state0.U, s2=1e9, sigma2=state0.sigma2)
        with pytest.raises(ValueError, match="not finite"):
            scg_optimize(outside, fx.ctx, max_iter=10)


@pytest.mark.parametrize(
    "fixture",
    [
        lambda: LmmFixture(),
        lambda: LmmFixture(seed=4, n=80, l=16, gbm=[0.9, 0.5, 0.3]),
    ],
    ids=["lmm", "gbm"],
)
def test_gradient_only_probes_keep_the_trajectory(fixture, monkeypatch):
    # the fit through the gradient-only probe entry must take exactly the path
    # of the fit that probes with full evaluations
    fx = fixture()
    state0 = initial_state(fx.ctx, fx.x0)
    lean, lean_report = scg_optimize(state0, fx.ctx, max_iter=400, tol=1e-12)
    monkeypatch.setattr(model, "objective_function", hide_gradient_entry(model.objective_function))
    full, full_report = scg_optimize(state0, fx.ctx, max_iter=400, tol=1e-12)
    assert np.array_equal(lean.X, full.X)
    assert np.array_equal(lean.U, full.U)
    assert lean.s2 == full.s2 and lean.sigma2 == full.sigma2
    assert np.array_equal(lean_report.trace, full_report.trace)
    assert lean_report.iterations == full_report.iterations
    assert lean_report.rejected == full_report.rejected
    assert full_report.probes == 0 and lean_report.probes > 0
    assert lean_report.evaluations + lean_report.probes == full_report.evaluations


@pytest.mark.parametrize(
    "fixture",
    [
        lambda: LmmFixture(n=99),
        lambda: LmmFixture(seed=4, n=85, l=16, gbm=[0.9, 0.5, 0.3]),
    ],
    ids=["lmm", "gbm"],
)
def test_fit_does_not_depend_on_the_row_block_size(fixture, monkeypatch):
    # blocks of at most 7 and 64 rows, N a multiple of neither, must take
    # exactly the one-block path
    fx = fixture()
    state0 = initial_state(fx.ctx, fx.x0)
    whole, whole_report = scg_optimize(state0, fx.ctx, max_iter=300, tol=1e-12)
    width = fx.recipe.L + feature_dim(fx.recipe.R)
    for rows in (7, 64):
        monkeypatch.setattr(model, "ROW_BLOCK_BYTES", rows * 8 * width)
        assert len(model._Workspace(fx.ctx.Yc, fx.recipe.R).residual_blocks) > 1
        got, report = scg_optimize(state0, fx.ctx, max_iter=300, tol=1e-12)
        assert np.array_equal(got.X, whole.X)
        assert np.array_equal(got.U, whole.U)
        assert got.s2 == whole.s2 and got.sigma2 == whole.sigma2
        assert np.array_equal(report.trace, whole_report.trace)
        assert (report.iterations, report.evaluations, report.probes) == (
            whole_report.iterations, whole_report.evaluations, whole_report.probes)


@pytest.mark.parametrize(
    "fixture",
    [
        lambda: LmmFixture(n=99),
        lambda: LmmFixture(seed=4, n=85, l=16, gbm=[0.9, 0.5, 0.3]),
    ],
    ids=["lmm", "gbm"],
)
def test_fit_does_not_depend_on_the_second_worker(fixture, monkeypatch):
    # the helper thread's halves of the row phases and its sums beside Q
    # must leave the fit on exactly the path of the fit without it
    fx = fixture()
    state0 = initial_state(fx.ctx, fx.x0)
    width = fx.recipe.L + feature_dim(fx.recipe.R)
    for rows in (7, 64):
        monkeypatch.setattr(model, "ROW_BLOCK_BYTES", rows * 8 * width)
        fits = {}
        for on in (False, True):
            monkeypatch.setattr(model, "_second_worker", (
                lambda n_blocks: model._helper_thread()) if on else (lambda n_blocks: None))
            fits[on] = scg_optimize(state0, fx.ctx, max_iter=300, tol=1e-12)
        (alone, alone_report), (got, report) = fits[False], fits[True]
        assert np.array_equal(got.X, alone.X)
        assert np.array_equal(got.U, alone.U)
        assert got.s2 == alone.s2 and got.sigma2 == alone.sigma2
        assert np.array_equal(report.trace, alone_report.trace)
        assert (report.iterations, report.evaluations, report.probes, report.rejected) == (
            alone_report.iterations, alone_report.evaluations, alone_report.probes,
            alone_report.rejected)

"""Oracle tests for the feature map, Woodbury algebra, objective, gradient,
and spectral-map recovery."""
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import nlunmix.model as model
from nlunmix.core import center
from nlunmix.embed import PcaBasis, lle_weights, pca_basis
from nlunmix.model import (
    LatentState,
    ModelContext,
    WoodburyError,
    WoodburySolver,
    feature_dim,
    grad_neg_log_posterior,
    latent_noise_scale,
    map_P,
    neg_log_posterior,
    objective_function,
    pack,
    psi,
    psi_batch,
    psi_jacobian,
    reconstruct,
    unpack,
)
from nlunmix.scene import SceneRecipe, generate_scene


def random_sum_to_one(rng, n, R, scale=0.4):
    free = rng.normal(scale=scale, size=(n, R - 1)) + 1.0 / R
    return np.hstack([free, 1.0 - free.sum(axis=1, keepdims=True)])


def tiny_ctx(rng, n=10, l=7, R=2, gamma=1.0):
    Y = rng.normal(size=(n, l))
    Yc = Y - Y.mean(axis=0)
    pb = pca_basis(Yc, feature_dim(R))
    lle = lle_weights(Yc, K=R)
    return ModelContext(Yc=Yc, pbar=pb, lle=lle, gamma=gamma)


def test_context_shares_read_only_pixels():
    rng = np.random.default_rng(0)
    ctx = tiny_ctx(rng)
    Yc = ctx.Yc.copy()
    Yc.flags.writeable = False
    assert ModelContext(Yc=Yc, pbar=ctx.pbar, lle=ctx.lle).Yc is Yc
    writeable = ctx.Yc.copy()
    assert ModelContext(Yc=writeable, pbar=ctx.pbar, lle=ctx.lle).Yc is not writeable


def random_state(rng, n, R, s2=0.5, sigma2=0.3):
    D = feature_dim(R)
    return LatentState(
        X=random_sum_to_one(rng, n, R),
        U=rng.normal(scale=0.6, size=(D, D)),
        s2=s2,
        sigma2=sigma2,
    )


def dense_sigma(state: LatentState):
    C = psi_batch(state.X) @ state.U
    return state.s2 * (C @ C.T) + state.sigma2 * np.eye(C.shape[0]), C


class TestPsi:
    def test_pure_vertex(self):
        assert np.array_equal(psi([1.0, 0.0, 0.0]), [1, 0, 0, 0, 0, 0])

    def test_direct_products(self):
        assert np.array_equal(psi([0.5, 0.5, 0.0]), [0.5, 0.5, 0.0, 0.25, 0.0, 0.0])

    def test_length_r4(self):
        assert psi(np.full(4, 0.25)).shape == (10,)
        assert feature_dim(4) == 10

    def test_batch_matches_single(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(6, 3))
        B = psi_batch(X)
        for n in range(6):
            assert np.array_equal(B[n], psi(X[n]))


class TestPsiJacobian:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        h = 1e-6
        for _ in range(100):
            R = int(rng.integers(2, 5))
            x = rng.normal(size=R)
            J = psi_jacobian(x)
            for r in range(R):
                e = np.zeros(R)
                e[r] = h
                fd = (psi(x + e) - psi(x - e)) / (2 * h)
                assert np.max(np.abs(J[:, r] - fd)) < 1e-7

    def test_at_origin(self):
        J = psi_jacobian(np.zeros(3))
        assert np.array_equal(J[:3], np.eye(3))
        assert np.array_equal(J[3:], np.zeros((3, 3)))

    def test_r2_by_hand(self):
        a, b = 0.3, -1.2
        assert np.array_equal(psi_jacobian([a, b]), [[1, 0], [0, 1], [b, a]])

    def test_stack_matches_single(self):
        X = np.random.default_rng(2).normal(size=(5, 4))
        J = psi_jacobian(X)
        assert J.shape == (5, feature_dim(4), 4)
        for n in range(5):
            assert np.array_equal(J[n], psi_jacobian(X[n]))


def _noise_scale_per_pixel(state, basis):
    """Reference: one L x (R-1) Jacobian and one pseudo-inverse per pixel."""
    R = state.n_endmembers
    reduce_free = np.vstack([np.eye(R - 1), -np.ones((1, R - 1))])
    PU = np.asarray(basis, float) @ state.U.T
    total = 0.0
    for n in range(state.n_pixels):
        G = PU @ (psi_jacobian(state.X[n]) @ reduce_free)
        total += np.trace(np.linalg.pinv(G.T @ G, hermitian=True))
    return float(np.sqrt(state.sigma2 * total / (state.n_pixels * (R - 1))))


class TestLatentNoiseScale:
    @pytest.mark.parametrize("R", [2, 3, 4])
    def test_matches_per_pixel_loop(self, R):
        rng = np.random.default_rng(40 + R)
        D = feature_dim(R)
        basis = np.linalg.qr(rng.normal(size=(30, D)))[0]
        state = random_state(rng, 200, R, sigma2=1e-4)
        want = _noise_scale_per_pixel(state, basis)
        assert latent_noise_scale(state, basis) == pytest.approx(want, rel=1e-12, abs=0)

    def test_rank_deficient_jacobians_match_per_pixel_loop(self):
        # U of rank one: every Jacobian has rank one of two, and both
        # compute the pseudo-inverse of a singular Gram matrix
        rng = np.random.default_rng(7)
        R, D = 3, feature_dim(3)
        state = random_state(rng, 50, R)
        U = np.zeros((D, D))
        U[0, 0] = 1.5
        state = LatentState(X=state.X, U=U, s2=state.s2, sigma2=state.sigma2)
        basis = np.linalg.qr(rng.normal(size=(12, D)))[0]
        want = _noise_scale_per_pixel(state, basis)
        assert latent_noise_scale(state, basis) == pytest.approx(want, rel=1e-12, abs=0)


class TestWoodbury:
    def test_s2_zero_diagonal(self):
        rng = np.random.default_rng(2)
        C = rng.normal(size=(6, 3))
        wb = WoodburySolver(C, s2=0.0, sigma2=0.25)
        B = rng.normal(size=(6, 2))
        assert np.allclose(wb.solve(B), B / 0.25, atol=1e-15)
        assert wb.logdet() == pytest.approx(6 * np.log(0.25), rel=1e-14)
        assert wb.trace_inv() == pytest.approx(6 / 0.25, rel=1e-14)

    def test_dense_oracle_small(self):
        rng = np.random.default_rng(3)
        # 50 random cases, then (n, d, s2) with s2 = 0 (Sigma = sigma2 I) and
        # with n < d, where the thin SVD keeps k = n < d directions
        fixed = [(6, 3, 0.0), (2, 3, 0.0), (2, 5, 0.8), (3, 6, 1.7)]
        for case in [None] * 50 + fixed:
            n, d = (int(rng.integers(2, 9)), int(rng.integers(1, 4))) if case is None else case[:2]
            C = rng.normal(size=(n, d))
            s2 = float(rng.uniform(0, 2)) if case is None else case[2]
            sigma2 = float(rng.uniform(0.05, 2))
            Sigma = s2 * (C @ C.T) + sigma2 * np.eye(n)
            wb = WoodburySolver(C, s2, sigma2)
            B = rng.normal(size=(n, 3))
            ref = np.linalg.solve(Sigma, B)
            assert np.max(np.abs(wb.solve(B) - ref)) <= 1e-10 * (1 + np.max(np.abs(ref)))
            ld = np.linalg.slogdet(Sigma)[1]
            assert abs(wb.logdet() - ld) <= 1e-10 * (1 + abs(ld))
            tr = np.trace(np.linalg.inv(Sigma))
            assert abs(wb.trace_inv() - tr) <= 1e-10 * (1 + abs(tr))

    def test_solve_residual_unit_vectors(self):
        rng = np.random.default_rng(4)
        C = rng.normal(size=(10, 4))
        wb = WoodburySolver(C, 1.3, 0.2)
        Sigma = 1.3 * (C @ C.T) + 0.2 * np.eye(10)
        for k in [0, 3, 9]:
            e = np.zeros(10)
            e[k] = 1.0
            assert np.max(np.abs(Sigma @ wb.solve(e) - e)) < 1e-9

    def test_degenerate_core_reports_pivot(self):
        # duplicated unit columns with s2 large enough that sigma2 is lost to
        # float absorption: the core becomes exactly singular and the second
        # Cholesky pivot breaks down
        C = np.ones((5, 2))
        with pytest.raises(WoodburyError) as exc:
            WoodburySolver(C, s2=1e40, sigma2=1e-4)
        assert exc.value.pivot == 2

    def test_rejects_bad_scales(self):
        C = np.ones((3, 1))
        with pytest.raises(ValueError):
            WoodburySolver(C, s2=-1.0, sigma2=0.1)
        with pytest.raises(ValueError):
            WoodburySolver(C, s2=1.0, sigma2=0.0)
        for s2, sigma2 in [(np.nan, 0.1), (np.inf, 0.1), (1.0, np.nan), (1.0, np.inf)]:
            with pytest.raises(ValueError):
                WoodburySolver(C, s2=s2, sigma2=sigma2)


class TestNegLogPosterior:
    def test_diagonal_reduction(self):
        rng = np.random.default_rng(5)
        ctx = tiny_ctx(rng, n=8, l=6, R=2, gamma=0.0)
        D = feature_dim(2)
        state = LatentState(
            X=random_sum_to_one(rng, 8, 2), U=np.eye(D), s2=0.0, sigma2=0.4
        )
        got = neg_log_posterior(state, ctx)
        C = psi_batch(state.X) @ state.U
        Ybar = ctx.Yc - C @ ctx.pbar.basis.T
        want = 0.5 * 6 * 8 * np.log(0.4) + np.sum(Ybar**2) / (2 * 0.4)
        assert got == pytest.approx(want, rel=1e-12)

    def test_dense_oracle(self):
        rng = np.random.default_rng(6)
        ctx = tiny_ctx(rng, n=6, l=5, R=2, gamma=2.5)
        state = random_state(rng, 6, 2)
        got = neg_log_posterior(state, ctx)
        Sigma, C = dense_sigma(state)
        Ybar = ctx.Yc - C @ ctx.pbar.basis.T
        Mx = np.asarray(ctx._resid_op @ state.X)
        want = (
            0.5 * 5 * np.linalg.slogdet(Sigma)[1]
            + 0.5 * np.trace(np.linalg.solve(Sigma, Ybar) @ Ybar.T)
            + 0.5 * 2.5 * np.sum(Mx**2)
        )
        assert got == pytest.approx(want, rel=1e-9)

    def test_linear_in_gamma(self):
        rng = np.random.default_rng(7)
        Y = rng.normal(size=(9, 6))
        Yc = Y - Y.mean(axis=0)
        pb = pca_basis(Yc, 3)
        lle = lle_weights(Yc, K=2)
        state = random_state(rng, 9, 2)
        e1 = neg_log_posterior(state, ModelContext(Yc, pb, lle, gamma=1.0))
        e2 = neg_log_posterior(state, ModelContext(Yc, pb, lle, gamma=2.0))
        Mx = np.asarray(lle.residual_operator() @ state.X)
        assert e2 - e1 == pytest.approx(0.5 * np.sum(Mx**2), rel=1e-9)

    def test_out_of_bounds_is_inf(self):
        rng = np.random.default_rng(8)
        ctx = tiny_ctx(rng, n=6, l=5, R=2)
        state = random_state(rng, 6, 2, s2=1e9)
        assert neg_log_posterior(state, ctx) == np.inf

    def test_rotation_invariance_with_basis(self):
        # right-multiplying U by an orthogonal Q while rotating the basis the
        # same way leaves the likelihood untouched
        rng = np.random.default_rng(9)
        ctx = tiny_ctx(rng, n=8, l=6, R=2, gamma=1.3)
        state = random_state(rng, 8, 2)
        Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        pb2 = PcaBasis(
            basis=ctx.pbar.basis @ Q,
            eigenvalues=ctx.pbar.eigenvalues,
            residual_variance=ctx.pbar.residual_variance,
        )
        ctx2 = ModelContext(ctx.Yc, pb2, ctx.lle, gamma=1.3)
        state2 = LatentState(
            X=state.X, U=state.U @ Q, s2=state.s2, sigma2=state.sigma2
        )
        e1 = neg_log_posterior(state, ctx)
        e2 = neg_log_posterior(state2, ctx2)
        assert e2 == pytest.approx(e1, rel=1e-10)


class TestGradient:
    def _fd(self, fg, w, h=1e-5):
        g = np.empty_like(w)
        for i in range(w.size):
            e = np.zeros_like(w)
            e[i] = h
            g[i] = (fg(w + e)[0] - fg(w - e)[0]) / (2 * h)
        return g

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        checked_blocks = set()
        for trial in range(20):
            R = 2 if trial % 2 == 0 else 3
            n = int(rng.integers(8, 17))
            l = int(rng.integers(feature_dim(R) + 1, 12))
            ctx = tiny_ctx(rng, n=n, l=l, R=R, gamma=float(rng.uniform(0.5, 3)))
            state = random_state(
                rng, n, R, s2=float(rng.uniform(0.2, 1.5)), sigma2=float(rng.uniform(0.2, 1.0))
            )
            fg = objective_function(ctx, n, R)
            w = pack(state)
            _, g = fg(w)
            gfd = self._fd(fg, w)
            err = np.abs(g - gfd) / (1.0 + np.abs(gfd))
            assert np.max(err) <= 1e-5, f"trial {trial}: max rel err {np.max(err):.2e}"
            checked_blocks.add(("X", R))
        assert ("X", 2) in checked_blocks and ("X", 3) in checked_blocks

    def test_prior_gradient_vanishes_on_exact_reconstruction(self):
        # duplicate pixels give exact LLE reconstruction; the prior part of
        # the gradient (the difference across gamma) must vanish
        rng = np.random.default_rng(11)
        base = rng.normal(size=(4, 6))
        Y = np.vstack([base, base, base])  # every pixel duplicated twice
        Yc = Y - Y.mean(axis=0)
        pb = pca_basis(Yc, 3)
        lle = lle_weights(Yc, K=1)
        X = random_sum_to_one(rng, 12, 2)
        X = np.vstack([X[:4], X[:4], X[:4]])
        state = LatentState(X=X, U=rng.normal(size=(3, 3)), s2=0.4, sigma2=0.3)
        g1 = grad_neg_log_posterior(state, ModelContext(Yc, pb, lle, gamma=1.0))
        g2 = grad_neg_log_posterior(state, ModelContext(Yc, pb, lle, gamma=2.0))
        assert np.max(np.abs(g2["X_free"] - g1["X_free"])) < 1e-10

    def test_out_of_bounds_raises(self):
        rng = np.random.default_rng(12)
        ctx = tiny_ctx(rng, n=6, l=5, R=2)
        state = random_state(rng, 6, 2, sigma2=1e8)
        with pytest.raises(ValueError):
            grad_neg_log_posterior(state, ctx)


class TestObjectiveEntries:
    """The packed callable's two entries share one set of buffers; each must
    still return fresh, bit-identical gradients."""

    def _setup(self, seed, R):
        rng = np.random.default_rng(seed)
        ctx = tiny_ctx(rng, n=12, l=9, R=R, gamma=1.7)
        states = [random_state(rng, 12, R, s2=float(rng.uniform(0.2, 1.5))) for _ in range(3)]
        return ctx, objective_function(ctx, 12, R), [pack(st) for st in states]

    @pytest.mark.parametrize("R", [2, 3])
    def test_gradient_entry_is_the_full_gradient(self, R):
        _, fg, ws = self._setup(20 + R, R)
        for w in ws:
            value, g = fg(w)
            assert np.isfinite(value)
            assert np.array_equal(fg.gradient(w), g)

    def test_returned_gradients_are_not_overwritten(self):
        _, fg, (w1, w2, w3) = self._setup(23, 3)
        g_full = fg(w1)[1]
        g_probe = fg.gradient(w1)
        kept = g_full.copy()
        fg(w2)
        fg.gradient(w3)
        assert g_full is not g_probe
        assert np.array_equal(g_full, kept) and np.array_equal(g_probe, kept)

    def test_rejected_states_give_nan_gradients(self, monkeypatch):
        _, fg, (w, _, _) = self._setup(24, 3)

        def assert_rejected(x):
            value, g = fg(x)
            assert value == np.inf and g.shape == x.shape and np.all(np.isnan(g))
            g = fg.gradient(x)
            assert g.shape == x.shape and np.all(np.isnan(g))

        assert_rejected(pack(random_state(np.random.default_rng(0), 12, 3, s2=1e9)))

        def broken_core(*args):
            raise WoodburyError("forced breakdown", pivot=2)

        # the objective builds its solver through the module name
        monkeypatch.setattr(model, "WoodburySolver", broken_core)
        assert_rejected(w)

    @pytest.mark.parametrize("R", [2, 3])
    def test_state_functions_match_the_packed_callable(self, R):
        ctx, fg, ws = self._setup(25 + R, R)
        for w in ws:
            X, U, s2, sigma2 = unpack(w, 12, R)
            state = LatentState(X=X, U=U, s2=s2, sigma2=sigma2)
            value, g = fg(w)
            grads = grad_neg_log_posterior(state, ctx)
            assert neg_log_posterior(state, ctx) == value
            packed = np.concatenate([
                grads["X_free"].ravel(), grads["U"].ravel(), [grads["log_s2"], grads["log_sigma2"]],
            ])
            assert np.array_equal(packed, g)


class TestRowBlocks:
    """The objective's row-wise phases run over row blocks of at most
    ``ROW_BLOCK_BYTES``; no result may depend on the block size.  N = 120 is
    a multiple of neither 7 nor 64, so the blocks of at most 7 rows are of
    6 and 7 rows."""

    n, l, R = 120, 20, 3

    def _setup(self, seed):
        rng = np.random.default_rng(seed)
        ctx = tiny_ctx(rng, n=self.n, l=self.l, R=self.R, gamma=1.3)
        states = [random_state(rng, self.n, self.R, s2=float(rng.uniform(0.2, 1.5)))
                  for _ in range(3)]
        return ctx, [pack(st) for st in states]

    def _block_rows(self, monkeypatch, rows):
        monkeypatch.setattr(model, "ROW_BLOCK_BYTES", rows * 8 * (self.l + feature_dim(self.R)))

    @pytest.mark.parametrize("rows", [7, 64])
    def test_objective_does_not_depend_on_the_block_size(self, rows, monkeypatch):
        ctx, ws = self._setup(31)
        assert len(model._Workspace(ctx.Yc, self.R).residual_blocks) == 1
        fg = objective_function(ctx, self.n, self.R)
        whole = [(fg(w), fg.gradient(w)) for w in ws]
        self._block_rows(monkeypatch, rows)
        blocks = model._Workspace(ctx.Yc, self.R).residual_blocks
        count = -(-self.n // rows)
        assert len(blocks) == count + count % 2
        sizes = {Yc_b.shape[0] for Yc_b, *_ in blocks}
        assert max(sizes) <= rows and max(sizes) - min(sizes) <= 1
        fg = objective_function(ctx, self.n, self.R)
        for w, ((value, g), g_probe) in zip(ws, whole):
            got_value, got_g = fg(w)
            assert got_value == value
            assert np.array_equal(got_g, g)
            assert np.array_equal(fg.gradient(w), g_probe)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 9, 120, 2500, 10000])
    @pytest.mark.parametrize("step", [2, 3, 7, 789])
    def test_blocks_are_an_even_count_of_equal_blocks(self, n, step):
        blocks = model._split_rows(n, step)
        sizes = [b.stop - b.start for b in blocks]
        assert blocks[0].start == 0 and blocks[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        if len(blocks) == 1:
            # one block: the array fits, or it is too short to halve
            assert n <= step or n < 4
        else:
            assert len(blocks) % 2 == 0
            assert max(sizes) - min(sizes) <= 1 and min(sizes) >= 2
            # the byte bound holds unless the two-row floor forbids it
            assert max(sizes) <= step or len(blocks) == n // 4 * 2

    @pytest.mark.parametrize("n", [400, 2500, 10000])
    def test_q_orientation_sums_alike(self, n):
        # _evaluate forms Q = Ybar^T SiC as (SiC^T Ybar)^T; the fit is the
        # same to the bit only while both products round alike.  The views
        # have the evaluation's layout: column blocks of N x (L+D) buffers,
        # at the shipped L = 160, D = 6 and the shipped scene sizes
        l, d = 160, feature_dim(3)
        rng = np.random.default_rng(n)
        stacked = rng.normal(size=(n, l + d))
        solved = rng.normal(size=(n, l + d))
        Ybar, SiC = stacked[:, :l], solved[:, l:]
        assert np.array_equal((SiC.T @ Ybar).T, Ybar.T @ SiC)

    def test_warm_evaluation_allocates_no_image_sized_buffer(self):
        n, l, R = 4000, 160, 3
        scene = generate_scene(SceneRecipe(model="lmm", R=R, L=l, N=n, sigma2=1e-4, seed=3))
        Yc, _ = center(scene.image)
        pb = pca_basis(Yc.pixels, feature_dim(R))
        ctx = ModelContext(Yc=Yc.pixels, pbar=pb, lle=lle_weights(Yc.pixels, K=R))
        assert len(model._Workspace(ctx.Yc, R).residual_blocks) > 1
        state = model.initial_state(ctx, random_sum_to_one(np.random.default_rng(0), n, R))
        w = pack(state)
        fg = objective_function(ctx, n, R)
        fg(w)
        tracemalloc.start()
        try:
            fg(w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a warm evaluation's N-sized temporaries are the thin SVD of C with
        # its LAPACK work, the LLE products of X and the returned gradient:
        # each at most N x D, against the N x L (here 27x larger) residual
        # and solve blocks, which must all live in the workspace
        assert peak < 4 * n * feature_dim(R) * 8 < n * l * 8 / 6


def force_second_worker(monkeypatch, on):
    """Run the objective's split phases on the helper thread (``on``) or all
    in the calling thread, whatever the host and the BLAS thread count."""
    monkeypatch.setattr(model, "_second_worker",
                        (lambda n_blocks: model._helper_thread()) if on else (lambda n_blocks: None))


class TestSecondWorker:
    """The helper thread takes half of each row-wise phase and the sums
    beside Q; no result may depend on it.  Blocks as in TestRowBlocks."""

    n, l, R = 120, 20, 3

    def _setup(self, seed, rows, monkeypatch):
        monkeypatch.setattr(model, "ROW_BLOCK_BYTES", rows * 8 * (self.l + feature_dim(self.R)))
        rng = np.random.default_rng(seed)
        ctx = tiny_ctx(rng, n=self.n, l=self.l, R=self.R, gamma=1.3)
        states = [random_state(rng, self.n, self.R, s2=float(rng.uniform(0.2, 1.5)))
                  for _ in range(3)]
        assert len(model._Workspace(ctx.Yc, self.R).residual_blocks) >= 2
        return ctx, [pack(st) for st in states]

    def _entries(self, ctx, ws, on, monkeypatch):
        force_second_worker(monkeypatch, on)
        fg = objective_function(ctx, self.n, self.R)
        return [(fg(w), fg.gradient(w)) for w in ws]

    @pytest.mark.parametrize("rows", [7, 64])
    def test_objective_does_not_depend_on_the_helper(self, rows, monkeypatch):
        ctx, ws = self._setup(41, rows, monkeypatch)
        alone = self._entries(ctx, ws, False, monkeypatch)
        for ((value, g), g_probe), ((got_value, got_g), got_probe) in zip(
                alone, self._entries(ctx, ws, True, monkeypatch)):
            assert np.isfinite(value) and got_value == value
            assert np.array_equal(got_g, g)
            assert np.array_equal(got_probe, g_probe)

    def test_rejected_states_give_nan_gradients(self, monkeypatch):
        ctx, (w, _, _) = self._setup(43, 7, monkeypatch)
        force_second_worker(monkeypatch, True)
        fg = objective_function(ctx, self.n, self.R)

        def assert_rejected(x):
            value, g = fg(x)
            assert value == np.inf and np.all(np.isnan(g))
            assert np.all(np.isnan(fg.gradient(x)))

        assert_rejected(pack(random_state(np.random.default_rng(0), self.n, self.R, s2=1e9)))

        def broken_core(*args):
            raise WoodburyError("forced breakdown", pivot=2)

        with monkeypatch.context() as patch:
            patch.setattr(model, "WoodburySolver", broken_core)
            assert_rejected(w)
        assert np.isfinite(fg(w)[0])

    def test_helper_failure_propagates_and_the_next_evaluation_works(self, monkeypatch):
        ctx, (w, _, _) = self._setup(44, 7, monkeypatch)
        force_second_worker(monkeypatch, False)
        fg = objective_function(ctx, self.n, self.R)
        want = fg(w)
        helper = model._helper_thread()

        class FailsOnce:
            armed = True

            def submit(self, fn, *args):
                if FailsOnce.armed:
                    FailsOnce.armed = False

                    def fail():
                        raise RuntimeError("helper task failed")

                    return helper.submit(fail)
                return helper.submit(fn, *args)

        monkeypatch.setattr(model, "_second_worker", lambda n_blocks: FailsOnce())
        with pytest.raises(RuntimeError, match="helper task failed"):
            fg(w)
        got = fg(w)
        assert got[0] == want[0] and np.array_equal(got[1], want[1])

    def test_helper_runs_in_the_callers_context(self):
        # numpy's error state reaches the helper, as it reaches inline code
        def over():
            return np.geterr()["over"]

        helper = model._helper_thread()
        for mode in ("raise", "ignore"):
            with np.errstate(over=mode):
                assert model._together(helper, over, over) == (mode, mode)

    def test_callers_sharing_the_helper_get_their_own_results(self, monkeypatch):
        # four calling threads, each with its own callable, queue their
        # halves on the one helper while threads switch every microsecond
        ctx, ws = self._setup(46, 7, monkeypatch)
        want = self._entries(ctx, ws, False, monkeypatch)
        force_second_worker(monkeypatch, True)
        got, failures = {}, []

        def caller(k):
            try:
                fg = objective_function(ctx, self.n, self.R)
                got[k] = [(fg(w), fg.gradient(w)) for w in ws * 5]
            except Exception as exc:  # noqa: BLE001 - reported below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(k,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads) and not failures
        for results in got.values():
            for ((value, g), g_probe), ((want_value, want_g), want_probe) in zip(
                    results, want * 5):
                assert value == want_value
                assert np.array_equal(g, want_g) and np.array_equal(g_probe, want_probe)
        assert len(got) == 4

    def test_workers_take_separate_scratch(self, monkeypatch):
        for rows in (7, 64):
            monkeypatch.setattr(model, "ROW_BLOCK_BYTES", rows * 8 * (self.l + feature_dim(self.R)))
            ws = model._Workspace(np.zeros((self.n, self.l)), self.R)
            scratch = [block[2] for block in ws.residual_blocks]
            half = len(scratch) // 2
            assert half >= 1
            for mine in scratch[:half]:
                for theirs in scratch[half:]:
                    assert not np.shares_memory(mine, theirs)

    def test_when_the_helper_runs(self, monkeypatch):
        helper = model._helper_thread()
        monkeypatch.setattr(model.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(model, "_openblas_thread_counts", lambda: (lambda: 1, lambda: 1))
        assert model._second_worker(4) is helper
        # each worker needs two blocks
        assert model._second_worker(2) is None and model._second_worker(1) is None
        monkeypatch.setattr(model, "_openblas_thread_counts", lambda: (lambda: 1, lambda: 2))
        assert model._second_worker(4) is None
        monkeypatch.setattr(model, "_openblas_thread_counts", lambda: None)
        assert model._second_worker(4) is None
        monkeypatch.setattr(model, "_openblas_thread_counts", lambda: (lambda: 1,))
        assert model._second_worker(4) is helper
        monkeypatch.setattr(model.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert model._second_worker(4) is None
        monkeypatch.delattr(model.os, "sched_getaffinity", raising=False)
        assert model._second_worker(4) is None


class TestPackUnpack:
    def test_round_trip(self):
        rng = np.random.default_rng(13)
        state = random_state(rng, 7, 3)
        X, U, s2, sigma2 = unpack(pack(state), 7, 3)
        assert np.allclose(X, state.X, atol=1e-15)
        assert np.array_equal(U, state.U)
        assert s2 == pytest.approx(state.s2, rel=1e-15)
        assert sigma2 == pytest.approx(state.sigma2, rel=1e-15)

    def test_rows_sum_to_one_for_any_vector(self):
        rng = np.random.default_rng(14)
        D = feature_dim(3)
        w = rng.normal(size=(5 * 2 + D * D + 2,))
        X, _, _, _ = unpack(w, 5, 3)
        assert np.max(np.abs(X.sum(axis=1) - 1.0)) < 1e-12


class TestMapP:
    def _fixture(self, rng, n=20, l=8, R=2):
        ctx = tiny_ctx(rng, n=n, l=l, R=R, gamma=1.0)
        state = random_state(rng, n, R, s2=1.0, sigma2=0.2)
        return ctx, state

    def test_vague_prior_limit_is_ols(self):
        rng = np.random.default_rng(15)
        ctx, state = self._fixture(rng)
        big = LatentState(X=state.X, U=state.U, s2=1e12, sigma2=state.sigma2)
        # bounds would reject s2=1e12 in the objective, but map_P is a pure
        # linear solve and accepts it
        P = map_P(big, ctx)
        C = psi_batch(state.X) @ state.U
        ols = np.linalg.lstsq(C, ctx.Yc, rcond=None)[0].T
        assert np.max(np.abs(P - ols)) < 1e-6

    def test_infinite_noise_limit_is_prior_mean(self):
        rng = np.random.default_rng(16)
        ctx, state = self._fixture(rng)
        vague = LatentState(X=state.X, U=state.U, s2=state.s2, sigma2=1e12)
        P = map_P(vague, ctx)
        assert np.max(np.abs(P - ctx.pbar.basis)) < 1e-6
        # with no signal (s2 = 0) the posterior mean is the prior mean exactly
        flat = LatentState(X=state.X, U=state.U, s2=0.0, sigma2=state.sigma2)
        assert np.array_equal(map_P(flat, ctx), ctx.pbar.basis)

    def test_noise_free_realizable_reconstruction(self):
        rng = np.random.default_rng(17)
        n, l, R = 24, 8, 2
        D = feature_dim(R)
        X = random_sum_to_one(rng, n, R)
        U = rng.normal(size=(D, D))
        Ptrue = rng.normal(size=(l, D))
        Yc_raw = psi_batch(X) @ U @ Ptrue.T
        Yc = Yc_raw - Yc_raw.mean(axis=0)
        # recenter the generating map so the fixture stays exactly realizable
        pb = pca_basis(Yc, D)
        ctx = ModelContext(Yc, pb, lle_weights(Yc, K=2), gamma=1.0)
        state = LatentState(X=X, U=U, s2=1e10, sigma2=1e-6)
        Phat = map_P(state, ctx)
        recon = reconstruct(state, Phat)
        resid = recon - Yc_raw
        # reconstruction matches up to the removed column means
        resid -= resid.mean(axis=0)
        assert np.max(np.abs(resid)) < 1e-6

    @pytest.mark.parametrize("s2, sigma2", [(1.0, 1e-8), (0.5, 1e-4)])
    def test_ill_conditioned_state_matches_augmented_least_squares(self, s2, sigma2):
        # U with two large and one tiny singular value makes the normal
        # matrix C^T C / sigma2 + I / s2 ill-conditioned; the reference
        # solves the same posterior as the stacked least-squares problem
        # [C / sigma; I / sqrt(s2)] p = [y / sigma; p0 / sqrt(s2)], which
        # does not square the condition number
        rng = np.random.default_rng(19)
        n, R = 60, 2
        D = feature_dim(R)
        ctx = tiny_ctx(rng, n=n, l=8, R=R)
        Q = np.linalg.qr(rng.normal(size=(D, D)))[0]
        U = np.diag([1e2, 1e2, 1e-3]) @ Q
        state = LatentState(X=random_sum_to_one(rng, n, R), U=U, s2=s2, sigma2=sigma2)
        C = psi_batch(state.X) @ U
        assert np.linalg.cond(C.T @ C / sigma2 + np.eye(D) / s2) >= 1e9
        stacked = np.vstack([C / np.sqrt(sigma2), np.eye(D) / np.sqrt(s2)])
        rhs = np.vstack([ctx.Yc / np.sqrt(sigma2), ctx.pbar.basis.T / np.sqrt(s2)])
        ref = np.linalg.lstsq(stacked, rhs, rcond=None)[0].T
        err = np.max(np.abs(map_P(state, ctx) - ref))
        assert err <= 1e-9 * np.max(np.abs(ref))


class TestReconstruct:
    def test_truth_latents_identity_u_reach_noise_floor(self):
        # exact linear scene, latents set to the true abundances, identity
        # coupling: the posterior spectral map must make the reconstruction
        # error vanish
        from nlunmix.embed import lle_weights, pca_basis
        from nlunmix.metrics import are
        from nlunmix.scene import SceneRecipe, mix, sample_abundances, synth_endmembers

        M = synth_endmembers(3, 16, seed=21)
        A = sample_abundances(60, 3, amax=1.0, seed=21)
        img = mix(SceneRecipe(model="lmm", R=3, L=16, N=60, sigma2=1e-4, seed=21), A, M)
        Yc = img.pixels - img.pixels.mean(axis=0)
        ctx = ModelContext(Yc, pca_basis(Yc, 6), lle_weights(Yc, K=3), gamma=1.0)
        state = LatentState(X=A.values, U=np.eye(6), s2=1e10, sigma2=1e-8)
        Phat = map_P(state, ctx)
        assert are(Yc, reconstruct(state, Phat)) <= 1e-6

    def test_zero_u_annihilates(self):
        rng = np.random.default_rng(18)
        state = LatentState(
            X=random_sum_to_one(rng, 5, 2), U=np.zeros((3, 3)), s2=0.1, sigma2=0.1
        )
        P = rng.normal(size=(7, 3))
        assert np.array_equal(reconstruct(state, P), np.zeros((5, 7)))

    def test_pixel_permutation_equivariance(self):
        rng = np.random.default_rng(19)
        state = random_state(rng, 8, 2)
        P = rng.normal(size=(6, 3))
        base = reconstruct(state, P)
        perm = rng.permutation(8)
        permuted = LatentState(X=state.X[perm], U=state.U, s2=state.s2, sigma2=state.sigma2)
        assert np.array_equal(reconstruct(permuted, P), base[perm])

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(20)
        state = random_state(rng, 5, 2)
        with pytest.raises(ValueError):
            reconstruct(state, np.zeros((7, 5)))

"""Marginalized latent-variable model for bilinear unmixing.

The observed (centered) pixels are modeled per spectral band as a Gaussian
with covariance s2 * C C^T + sigma2 * I where C couples the quadratic
feature expansion of the latent rows to a fixed spectral basis.  Everything
here works through the low-rank structure of that covariance: solves and
log-determinants cost O(N * D^2) and never materialize an N x N matrix.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .core import readonly
from .embed import LleWeights, PcaBasis

SIGMA2_FLOOR = 1e-12


def feature_dim(R: int) -> int:
    """Dimension of the quadratic feature map: R linear + R(R-1)/2 cross terms."""
    return R * (R + 1) // 2


@lru_cache(maxsize=None)
def feature_pairs(R: int) -> tuple[tuple[int, int], ...]:
    """Lexicographic (i, j) index pairs of the cross terms."""
    return tuple(combinations(range(R), 2))


def psi(x: np.ndarray) -> np.ndarray:
    """Quadratic feature map: [x_1..x_R, x_1 x_2, x_1 x_3, ..., x_{R-1} x_R]."""
    x = np.asarray(x, float).reshape(-1)
    cross = [x[i] * x[j] for i, j in feature_pairs(x.shape[0])]
    return np.concatenate([x, cross])


def psi_batch(X: np.ndarray) -> np.ndarray:
    """Row-wise feature map of an N x R matrix, as N x D."""
    X = np.asarray(X, float)
    R = X.shape[1]
    cols = [X] + [(X[:, i] * X[:, j])[:, None] for i, j in feature_pairs(R)]
    return np.hstack(cols)


def psi_jacobian(x: np.ndarray) -> np.ndarray:
    """Exact D x R Jacobian of :func:`psi` at x; for an N x R matrix of
    rows, the N x D x R stack of their Jacobians."""
    x = np.asarray(x, float)
    R = x.shape[-1]
    J = np.zeros(x.shape[:-1] + (feature_dim(R), R))
    J[..., :R, :R] = np.eye(R)
    for k, (i, j) in enumerate(feature_pairs(R)):
        J[..., R + k, i] = x[..., j]
        J[..., R + k, j] = x[..., i]
    return J


class WoodburyError(np.linalg.LinAlgError):
    """Raised when the D x D core factorization breaks down.

    ``pivot`` is the 1-based index of the failing Cholesky pivot, which
    points at a numerically degenerate column of C when s2 >> sigma2.
    """

    def __init__(self, message: str, pivot: int):
        super().__init__(message)
        self.pivot = pivot


class WoodburySolver:
    """Solve and log-determinant for Sigma = s2 * C C^T + sigma2 * I_N.

    Everything happens on the D-dimensional core, never on an N x N matrix:
        Sigma^{-1} = (I - s2 * C (sigma2 I_D + s2 C^T C)^{-1} C^T) / sigma2.
    A Cholesky factorization of the core validates positive definiteness
    (its failure pinpoints a numerically degenerate C when s2 >> sigma2);
    the solves themselves go through a thin SVD of C, which avoids squaring
    the condition number and stays accurate when sigma2 is many orders of
    magnitude below s2 * ||C^T C||.
    """

    def __init__(self, C: np.ndarray, s2: float, sigma2: float):
        if s2 < 0:
            raise ValueError("s2 must be >= 0")
        if not sigma2 > 0:
            raise ValueError("sigma2 must be > 0")
        self.C = np.asarray(C, float)
        self.s2 = float(s2)
        self.sigma2 = float(sigma2)
        self.n, self.d = self.C.shape
        if s2 == 0.0:
            self._basis = None
            return
        core = sigma2 * np.eye(self.d) + s2 * (self.C.T @ self.C)
        _, info = lapack.dpotrf(core, lower=1)
        if info != 0:
            raise WoodburyError(
                f"covariance core is not positive definite (pivot {info})", pivot=info
            )
        try:
            W, S, _ = np.linalg.svd(self.C, full_matrices=False)
        except np.linalg.LinAlgError as exc:
            raise WoodburyError(f"core factorization failed: {exc}", pivot=1) from exc
        self._basis = W  # N x min(N, D), orthonormal columns
        self._evals = s2 * S**2 + sigma2  # eigenvalues of Sigma on the basis

    def solve(self, B: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Sigma^{-1} B for an N-vector or N x k matrix B.

        ``out`` optionally receives the result (hot loops reuse buffers to
        avoid churning large allocations)."""
        B = np.asarray(B, float)
        if self._basis is None:
            if out is None:
                return B / self.sigma2
            np.divide(B, self.sigma2, out=out)
            return out
        WtB = self._basis.T @ B
        shrink = 1.0 - self.sigma2 / self._evals
        if B.ndim == 1:
            inner = shrink * WtB
        else:
            inner = shrink[:, None] * WtB
        if out is None:
            out = self._basis @ inner
        else:
            np.matmul(self._basis, inner, out=out)
        np.subtract(B, out, out=out)
        out /= self.sigma2
        return out

    def logdet(self) -> float:
        """log |Sigma| = (N - D) log sigma2 + log |sigma2 I + s2 C^T C|."""
        if self._basis is None:
            return self.n * np.log(self.sigma2)
        k = self._evals.shape[0]
        return float(
            (self.n - k) * np.log(self.sigma2) + np.sum(np.log(self._evals))
        )

    def trace_inv(self) -> float:
        """Trace of Sigma^{-1}."""
        if self._basis is None:
            return self.n / self.sigma2
        k = self._evals.shape[0]
        return float(np.sum(1.0 / self._evals) + (self.n - k) / self.sigma2)


@dataclass(frozen=True)
class Bounds:
    """Flat box priors on the scale parameters; outside them the posterior
    is rejected outright."""

    sigma2_max: float = 1e6
    s2_max: float = 1e6
    u_max: float = 1e3
    sigma2_min: float = SIGMA2_FLOOR


@dataclass(frozen=True)
class LatentState:
    """Latent matrix X (rows sum to 1) plus kernel scales."""

    X: np.ndarray
    U: np.ndarray
    s2: float
    sigma2: float

    def __post_init__(self):
        X = np.array(self.X, float)
        U = np.array(self.U, float)
        if X.ndim != 2 or U.ndim != 2:
            raise ValueError("X and U must be matrices")
        R = X.shape[1]
        D = feature_dim(R)
        if U.shape != (D, D):
            raise ValueError(f"U must be {D} x {D} for R = {R}")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(U))):
            raise ValueError("non-finite latent state")
        if np.any(np.abs(X.sum(axis=1) - 1.0) > 1e-9):
            raise ValueError("latent rows must sum to 1")
        if not (self.s2 >= 0 and np.isfinite(self.s2)):
            raise ValueError("s2 must be finite and >= 0")
        if not (self.sigma2 > 0 and np.isfinite(self.sigma2)):
            raise ValueError("sigma2 must be finite and > 0")
        X.flags.writeable = False
        U.flags.writeable = False
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "U", U)

    @property
    def n_pixels(self) -> int:
        return self.X.shape[0]

    @property
    def n_endmembers(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class ModelContext:
    """Fixed quantities of one fit: centered data, spectral basis, LLE
    weights, prior strength, and box bounds."""

    Yc: np.ndarray
    pbar: PcaBasis
    lle: LleWeights
    gamma: float = 1e3
    bounds: Bounds = field(default_factory=Bounds)

    def __post_init__(self):
        Yc = readonly(self.Yc)  # shared, not copied, when already read-only
        if Yc.ndim != 2:
            raise ValueError("Yc must be N x L")
        if not self.gamma >= 0:
            raise ValueError("gamma must be >= 0")
        if self.pbar.basis.shape[0] != Yc.shape[1]:
            raise ValueError("basis band count must match Yc")
        if self.lle.n_pixels != Yc.shape[0]:
            raise ValueError("LLE weight rows must match pixel count")
        object.__setattr__(self, "Yc", Yc)
        M = self.lle.residual_operator()
        object.__setattr__(self, "_resid_op", M)
        object.__setattr__(self, "_resid_gram", (M.T @ M).tocsr())

    @property
    def n_pixels(self) -> int:
        return self.Yc.shape[0]

    @property
    def n_bands(self) -> int:
        return self.Yc.shape[1]


@dataclass(frozen=True)
class FitReport:
    """Objective trace and termination info of one optimizer run."""

    trace: np.ndarray  # accepted objective values, starting point included
    iterations: int
    converged: bool
    grad_norm: float


def _within_bounds(U, s2, sigma2, bounds: Bounds) -> bool:
    return (
        bounds.sigma2_min <= sigma2 <= bounds.sigma2_max
        and 0.0 <= s2 <= bounds.s2_max
        and np.max(np.abs(U)) <= bounds.u_max
    )


def _evaluate(X, U, s2, sigma2, ctx: ModelContext, want_grad: bool, work=None):
    """Objective (and optionally its gradient blocks) at raw parameters.

    Returns ``(value, grads)`` where grads is ``None`` unless requested;
    out-of-bounds parameters yield ``(inf, None)``.  ``work`` optionally
    carries two (N, L+D) scratch buffers reused across evaluations.
    """
    if not _within_bounds(U, s2, sigma2, ctx.bounds):
        return np.inf, None
    L = ctx.Yc.shape[1]
    R = X.shape[1]
    Psi = psi_batch(X)
    C = Psi @ U
    wb = WoodburySolver(C, s2, sigma2)
    D = C.shape[1]
    if work is None:
        work = (np.empty((X.shape[0], L + D)), np.empty((X.shape[0], L + D)))
    stacked, solved = work
    # right-hand sides [Ybar, C] solved in one pass
    np.matmul(C, ctx.pbar.basis.T, out=stacked[:, :L])
    np.subtract(ctx.Yc, stacked[:, :L], out=stacked[:, :L])
    stacked[:, L:] = C
    Ybar = stacked[:, :L]
    wb.solve(stacked, out=solved)
    SiY = solved[:, :L]
    SiC = solved[:, L:]
    Mx = ctx._resid_op @ X
    value = (
        0.5 * L * wb.logdet()
        + 0.5 * float(np.einsum("ij,ij->", Ybar, SiY))
        + 0.5 * ctx.gamma * float(np.sum(Mx * Mx))
    )
    if not want_grad:
        return value, None

    Q = Ybar.T @ SiC  # L x D
    # dE/dC through Sigma and through Ybar, fused into one N x L product
    Gc = (s2 * L) * SiC - SiY @ (s2 * Q + ctx.pbar.basis)
    GU = Psi.T @ Gc
    Gpsi = Gc @ U.T
    GX = Gpsi[:, :R].copy()
    for k, (i, j) in enumerate(feature_pairs(R)):
        GX[:, i] += Gpsi[:, R + k] * X[:, j]
        GX[:, j] += Gpsi[:, R + k] * X[:, i]
    GX += ctx.gamma * (ctx._resid_gram @ X)
    # chain rule through x_R = 1 - sum of the free coordinates
    GX_free = GX[:, : R - 1] - GX[:, R - 1 :]
    g_s2 = 0.5 * L * float(np.sum(C * SiC)) - 0.5 * float(np.sum(Q * Q))
    g_sigma2 = 0.5 * L * wb.trace_inv() - 0.5 * float(np.einsum("ij,ij->", SiY, SiY))
    grads = {
        "X_free": GX_free,
        "U": GU,
        "log_s2": s2 * g_s2,
        "log_sigma2": sigma2 * g_sigma2,
    }
    return value, grads


def neg_log_posterior(state: LatentState, ctx: ModelContext) -> float:
    """Negative log posterior up to an additive constant."""
    value, _ = _evaluate(state.X, state.U, state.s2, state.sigma2, ctx, False)
    return value


def grad_neg_log_posterior(state: LatentState, ctx: ModelContext) -> dict:
    """Analytic gradient blocks over (free latents, U, log s2, log sigma2)."""
    value, grads = _evaluate(state.X, state.U, state.s2, state.sigma2, ctx, True)
    if grads is None:
        raise ValueError("state outside the prior bounds")
    return grads


def pack(state: LatentState) -> np.ndarray:
    """Flatten the optimized blocks into one vector."""
    R = state.n_endmembers
    return np.concatenate(
        [
            state.X[:, : R - 1].ravel(),
            state.U.ravel(),
            [np.log(state.s2), np.log(state.sigma2)],
        ]
    )


def unpack(w: np.ndarray, n_pixels: int, R: int) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Inverse of :func:`pack`, rebuilding the sum-to-one latent matrix."""
    D = feature_dim(R)
    nx = n_pixels * (R - 1)
    Xfree = w[:nx].reshape(n_pixels, R - 1)
    X = np.hstack([Xfree, 1.0 - Xfree.sum(axis=1, keepdims=True)])
    U = w[nx : nx + D * D].reshape(D, D)
    with np.errstate(over="ignore"):  # inf scales are rejected by the bounds
        s2 = float(np.exp(w[nx + D * D]))
        sigma2 = float(np.exp(w[nx + D * D + 1]))
    return X, U, s2, sigma2


def _pack_grads(grads: dict) -> np.ndarray:
    return np.concatenate(
        [
            grads["X_free"].ravel(),
            grads["U"].ravel(),
            [grads["log_s2"], grads["log_sigma2"]],
        ]
    )


def objective_function(ctx: ModelContext, n_pixels: int, R: int):
    """Value-and-gradient callable over the packed parameter vector."""
    width = ctx.n_bands + feature_dim(R)
    work = (np.empty((n_pixels, width)), np.empty((n_pixels, width)))

    def fg(w: np.ndarray) -> tuple[float, np.ndarray]:
        X, U, s2, sigma2 = unpack(w, n_pixels, R)
        try:
            value, grads = _evaluate(X, U, s2, sigma2, ctx, True, work=work)
        except WoodburyError:
            return np.inf, np.full(w.shape, np.nan)
        if grads is None:
            return np.inf, np.full(w.shape, np.nan)
        return value, _pack_grads(grads)

    return fg


def initial_state(ctx: ModelContext, X0: np.ndarray) -> LatentState:
    """Starting point near the linear solution.

    U starts as the identity on the linear block, scaled so that mapping the
    starting latents (spread 1/(2R) per axis) reproduces the RMS of the PCA
    scores; s2 starts at 1 and sigma2 at the PCA residual variance.  Keeping
    the initial reconstruction close to the PCA one makes the early
    optimizer steps tame, which matters because the quadratic feature map
    gives each pixel several exact latent roots and wild early steps can
    strand pixels on the wrong root.
    """
    X0 = np.asarray(X0, float)
    R = X0.shape[1]
    D = feature_dim(R)
    scores = ctx.Yc @ ctx.pbar.basis[:, : max(R - 1, 1)]
    rms = float(np.sqrt(np.mean(scores**2)))
    U = np.zeros((D, D))
    U[:R, :R] = np.eye(R) * (2 * R * rms if rms > 0 else 1.0)
    sigma2 = max(ctx.pbar.residual_variance, 1e-10)
    return LatentState(X=X0, U=U, s2=1.0, sigma2=sigma2)


def scg_optimize(
    state0: LatentState,
    ctx: ModelContext,
    max_iter: int = 2000,
    tol: float = 1e-8,
) -> tuple[LatentState, FitReport]:
    """Maximize the posterior by scaled conjugate gradients.

    Terminates at ``max_iter`` or once the relative objective decrease stays
    below ``tol`` for three consecutive accepted steps.
    """
    from .scg import scg

    n, R = state0.X.shape
    fg = objective_function(ctx, n, R)
    w0 = pack(state0)
    f0, g0 = fg(w0)
    if not (np.isfinite(f0) and np.all(np.isfinite(g0))):
        raise ValueError("objective or gradient not finite at the start state")
    w, res = scg(fg, w0, max_iter=max_iter, tol=tol)
    X, U, s2, sigma2 = unpack(w, n, R)
    state = LatentState(X=X, U=U, s2=s2, sigma2=sigma2)
    report = FitReport(
        trace=np.asarray(res.trace),
        iterations=res.iterations,
        converged=res.converged,
        grad_norm=res.grad_norm,
    )
    return state, report


def map_P(state: LatentState, ctx: ModelContext) -> np.ndarray:
    """Posterior-mean estimate of the L x D spectral map given the fit.

    Row l solves the Gaussian-linear posterior with data weight 1/sigma2 and
    prior weight 1/s2 around the corresponding basis row.
    """
    C = psi_batch(state.X) @ state.U
    s2, sigma2 = state.s2, state.sigma2
    if s2 <= 0:
        return ctx.pbar.basis.copy()
    A = C.T @ C / sigma2 + np.eye(C.shape[1]) / s2
    rhs = C.T @ ctx.Yc / sigma2 + ctx.pbar.basis.T / s2  # D x L
    cf = scipy.linalg.cho_factor(A)
    return scipy.linalg.cho_solve(cf, rhs).T


def reconstruct(state: LatentState, Phat: np.ndarray) -> np.ndarray:
    """Model reconstruction of the centered pixels, N x L."""
    Phat = np.asarray(Phat, float)
    C = psi_batch(state.X) @ state.U
    if Phat.shape[1] != C.shape[1]:
        raise ValueError("Phat columns must match the feature dimension")
    return C @ Phat.T


def latent_noise_scale(state: LatentState, basis: np.ndarray) -> float:
    """Per-axis scatter the spectral noise induces on the fitted latents.

    Linearizes the latent-to-spectrum map at every pixel: a spectral
    perturbation of variance sigma2 per band moves the maximum-likelihood
    free latent coordinates with covariance sigma2 (G^T G)^{-1}, G = P U^T F
    being the local L x (R-1) Jacobian and F the feature Jacobian on the
    free coordinates.  All pixels are done at once: G^T G = F^T K F with the
    D x D matrix K = (P U^T)^T (P U^T), so no L-sized array is formed per
    pixel, and one stacked Hermitian pseudo-inverse gives every pixel's
    covariance.  Returns the RMS per-axis standard deviation over the
    cloud, which calibrates how softly the scaling step should treat points
    just outside the simplex.
    """
    n, R = state.X.shape
    reduce_free = np.vstack([np.eye(R - 1), -np.ones((1, R - 1))])
    PU = np.asarray(basis, float) @ state.U.T  # L x D
    K = PU.T @ PU
    F = psi_jacobian(state.X) @ reduce_free  # N x D x (R-1)
    grams = np.swapaxes(F, 1, 2) @ (K @ F)
    total = np.trace(np.linalg.pinv(grams, hermitian=True), axis1=1, axis2=2).sum()
    return float(np.sqrt(state.sigma2 * total / (n * (R - 1))))

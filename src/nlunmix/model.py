"""Marginalized latent-variable model for bilinear unmixing.

The observed (centered) pixels are modeled per spectral band as a Gaussian
with covariance s2 * C C^T + sigma2 * I where C couples the quadratic
feature expansion of the latent rows to a fixed spectral basis.  Everything
here works through the low-rank structure of that covariance: solves and
log-determinants cost O(N * D^2) and never materialize an N x N matrix.
"""
from __future__ import annotations

import contextvars
import ctypes
import os
import re
import threading
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np
from scipy.linalg import lapack

from .core import readonly
from .embed import LleWeights, PcaBasis
from .scg import ScgResult as FitReport  # the fit reports the optimizer's result as is
from .scg import scg

SIGMA2_FLOOR = 1e-12
# flat box priors on the scale parameters, sigma2 in [SIGMA2_FLOOR,
# SIGMA2_MAX], s2 in [0, S2_MAX] and |U| <= U_MAX; outside them the
# posterior is rejected outright
SIGMA2_MAX = 1e6
S2_MAX = 1e6
U_MAX = 1e3
# Most bytes of an N x (L + D) row block: about half of a 2 MiB L2 cache.
# The objective's row-wise phases (the residual, the solve's
# back-substitution and the gradient's N x D combination) take rows in
# blocks of at most this size, so that a block's intermediates are still in
# cache when the next operation of the phase reads them.  An array larger
# than one block is cut into an even count of blocks of equal size (to a
# row), so that the calling thread and the helper thread (see
# :func:`_second_worker`) each take half of the rows.  Row-wise arithmetic
# does not depend on the split, so results depend neither on this constant
# nor on the helper.
ROW_BLOCK_BYTES = 2**20


def _row_blocks(n: int, width: int) -> tuple[slice, ...]:
    """Consecutive row slices covering an n x ``width`` float64 array: one
    slice when the array fits in ``ROW_BLOCK_BYTES``, else an even count of
    slices whose sizes differ by at most one row, each of at most
    ``ROW_BLOCK_BYTES`` and at least two rows (the two-row floor wins over
    the byte bound).  No slice has a single row: numpy computes a one-row
    matrix product with a matrix-vector kernel, which rounds differently
    from the same row inside a matrix product.  The workspace and the solve
    both take their split from here."""
    return _split_rows(n, max(2, ROW_BLOCK_BYTES // (8 * max(width, 1))))


@lru_cache(maxsize=8)
def _split_rows(n: int, step: int) -> tuple[slice, ...]:
    count = -(-n // step)
    if count > 1:
        count = min(count + count % 2, n // 4 * 2)
    if count < 2:
        return (slice(0, n),)
    size, longer = divmod(n, count)
    starts = [i * size + min(i, longer) for i in range(count + 1)]
    return tuple(slice(a, b) for a, b in zip(starts, starts[1:]))


# The helper thread of the objective's second worker: one thread, made the
# first time a second worker runs, and forgotten in a forked child, which
# does not inherit the thread.
_helper = None
_helper_lock = threading.Lock()


def _forget_helper() -> None:
    global _helper, _helper_lock
    _helper, _helper_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


def _helper_thread():
    """The one-worker executor of the helper thread, made on first use."""
    global _helper
    if _helper is None:
        with _helper_lock:
            if _helper is None:
                from concurrent.futures import ThreadPoolExecutor

                _helper = ThreadPoolExecutor(max_workers=1, thread_name_prefix="nlunmix-rows")
    return _helper


@lru_cache(maxsize=1)
def _openblas_thread_counts() -> tuple | None:
    """The ``get_num_threads`` entries of the OpenBLAS libraries loaded when
    first asked (numpy's and scipy's are loaded with this module), or None
    when none is loaded, the list cannot be read or a library lacks the
    entry."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted(set(re.findall(r"/\S*openblas\S*\.so\S*", fh.read())))
        libs = [ctypes.CDLL(path) for path in paths]
    except OSError:
        return None
    entries = []
    for lib in libs:
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            entry = getattr(lib, name, None)
            if entry is not None:
                entry.restype, entry.argtypes = ctypes.c_int, []
                entries.append(entry)
                break
        else:
            return None
    return tuple(entries) or None


def _second_worker(n_blocks: int):
    """The helper thread's executor when a row-wise phase of ``n_blocks``
    blocks may run on two workers, else None (everything runs in the calling
    thread).  That needs two CPUs this process may use, one thread in every
    loaded OpenBLAS, and two blocks for each worker.  With more BLAS
    threads, OpenBLAS's spinning threads take the helper's core and the
    split evaluation ran 5-19% slower; a thread count that cannot be read
    counts as more than one.  Each evaluation hands work to the helper four
    times, at about 50 us each, so a small scene does not pay for it: at
    L = 160 the split evaluation was 13-27% slower at N = 800 (two blocks)
    and faster from N = 1,100 on."""
    affinity = getattr(os, "sched_getaffinity", None)
    if n_blocks < 4 or affinity is None or len(affinity(0)) < 2:
        return None
    counts = _openblas_thread_counts()
    if counts is None or any(get() != 1 for get in counts):
        return None
    return _helper_thread()


def _together(helper, here, there):
    """``(here(), there())``, with ``there`` on the helper thread while
    ``here`` runs in this one, or both in this one when ``helper`` is None.
    The helper runs in a copy of this thread's context, so numpy's error
    state applies to it too.  Both have finished when this returns or
    raises; an exception of either propagates."""
    if helper is None:
        return here(), there()
    future = helper.submit(contextvars.copy_context().run, there)
    try:
        got = here()
    finally:
        future.exception()  # wait: the helper may still be writing shared buffers
    return got, future.result()


def _halves(helper, task, blocks) -> None:
    """``task`` over the first half of ``blocks`` here and over the second
    half on the helper thread, or over all of them here in one call."""
    if helper is None:
        task(blocks)
        return
    half = len(blocks) // 2
    _together(helper, lambda: task(blocks[:half]), lambda: task(blocks[half:]))


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


def psi_batch(X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise feature map of an N x R matrix, as N x D, written into the
    N x D buffer ``out`` when one is given."""
    X = np.asarray(X, float)
    R = X.shape[1]
    if out is None:
        out = np.empty((X.shape[0], feature_dim(R)))
    out[:, :R] = X
    for k, (i, j) in enumerate(feature_pairs(R)):
        np.multiply(X[:, i], X[:, j], out=out[:, R + k])
    return out


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
    everything else goes through the thin SVD C = W S V^T, which avoids
    squaring the condition number and stays accurate when sigma2 is many
    orders of magnitude below s2 * ||C^T C||.  At s2 = 0 the solve is B / sigma2.
    """

    def __init__(self, C: np.ndarray, s2: float, sigma2: float):
        if not (np.isfinite(s2) and s2 >= 0):
            raise ValueError("s2 must be finite and >= 0")
        if not (np.isfinite(sigma2) and sigma2 > 0):
            raise ValueError("sigma2 must be finite and > 0")
        self.C = np.asarray(C, float)
        self.s2 = float(s2)
        self.sigma2 = float(sigma2)
        self.n, self.d = self.C.shape
        core = self.C.T @ self.C
        core *= s2
        core.flat[:: self.d + 1] += sigma2
        _, info = lapack.dpotrf(core, lower=1)
        if info != 0:
            raise WoodburyError(
                f"covariance core is not positive definite (pivot {info})", pivot=info
            )
        try:
            W, S, Vt = np.linalg.svd(self.C, full_matrices=False)
        except np.linalg.LinAlgError as exc:
            raise WoodburyError(f"core factorization failed: {exc}", pivot=1) from exc
        # C = W diag(S) Vt: W is N x k, k = min(N, D), Vt is k x D
        self.W, self.S, self.Vt = W, S, Vt
        self.evals = s2 * S**2 + sigma2  # eigenvalues of Sigma on W's columns

    def solve(self, B: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Sigma^{-1} B for an N-vector or N x k matrix B.

        ``out`` optionally receives the result (hot loops reuse buffers to
        avoid churning large allocations); it may be B itself.  The
        projection W^T B onto the basis is one whole-array product in the
        calling thread; the back-substitution (B - W inner) / sigma2 then
        runs over the row blocks of :func:`_row_blocks`, each finished while
        it is in cache, the second half of them on the helper thread when
        :func:`_second_worker` allows one; for a right-hand side as wide as
        the workspace's these are the workspace's blocks.  The result
        depends neither on the block size nor on the helper."""
        B = np.asarray(B, float)
        if out is not None and np.may_share_memory(B, out):
            # the back-substitution writes W inner into out before it reads B
            out[...] = self.solve(B)
            return out
        WtB = self.W.T @ B
        shrink = 1.0 - self.sigma2 / self.evals
        if B.ndim == 1:
            inner = shrink * WtB
        else:
            inner = shrink[:, None] * WtB
        if out is None:
            out = np.empty(B.shape)

        def back_substitute(blocks):
            for rows in blocks:
                block = out[rows]
                np.matmul(self.W[rows], inner, out=block)
                np.subtract(B[rows], block, out=block)
                block /= self.sigma2

        blocks = _row_blocks(B.shape[0], B.shape[1] if B.ndim == 2 else 1)
        _halves(_second_worker(len(blocks)), back_substitute, blocks)
        return out

    def logdet(self) -> float:
        """log |Sigma| = (N - D) log sigma2 + log |sigma2 I + s2 C^T C|."""
        k = self.evals.shape[0]
        return float(
            (self.n - k) * np.log(self.sigma2) + np.log(self.evals).sum()
        )

    def trace_inv(self) -> float:
        """Trace of Sigma^{-1}."""
        k = self.evals.shape[0]
        return float((1.0 / self.evals).sum() + (self.n - k) / self.sigma2)

    def posterior_map(self, Yc: np.ndarray, P: np.ndarray) -> np.ndarray:
        """Posterior mean P + s2 Ybar^T Sigma^{-1} C of the L x D spectral
        map with prior mean P, for the N x L pixels Yc and Ybar = Yc - C P^T:
        P + s2 (W^T Ybar)^T diag(S / evals) V^T with W^T Ybar = W^T Yc -
        S V^T P^T.  No normal equations, no N x L array."""
        WtYbar = self.W.T @ Yc - self.S[:, None] * (self.Vt @ P.T)  # k x L
        return P + self.s2 * ((WtYbar.T * (self.S / self.evals)) @ self.Vt)


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
    weights and prior strength."""

    Yc: np.ndarray
    pbar: PcaBasis
    lle: LleWeights
    gamma: float = 1e3

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


def _within_bounds(U, s2, sigma2) -> bool:
    return (
        SIGMA2_FLOOR <= sigma2 <= SIGMA2_MAX
        and 0.0 <= s2 <= S2_MAX
        and np.abs(U).max() <= U_MAX
    )


def _blocks(v: np.ndarray, n_pixels: int, R: int):
    """Views of a packed vector's blocks: the N x (R-1) free latents, the
    D x D matrix U and the two log scales."""
    D = feature_dim(R)
    nx = n_pixels * (R - 1)
    return v[:nx].reshape(n_pixels, R - 1), v[nx : nx + D * D].reshape(D, D), v[nx + D * D :]


class _Workspace:
    """Buffers of one evaluation, kept for a whole fit so that evaluations
    do not allocate their N-sized intermediates afresh, and the row block
    views of the evaluation's row-wise phases, worked out once per fit.

    A row block holds at most ``ROW_BLOCK_BYTES`` of an N x (L+D) row (see
    :func:`_row_blocks`); small scenes, up to 789 rows at L = 160, D = 6, are
    one block, and larger ones an even count of equal blocks, the first half
    for the calling thread and the second for the helper.  The residual
    phase forms each block of Ybar in a scratch inside ``solved``, which is
    not yet in use then: the calling thread's blocks share the head of
    ``solved``, and the helper's blocks share the start of the helper's half
    of it, so the two workers never write the same scratch."""

    def __init__(self, Yc: np.ndarray, R: int):
        n_pixels, L = Yc.shape
        D = feature_dim(R)
        self.X = np.empty((n_pixels, R))
        self.Psi = np.empty((n_pixels, D))
        self.C = np.empty((n_pixels, D))
        self.Gc = np.empty((n_pixels, D))
        self.scratch = np.empty((n_pixels, D))
        self.GX = np.empty((n_pixels, R))
        # right-hand sides [Ybar | C] and their solves, one pass each
        self.stacked = np.empty((n_pixels, L + D))
        self.solved = np.empty((n_pixels, L + D))
        blocks = _row_blocks(n_pixels, L + D)
        flat = self.solved.reshape(-1)
        helper_start = blocks[len(blocks) // 2].start * (L + D)

        def ybar_scratch(i, rows):
            start = 0 if i < len(blocks) // 2 else helper_start
            return flat[start : start + (rows.stop - rows.start) * L].reshape(-1, L)

        # (Yc, C, Ybar scratch, stacked Ybar, stacked C) per block
        self.residual_blocks = [
            (Yc[rows], self.C[rows], ybar_scratch(i, rows),
             self.stacked[rows, :L], self.stacked[rows, L:])
            for i, rows in enumerate(blocks)
        ]
        # (Sigma^-1 Ybar, Sigma^-1 C, Gc, scratch) per block
        self.gradient_blocks = [
            (self.solved[rows, :L], self.solved[rows, L:], self.Gc[rows], self.scratch[rows])
            for rows in blocks
        ]


def _residual(blocks, basis_t) -> None:
    """Ybar = Yc - C P^T and the stacked right-hand side [Ybar | C] over
    residual blocks of a workspace.  Ybar is subtracted in a contiguous
    scratch and then copied: numpy's subtraction into the strided column
    block of ``stacked`` measured 1.1-1.6x slower on 400- and 789-row
    blocks, which sit in cache."""
    for Yc_b, C_b, Ybar_b, stacked_y, stacked_c in blocks:
        np.matmul(C_b, basis_t, out=Ybar_b)
        np.subtract(Yc_b, Ybar_b, out=Ybar_b)
        stacked_y[...] = Ybar_b
        stacked_c[...] = C_b


def _gc(blocks, s2L, through_ybar) -> None:
    """Gc = s2 L Sigma^-1 C - Sigma^-1 Ybar (s2 Q + P) over gradient blocks
    of a workspace."""
    for SiY_b, SiC_b, Gc_b, scratch_b in blocks:
        np.multiply(s2L, SiC_b, out=Gc_b)
        Gc_b -= np.matmul(SiY_b, through_ybar, out=scratch_b)


def _evaluate(X, U, s2, sigma2, ctx: ModelContext, ws: _Workspace,
              want_value: bool = True, grad: np.ndarray | None = None):
    """Objective at raw parameters, or ``None`` outside the prior bounds.

    ``grad``, a vector laid out like :func:`pack`, receives the gradient over
    (free latents, U, log s2, log sigma2) when given.  Without
    ``want_value`` the terms only the value needs (the LLE residual, the
    log-determinant and the data fit) are skipped and nan is returned.
    The N x D and N x (L+D) intermediates live in ``ws``.

    The row-wise phases run over the workspace's row blocks, so that each
    block's intermediates stay in cache: Ybar = Yc - C P^T and the stacked
    right-hand side, the solve's back-substitution, and the gradient's
    Gc = s2 L Sigma^-1 C - Sigma^-1 Ybar (s2 Q + P).  Every reduction over
    the N pixels (W^T B in the solve, Q, the einsums, Psi^T Gc and the sums)
    and the SVD stay whole-array calls: splitting a reduction changes its
    rounding, while splitting rows does not.  So the result does not depend
    on ``ROW_BLOCK_BYTES``.

    When :func:`_second_worker` allows one, the helper thread takes the
    second half of each row-wise phase's blocks, and it computes the value
    terms and the sigma2 term's data sum while this thread forms Q.  Each is
    the same call on the same operands as without the helper, so the result
    does not depend on it either.  Every BLAS and LAPACK reduction (C^T C,
    the Cholesky factor, the SVD, W^T B, Q, Psi^T Gc) runs in the calling
    thread, whose BLAS thread count decides their rounding.
    """
    if not _within_bounds(U, s2, sigma2):
        return None
    L = ctx.Yc.shape[1]
    n, R = X.shape
    Psi = psi_batch(X, out=ws.Psi)
    C = np.matmul(Psi, U, out=ws.C)
    wb = WoodburySolver(C, s2, sigma2)
    helper = _second_worker(len(ws.residual_blocks))
    basis_t = ctx.pbar.basis.T
    _halves(helper, lambda blocks: _residual(blocks, basis_t), ws.residual_blocks)
    stacked, solved = ws.stacked, ws.solved
    Ybar = stacked[:, :L]
    wb.solve(stacked, out=solved)
    SiY = solved[:, :L]
    SiC = solved[:, L:]

    def value_terms():
        Mx = ctx._resid_op @ X
        return (
            0.5 * L * wb.logdet()
            + 0.5 * float(np.einsum("ij,ij->", Ybar, SiY))
            + 0.5 * ctx.gamma * float((Mx * Mx).sum())
        )

    if grad is None:
        return value_terms() if want_value else np.nan

    def sums_beside_q():
        value = value_terms() if want_value else np.nan
        return value, float(np.einsum("ij,ij->", SiY, SiY))

    # Q = Ybar^T SiC (L x D), formed as the transpose of SiC^T Ybar: the
    # same single product over the pixels, which OpenBLAS runs 2-2.5x
    # faster with the small dimension first.  The fit's bits rest on the two
    # orders summing alike; TestRowBlocks pins that on the shipped shapes,
    # so a BLAS that rounds them differently fails there.  The copy keeps Q
    # C-ordered
    Q, (value, SiY_sq) = _together(helper, lambda: (SiC.T @ Ybar).T.copy(), sums_beside_q)
    g_xfree, g_u, g_logs = _blocks(grad, n, R)
    # dE/dC through Sigma and through Ybar, fused into one N x L product
    through_ybar = s2 * Q + ctx.pbar.basis
    _halves(helper, lambda blocks: _gc(blocks, s2 * L, through_ybar), ws.gradient_blocks)
    Gc = ws.Gc
    np.matmul(Psi.T, Gc, out=g_u)
    Gpsi = np.matmul(Gc, U.T, out=ws.scratch)
    GX = ws.GX
    GX[:] = Gpsi[:, :R]
    for k, (i, j) in enumerate(feature_pairs(R)):
        GX[:, i] += Gpsi[:, R + k] * X[:, j]
        GX[:, j] += Gpsi[:, R + k] * X[:, i]
    GX += ctx.gamma * (ctx._resid_gram @ X)
    # chain rule through x_R = 1 - sum of the free coordinates
    np.subtract(GX[:, : R - 1], GX[:, R - 1 :], out=g_xfree)
    CSiC = np.multiply(C, SiC, out=ws.scratch)
    g_s2 = 0.5 * L * float(CSiC.sum()) - 0.5 * float((Q * Q).sum())
    g_sigma2 = 0.5 * L * wb.trace_inv() - 0.5 * SiY_sq
    g_logs[0] = s2 * g_s2
    g_logs[1] = sigma2 * g_sigma2
    return value


def neg_log_posterior(state: LatentState, ctx: ModelContext) -> float:
    """Negative log posterior up to an additive constant."""
    n, R = state.X.shape
    ws = _Workspace(ctx.Yc, R)
    value = _evaluate(state.X, state.U, state.s2, state.sigma2, ctx, ws)
    return np.inf if value is None else value


def grad_neg_log_posterior(state: LatentState, ctx: ModelContext) -> dict:
    """Analytic gradient blocks over (free latents, U, log s2, log sigma2)."""
    n, R = state.X.shape
    ws = _Workspace(ctx.Yc, R)
    grad = np.empty(n * (R - 1) + feature_dim(R) ** 2 + 2)
    if _evaluate(state.X, state.U, state.s2, state.sigma2, ctx, ws, False, grad) is None:
        raise ValueError("state outside the prior bounds")
    X_free, U, logs = _blocks(grad, n, R)
    return {"X_free": X_free, "U": U, "log_s2": float(logs[0]), "log_sigma2": float(logs[1])}


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


def unpack(
    w: np.ndarray, n_pixels: int, R: int, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Inverse of :func:`pack`, rebuilding the sum-to-one latent matrix (in
    the N x R buffer ``out`` when one is given).  U is a view into ``w``."""
    Xfree, U, logs = _blocks(w, n_pixels, R)
    X = np.empty((n_pixels, R)) if out is None else out
    X[:, : R - 1] = Xfree
    np.subtract(1.0, Xfree.sum(axis=1), out=X[:, R - 1])
    with np.errstate(over="ignore"):  # inf scales are rejected by the bounds
        s2 = float(np.exp(logs[0]))
        sigma2 = float(np.exp(logs[1]))
    return X, U, s2, sigma2


def objective_function(ctx: ModelContext, n_pixels: int, R: int):
    """Value-and-gradient callable over the packed parameter vector.

    ``fg(w)`` returns ``(value, gradient)``.  ``fg.gradient(w)`` returns the
    same gradient, bit for bit, and skips the terms only the value needs;
    :func:`scg_optimize` passes it to :func:`~nlunmix.scg.scg` for the
    curvature probes.  Outside the prior bounds, or where the covariance
    core breaks down, the value is inf and the gradient all nan.  Every
    evaluation of one callable reuses one set of buffers and one set of row
    blocks of ``ROW_BLOCK_BYTES`` (see ``_Workspace`` and
    ``_evaluate``), so the constant is read when the callable is made; each
    returned gradient is a fresh array.  Each evaluation of a scene of four
    or more blocks checks anew whether the helper thread may take half of
    its row-wise work (see :func:`_second_worker`); the callable has no
    setting for it.  Values and gradients depend neither on the block size
    nor on the helper.  One callable is not for concurrent use: its
    evaluations share the buffers.
    """
    ws = _Workspace(ctx.Yc, R)

    def evaluate(w: np.ndarray, want_value: bool) -> tuple[float, np.ndarray]:
        X, U, s2, sigma2 = unpack(w, n_pixels, R, out=ws.X)
        grad = np.empty(w.shape)
        try:
            value = _evaluate(X, U, s2, sigma2, ctx, ws, want_value, grad)
        except WoodburyError:
            value = None
        if value is None:
            grad.fill(np.nan)
            return np.inf, grad
        return value, grad

    def fg(w: np.ndarray) -> tuple[float, np.ndarray]:
        return evaluate(w, True)

    fg.gradient = lambda w: evaluate(w, False)[1]
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
    below ``tol`` for three consecutive accepted steps.  The curvature
    probes use the objective's gradient-only entry when it has one.  A start
    state with a non-finite objective or gradient raises
    :class:`~nlunmix.scg.ScgStartError`, a ``ValueError``.
    """
    n, R = state0.X.shape
    fg = objective_function(ctx, n, R)
    w, report = scg(fg, pack(state0), max_iter=max_iter, tol=tol,
                    gradient=getattr(fg, "gradient", None))
    X, U, s2, sigma2 = unpack(w, n, R)
    return LatentState(X=X, U=U, s2=s2, sigma2=sigma2), report


def map_P(state: LatentState, ctx: ModelContext) -> np.ndarray:
    """Posterior-mean estimate of the L x D spectral map given the fit.

    Row l solves the Gaussian-linear posterior with data weight 1/sigma2 and
    prior weight 1/s2 around the corresponding basis row (the basis at s2 = 0).
    """
    C = psi_batch(state.X) @ state.U
    wb = WoodburySolver(C, state.s2, state.sigma2)
    return wb.posterior_map(ctx.Yc, ctx.pbar.basis)


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

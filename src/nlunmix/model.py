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
from itertools import combinations, count

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
# The objective's row-wise phases (the residual with the stacked right-hand
# side [Ybar | C], and the fused phase that back-substitutes a block of
# Sigma^-1 [Ybar | C] into a worker's block scratch and uses it while it is
# in cache) take rows in blocks of at most this size, one task per block,
# which the calling thread and the helper thread (see :func:`_second_worker`)
# claim one at a time from one counter (see :func:`_run`).  The workspace
# works out its split from this constant once per fit (see
# :func:`_split_rows`): an array larger than one block is cut into an even
# count of blocks of equal size (to a row).  The even count lifts a
# three-block scene (N = 1,579-2,367 at L = 160) to the four blocks the
# helper needs.  Row-wise arithmetic does not depend on the split, so
# results depend neither on this constant nor on which worker takes which
# block.
ROW_BLOCK_BYTES = 2**20


def _split_rows(n: int, step: int) -> tuple[slice, ...]:
    """Consecutive row slices covering n rows: one slice when n <= ``step``,
    else an even count of slices whose sizes differ by at most one row,
    each of at most ``step`` rows and at least two (the two-row floor wins
    over ``step``).  No slice has a single row: numpy computes a one-row
    matrix product with a matrix-vector kernel, which rounds differently
    from the same row inside a matrix product."""
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
    blocks may run on two workers, else None (:func:`_run` then runs every
    task in the calling thread).  That needs two CPUs this process may use,
    one thread in every loaded OpenBLAS, and two blocks for each worker.
    With more BLAS threads, OpenBLAS's spinning threads take the helper's
    core and the split evaluation ran 5-19% slower; a thread count that
    cannot be read counts as more than one.  Each evaluation hands work to
    the helper three times, one :func:`_run` per phase, at about 50 us
    each, so a small scene does not pay for it: at L = 160 the split
    evaluation was 13-15% slower at N = 800 and 1,100 (two blocks) and
    20-22% faster at N = 1,600 and 2,500 (four)."""
    affinity = getattr(os, "sched_getaffinity", None)
    if n_blocks < 4 or affinity is None or len(affinity(0)) < 2:
        return None
    counts = _openblas_thread_counts()
    if counts is None or any(get() != 1 for get in counts):
        return None
    return _helper_thread()


def _run(helper, ws: _Workspace, tasks) -> list:
    """``[task(scratch) for task in tasks]``, in task order, where ``scratch``
    is the block scratch of the worker that runs the task.  With no helper
    every task runs here, in order; else this thread and the helper claim
    tasks from one shared counter until none is left, so a worker that
    finishes early takes more.  The helper runs in a copy of this thread's
    context, so numpy's error state applies to it too.  Both workers have
    finished when this returns or raises; an exception of either
    propagates.  The tasks of one call must not depend on each other."""
    if helper is None:
        scratch = ws.block_scratch[0]
        return [task(scratch) for task in tasks]
    if len(ws.block_scratch) == 1:  # the helper's, made the first time it runs
        ws.block_scratch.append(np.empty_like(ws.block_scratch[0]))
    # one claim is one call into C, which the interpreter lock keeps whole,
    # so no two claims get the same task
    claim = count().__next__
    got = [None] * len(tasks)

    def work(scratch):
        i = claim()
        while i < len(tasks):
            got[i] = tasks[i](scratch)
            i = claim()

    future = helper.submit(contextvars.copy_context().run, work, ws.block_scratch[1])
    try:
        work(ws.block_scratch[0])
    finally:
        future.exception()  # wait: the helper may still be writing shared buffers
    future.result()
    return got


def feature_dim(R: int) -> int:
    """Dimension of the quadratic feature map: R linear + R(R-1)/2 cross terms."""
    return R * (R + 1) // 2


@lru_cache(maxsize=None)
def feature_pairs(R: int) -> tuple[tuple[int, int], ...]:
    """Lexicographic (i, j) index pairs of the cross terms."""
    return tuple(combinations(range(R), 2))


def psi(x: np.ndarray) -> np.ndarray:
    """Quadratic feature map: [x_1..x_R, x_1 x_2, x_1 x_3, ..., x_{R-1} x_R]."""
    return psi_batch(np.asarray(x, float).reshape(1, -1))[0]


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
        C = np.asarray(C, float)
        self.s2 = float(s2)
        self.sigma2 = float(sigma2)
        self.n, d = C.shape
        core = C.T @ C
        core *= s2
        core.flat[:: d + 1] += sigma2
        _, info = lapack.dpotrf(core, lower=1)
        if info != 0:
            raise WoodburyError(
                f"covariance core is not positive definite (pivot {info})", pivot=info
            )
        try:
            W, S, Vt = np.linalg.svd(C, full_matrices=False)
        except np.linalg.LinAlgError as exc:
            raise WoodburyError(f"core factorization failed: {exc}", pivot=1) from exc
        # C = W diag(S) Vt: W is N x k, k = min(N, D), Vt is k x D
        self.W, self.S, self.Vt = W, S, Vt
        self.evals = s2 * S**2 + sigma2  # eigenvalues of Sigma on W's columns

    def solve(self, B: np.ndarray) -> np.ndarray:
        """Sigma^{-1} B for an N-vector or N x k matrix B, as a new array:
        (B - W diag(1 - sigma2 / evals) W^T B) / sigma2, over the whole
        array."""
        B = np.asarray(B, float)
        return self._back_substitute(B, self._inner(B), np.empty(B.shape))

    def _inner(self, B: np.ndarray) -> np.ndarray:
        """diag(1 - sigma2 / evals) W^T B, the k-row core of Sigma^{-1} B:
        one whole-array product over the N rows."""
        WtB = self.W.T @ B
        shrink = 1.0 - self.sigma2 / self.evals
        return shrink * WtB if B.ndim == 1 else shrink[:, None] * WtB

    def _back_substitute(self, B, inner, out, rows=slice(None)):
        """out = (B - W[rows] inner) / sigma2, returned, for the pixel rows
        ``rows``, of which B and ``out`` hold just those rows; ``out`` must
        not overlap B.  Rows do not depend on each other, and the columns of
        ``inner`` do not either, so a block of rows or of columns has the
        bits of the same block of the whole solve."""
        np.matmul(self.W[rows], inner, out=out)
        np.subtract(B, out, out=out)
        out /= self.sigma2
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
    do not allocate their N-sized intermediates afresh, and the row split of
    the evaluation's row-wise phases, worked out once per fit: the only
    place that splits rows.

    ``row_slices`` are the row blocks, each holding at most
    ``ROW_BLOCK_BYTES`` of an N x (L+D) row (see :func:`_split_rows`);
    small scenes, up to 789 rows at L = 160, D = 6, are one block.  The one
    N x (L+D) array is ``stacked``, the right-hand side [Ybar | C]: its
    projection W^T [Ybar | C] is one product over the pixels, and
    projecting Ybar and C apart would change its bits.  Sigma^-1 C is an
    N x D array (``SiC``); Sigma^-1 [Ybar | C] is never held whole.
    ``block_scratch[k]`` is worker k's block scratch, sized for the largest
    block: each task of a row-wise phase (see :func:`_run`) writes its
    block's Ybar, or its block of Sigma^-1 [Ybar | C], there and slices
    everything else it needs from the workspace's arrays.  Worker 0 is the
    calling thread; the helper's scratch (worker 1) is made the first time
    the helper runs, so a fit that never splits never holds it."""

    def __init__(self, Yc: np.ndarray, R: int):
        n_pixels, L = Yc.shape
        D = feature_dim(R)
        self.Yc = Yc
        self.X = np.empty((n_pixels, R))
        self.Psi = np.empty((n_pixels, D))
        self.C = np.empty((n_pixels, D))
        self.Gc = np.empty((n_pixels, D))
        self.scratch = np.empty((n_pixels, D))
        self.GX = np.empty((n_pixels, R))
        self.lle = np.empty((n_pixels, R))
        self.stacked = np.empty((n_pixels, L + D))
        self.Ybar = self.stacked[:, :L]
        # per row, Ybar . Sigma^-1 Ybar and |Sigma^-1 Ybar|^2
        self.Ybar_SiY, self.SiY_sq = np.empty((2, n_pixels))
        self.SiC = np.empty((n_pixels, D))
        self.row_slices = _split_rows(n_pixels, max(2, ROW_BLOCK_BYTES // (8 * (L + D))))
        self.block_scratch = [np.empty((max(rows.stop - rows.start for rows in self.row_slices), L + D))]


def _residual(ws: _Workspace, rows: slice, scratch: np.ndarray, basis_t) -> None:
    """Ybar = Yc - C P^T and the stacked right-hand side [Ybar | C] over the
    block ``rows``.  Ybar is subtracted in the worker's contiguous block
    scratch and then copied: numpy's subtraction into the strided column
    block of ``stacked`` measured 1.1-1.6x slower on 400- and 789-row
    blocks, which sit in cache."""
    C = ws.C[rows]
    size, L = rows.stop - rows.start, basis_t.shape[1]
    Ybar = scratch.reshape(-1)[: size * L].reshape(size, L)
    np.matmul(C, basis_t, out=Ybar)
    np.subtract(ws.Yc[rows], Ybar, out=Ybar)
    ws.stacked[rows, :L] = Ybar
    ws.stacked[rows, L:] = C


def _fused(ws: _Workspace, rows: slice, scratch: np.ndarray, wb, inner, want_value,
           through_ybar, s2L, Ut) -> None:
    """The block ``rows`` of Sigma^-1 [Ybar | C] = ([Ybar | C] - W inner) /
    sigma2, back-substituted into the worker's block scratch, and what the
    evaluation takes from it while it is in cache: the block's rows of
    Ybar . Sigma^-1 Ybar (with ``want_value``), of |Sigma^-1 Ybar|^2, of
    Gc = s2 L Sigma^-1 C - Sigma^-1 Ybar (s2 Q + P) and of the latents'
    gradient before its chain rule, GX = dE/dPsi dPsi/dX + gamma M^T M X
    with dE/dPsi = Gc U^T.  The block's C columns go unused, since
    Sigma^-1 C is formed whole before Q; yet back-substituting the Ybar
    columns alone, a strided view of ``stacked``, measured 8-23% slower on
    40- to 714-row blocks than the whole contiguous block, which numpy
    subtracts as one flat array."""
    L = through_ybar.shape[0]
    SiY = wb._back_substitute(ws.stacked[rows], inner, scratch[: rows.stop - rows.start], rows)[:, :L]
    if want_value:
        np.einsum("ij,ij->i", ws.Ybar[rows], SiY, out=ws.Ybar_SiY[rows])
    np.einsum("ij,ij->i", SiY, SiY, out=ws.SiY_sq[rows])
    Gc, Gpsi, X, GX = ws.Gc[rows], ws.scratch[rows], ws.X[rows], ws.GX[rows]
    np.multiply(s2L, ws.SiC[rows], out=Gc)
    Gc -= np.matmul(SiY, through_ybar, out=Gpsi)
    np.matmul(Gc, Ut, out=Gpsi)
    R = X.shape[1]
    GX[...] = Gpsi[:, :R]
    for k, (i, j) in enumerate(feature_pairs(R)):
        GX[:, i] += Gpsi[:, R + k] * X[:, j]
        GX[:, j] += Gpsi[:, R + k] * X[:, i]
    GX += ws.lle[rows]


def _lle_terms(ctx: ModelContext, X, want_value: bool, out) -> float:
    """The LLE prior's gradient term gamma M^T M X into ``out``, and its
    sum of squares |M X|^2 for the value (nan without ``want_value``); M
    is the LLE residual operator."""
    np.multiply(ctx.gamma, ctx._resid_gram @ X, out=out)
    if not want_value:
        return np.nan
    Mx = ctx._resid_op @ X
    return float((Mx * Mx).sum())


def _in_order(row_sums: np.ndarray) -> float:
    """The sum of ``row_sums`` added first to last, accumulated in place.
    It has the bits of numpy's einsum over the whole strided N x L view,
    which sums row by row; the pairwise order of ``np.sum`` would not
    (TestRowBlocks pins this)."""
    return float(np.add.accumulate(row_sums, out=row_sums)[-1])


def _evaluate(U, s2, sigma2, ctx: ModelContext, ws: _Workspace, want_value: bool,
              grad: np.ndarray):
    """Objective at the latents in ``ws.X`` and the raw U, s2 and sigma2, or
    ``None`` outside the prior bounds.

    ``grad``, a vector laid out like :func:`pack`, receives the gradient over
    (free latents, U, log s2, log sigma2).  Without ``want_value`` the terms
    only the value needs (the LLE residual, the log-determinant and the data
    fit) are skipped and nan is returned.  The N x D and N x (L+D)
    intermediates live in ``ws``.

    The evaluation runs in phases:

    1. Psi and C = Psi U, whole; then the residual phase, one task per row
       block, Ybar = Yc - C P^T and the stacked right-hand side
       B = [Ybar | C], with building the ``WoodburySolver`` (C^T C, its
       Cholesky factor, the thin SVD of C) as one more task.
    2. inner = diag(1 - sigma2 / evals) W^T B, one product over the
       pixels, and Sigma^-1 C = (C - W inner[:, L:]) / sigma2, whole.  Then
       two tasks: Q = Ybar^T Sigma^-1 C, and the LLE prior's terms.
    3. The fused phase, one task per row block: each block of Sigma^-1 B =
       (B - W inner) / sigma2 goes into a block scratch and, while it is in
       cache, yields the block's rows of the data sums, of Gc and of GX
       (see :func:`_fused`).
    4. Psi^T Gc, the sums and the chain rule, whole.

    Every reduction over the N pixels (W^T B, Q, Psi^T Gc, the sums) and
    the SVD are whole-array calls: splitting a reduction changes its
    rounding, while splitting rows does not.  The two data sums are row
    sums added in order, which equal the whole-array einsum (see
    :func:`_in_order`), and Sigma^-1 C has the bits of the C columns of the
    fused phase's blocks, since the columns of a product do not depend on
    each other.  So the result does not depend on ``ROW_BLOCK_BYTES``, and
    Sigma^-1 B is bit for bit ``WoodburySolver.solve(B)``.

    The tasks of phases 1-3 go through :func:`_run`: when
    :func:`_second_worker` allows one, the calling thread and the helper
    thread claim them from one counter.  Each task is the same call on the
    same operands whichever thread runs it: a BLAS or LAPACK call on the
    helper is the same one-BLAS-thread call as in this thread, since the
    helper runs only with one BLAS thread.  So the result does not depend
    on the helper either.
    """
    if not _within_bounds(U, s2, sigma2):
        return None
    X = ws.X
    L = ctx.Yc.shape[1]
    n, R = X.shape
    Psi = psi_batch(X, out=ws.Psi)
    C = np.matmul(Psi, U, out=ws.C)
    helper = _second_worker(len(ws.row_slices))
    basis_t = ctx.pbar.basis.T
    wb = _run(helper, ws, [lambda scratch: WoodburySolver(C, s2, sigma2)] + [
        lambda scratch, rows=rows: _residual(ws, rows, scratch, basis_t) for rows in ws.row_slices])[0]
    inner = wb._inner(ws.stacked)
    SiC = wb._back_substitute(C, inner[:, L:], ws.SiC)
    # Q = Ybar^T SiC (L x D), formed as the transpose of SiC^T Ybar: the
    # same single product over the pixels, which OpenBLAS runs 2-2.5x
    # faster with the small dimension first.  The fit's bits rest on the two
    # orders summing alike; TestRowBlocks pins that on the shipped shapes,
    # so a BLAS that rounds them differently fails there.  The copy keeps Q
    # C-ordered
    Q, lle_sum = _run(helper, ws, [lambda scratch: (SiC.T @ ws.Ybar).T.copy(),
                                   lambda scratch: _lle_terms(ctx, X, want_value, ws.lle)])
    # dE/dC through Sigma and through Ybar, fused into one N x L product
    through_ybar, s2L, Ut = s2 * Q + ctx.pbar.basis, s2 * L, U.T
    _run(helper, ws, [
        lambda scratch, rows=rows: _fused(ws, rows, scratch, wb, inner, want_value, through_ybar, s2L, Ut)
        for rows in ws.row_slices])
    g_xfree, g_u, g_logs = _blocks(grad, n, R)
    np.matmul(Psi.T, ws.Gc, out=g_u)
    # chain rule through x_R = 1 - sum of the free coordinates
    np.subtract(ws.GX[:, : R - 1], ws.GX[:, R - 1 :], out=g_xfree)
    CSiC = np.multiply(C, SiC, out=ws.scratch)
    g_s2 = 0.5 * L * float(CSiC.sum()) - 0.5 * float((Q * Q).sum())
    g_sigma2 = 0.5 * L * wb.trace_inv() - 0.5 * _in_order(ws.SiY_sq)
    g_logs[0] = s2 * g_s2
    g_logs[1] = sigma2 * g_sigma2
    if not want_value:
        return np.nan
    return 0.5 * L * wb.logdet() + 0.5 * _in_order(ws.Ybar_SiY) + 0.5 * ctx.gamma * lle_sum


def _state_evaluate(state: LatentState, ctx: ModelContext, want_value: bool):
    """``_evaluate`` at ``state`` in a workspace of its own: the value (or
    None outside the prior bounds) and the packed gradient."""
    n, R = state.X.shape
    ws = _Workspace(ctx.Yc, R)
    ws.X[...] = state.X
    grad = np.empty(n * (R - 1) + feature_dim(R) ** 2 + 2)
    return _evaluate(state.U, state.s2, state.sigma2, ctx, ws, want_value, grad), grad


def neg_log_posterior(state: LatentState, ctx: ModelContext) -> float:
    """Negative log posterior up to an additive constant."""
    value, _ = _state_evaluate(state, ctx, True)
    return np.inf if value is None else value


def grad_neg_log_posterior(state: LatentState, ctx: ModelContext) -> dict:
    """Analytic gradient blocks over (free latents, U, log s2, log sigma2)."""
    value, grad = _state_evaluate(state, ctx, False)
    if value is None:
        raise ValueError("state outside the prior bounds")
    X_free, U, logs = _blocks(grad, *state.X.shape)
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
    evaluation of one callable reuses one set of buffers and one split into
    row blocks of ``ROW_BLOCK_BYTES``, worked out by ``_Workspace`` when the
    callable is made, so the constant is read then; ``_evaluate`` makes one
    task per row block for each row-wise phase, and back-substitutes
    Sigma^-1 [Ybar | C] one block at a time into a block-sized scratch, so
    no N x (L+D) solve is held.  Each returned gradient is a fresh array.
    Each evaluation asks once whether the helper thread may claim tasks
    beside the calling thread (see :func:`_second_worker`; it needs four or
    more blocks); the callable has no setting for it, and :func:`_run` makes
    the helper's block scratch the first time the helper runs.  Values and
    gradients depend neither on the block size nor on which worker takes
    which task.  One callable is not for concurrent use: its evaluations
    share the buffers.
    """
    ws = _Workspace(ctx.Yc, R)

    def evaluate(w: np.ndarray, want_value: bool) -> tuple[float, np.ndarray]:
        _, U, s2, sigma2 = unpack(w, n_pixels, R, out=ws.X)
        grad = np.empty(w.shape)
        try:
            value = _evaluate(U, s2, sigma2, ctx, ws, want_value, grad)
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

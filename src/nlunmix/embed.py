"""PCA subspace basis, locally-linear-embedding weights, and latent init.

These three pieces prepare the inputs of the latent-variable fit: the fixed
spectral basis that anchors the prior on the mixing subspace, the sparse
neighborhood-reconstruction weights behind the locality-preserving prior,
and a deterministic starting point for the latent matrix.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

GRAM_REG = 1e-9
# Most float64 entries (8 MB) one block holds: the neighbor search takes rows
# in blocks of KNN_BLOCK_ENTRIES // N distances, the weight solves in blocks
# of KNN_BLOCK_ENTRIES // (K * L) gathered neighbor entries.
KNN_BLOCK_ENTRIES = 2**20


@dataclass(frozen=True)
class PcaBasis:
    """Top-D eigenvectors of the sample covariance, with eigenvalues.

    ``residual_variance`` is the mean of the discarded eigenvalues (0 when
    nothing is discarded); it seeds the noise-variance initialization of the
    latent fit.
    """

    basis: np.ndarray  # L x D, orthonormal columns
    eigenvalues: np.ndarray  # length D, nonincreasing
    residual_variance: float

    def __post_init__(self):
        # Fortran order, as eigh returns it: the fit's rounding depends on the
        # basis layout, and a basis read back from a stage file is C-ordered
        b = np.array(self.basis, float, order="F")
        ev = np.array(self.eigenvalues, float)
        if b.ndim != 2 or ev.shape != (b.shape[1],):
            raise ValueError("basis must be L x D with one eigenvalue per column")
        if np.max(np.abs(b.T @ b - np.eye(b.shape[1]))) > 1e-10:
            raise ValueError("basis columns must be orthonormal")
        if np.any(np.diff(ev) > 0) or np.any(ev < 0):
            raise ValueError("eigenvalues must be nonincreasing and >= 0")
        b.flags.writeable = False
        ev.flags.writeable = False
        object.__setattr__(self, "basis", b)
        object.__setattr__(self, "eigenvalues", ev)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


@dataclass(frozen=True)
class LleWeights:
    """K-nearest-neighbor reconstruction weights, one row per pixel.

    ``neighbors[i]`` holds the K neighbor indices of pixel i and
    ``weights[i]`` the matching reconstruction coefficients, so exactly N*K
    entries are stored.  The weights solve the local least-squares
    reconstruction of each pixel from its neighbors; no sum constraint is
    imposed.
    """

    neighbors: np.ndarray  # N x K int
    weights: np.ndarray  # N x K float

    def __post_init__(self):
        nb = np.array(self.neighbors, np.int64)
        w = np.array(self.weights, float)
        if nb.shape != w.shape or nb.ndim != 2:
            raise ValueError("neighbors and weights must both be N x K")
        if np.any(nb == np.arange(nb.shape[0])[:, None]):
            raise ValueError("self-neighbors are not allowed")
        nb.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "neighbors", nb)
        object.__setattr__(self, "weights", w)

    @property
    def n_pixels(self) -> int:
        return self.neighbors.shape[0]

    @property
    def k(self) -> int:
        return self.neighbors.shape[1]

    def matrix(self) -> scipy.sparse.csr_matrix:
        """The sparse N x N weight matrix (support on (i, neighbors of i))."""
        n, k = self.neighbors.shape
        rows = np.repeat(np.arange(n), k)
        return scipy.sparse.csr_matrix(
            (self.weights.ravel(), (rows, self.neighbors.ravel())), shape=(n, n)
        )

    def residual_operator(self) -> scipy.sparse.csr_matrix:
        """I - Lambda, mapping X to its neighborhood reconstruction residual."""
        return scipy.sparse.identity(self.n_pixels, format="csr") - self.matrix()

    def objective(self, Y: np.ndarray) -> float:
        """Total squared reconstruction error of Y under these weights."""
        return float(np.sum(np.asarray(self.residual_operator() @ Y) ** 2))


def pca_basis(Yc: np.ndarray, D: int) -> PcaBasis:
    """Top-D principal directions of centered pixels Yc (N x L).

    Sign convention: the largest-magnitude entry of every column is made
    positive, so the decomposition is reproducible.
    """
    Yc = np.asarray(Yc, float)
    n, l = Yc.shape
    if D > min(n - 1, l) or D < 1:
        raise ValueError(f"D must be in [1, min(N-1, L)] = [1, {min(n - 1, l)}]")
    cov = Yc.T @ Yc / n
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    evals = np.clip(evals[order], 0.0, None)
    evecs = evecs[:, order]
    for d in range(l):
        lead = np.argmax(np.abs(evecs[:, d]))
        if evecs[lead, d] < 0:
            evecs[:, d] = -evecs[:, d]
    residual = float(evals[D:].mean()) if D < l else 0.0
    return PcaBasis(basis=evecs[:, :D], eigenvalues=evals[:D], residual_variance=residual)


def _nearest_neighbors(Y: np.ndarray, K: int) -> np.ndarray:
    """Exact K nearest neighbors of every row of Y, searched in row blocks.

    Each block's squared distances are ||y_i||^2 + ||y_j||^2 - 2 y_i.y_j
    against all N rows; ``argpartition`` keeps K candidates, ordered by
    (distance, index).  A row where more or fewer than K entries lie at or
    below its K-th distance (a tie at the boundary, or a NaN) is instead
    stable-sorted in full, so ties always go to the lower index.
    """
    n = Y.shape[0]
    sq = np.sum(Y**2, axis=1)
    step = max(1, KNN_BLOCK_ENTRIES // n)
    neighbors = np.empty((n, K), np.int64)
    for start in range(0, n, step):
        stop = min(start + step, n)
        # (sq_i + sq_j) + (-2 y_i.y_j) rounds exactly as the dense matrix's
        # sq_i + sq_j - 2 y_i.y_j did, so every near-tie comes out as there;
        # doubling the product in place keeps one block-sized temporary
        d2 = Y[start:stop] @ Y.T
        d2 *= -2.0
        d2 += sq[start:stop, None] + sq[None, :]
        local = np.arange(stop - start)
        d2[local, start + local] = np.inf
        kept = np.argpartition(d2, K - 1, axis=1)[:, :K]
        dist = np.take_along_axis(d2, kept, axis=1)  # K-th distance last
        kth = dist[:, -1:]
        kept = np.take_along_axis(kept, np.lexsort((kept, dist)), axis=1)
        for r in np.flatnonzero(np.count_nonzero(d2 <= kth, axis=1) != K):
            kept[r] = np.argsort(d2[r], kind="stable")[:K]
        neighbors[start:stop] = kept
    return neighbors


_SOLVE_ERRORS = (np.linalg.LinAlgError, scipy.linalg.LinAlgError, ValueError)


def _ridged_weights(G: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Weights of one pixel whose plain solve failed: the Gram matrix ridged
    by 1e-9 * trace, or the minimum-norm least-squares solution."""
    try:
        Greg = G + GRAM_REG * np.trace(G) * np.eye(G.shape[0])
        return scipy.linalg.solve(Greg, b, assume_a="pos")
    except _SOLVE_ERRORS:
        # zero-trace Gram (all neighbors at the origin): minimum norm
        return np.linalg.lstsq(G, b, rcond=None)[0]


def _pos_solve(G: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a stack of Gram systems (m x K x K, right-hand sides m x K x 1)
    the way ``scipy.linalg.solve`` solves a single one, so a row's weights do
    not depend on the rows stacked with it: Cholesky per slice, or, for
    K = 1, the plain division scipy uses for a lone 1 x 1 system."""
    if G.shape[-1] == 1:
        if np.any(G == 0.0):
            raise np.linalg.LinAlgError("singular 1 x 1 Gram matrix")
        return b / G
    with warnings.catch_warnings():
        # near-singular neighborhoods are expected on structured data; the
        # callers' finiteness checks arbitrate
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        return scipy.linalg.solve(G, b, assume_a="pos")


def _row_weights(G: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Weights of one pixel: solve, then the ridge, then least squares."""
    try:
        w = _pos_solve(G[None], b[None, :, None])[0, :, 0]
        if not np.all(np.isfinite(w)):
            raise np.linalg.LinAlgError
    except _SOLVE_ERRORS:
        w = _ridged_weights(G, b)
    return w


def lle_weights(Y: np.ndarray, K: int) -> LleWeights:
    """Neighbor sets and local reconstruction weights for every pixel.

    Neighbors are the exact K nearest points in Euclidean distance (self
    excluded, ties broken toward the lower index).  They are searched in
    blocks of rows against all N pixels, so memory is O(block * N), with
    max(N, ``KNN_BLOCK_ENTRIES``) distances per block, never O(N^2); the
    neighbors are those of a full stable sort of the dense distance matrix.
    Per row the weights solve the K x K normal equations of
    min ||y_i - sum_j w_j y_j||^2.  The Gram systems of a block of rows
    (at most ``KNN_BLOCK_ENTRIES`` gathered neighbor entries) go to one
    stacked Cholesky solve, which runs the same LAPACK routine per row as a
    row-by-row solve, so the weights do not depend on the blocking.  If the
    stacked solve raises, each row of the block goes through the per-row
    chain: solve, ridge, least squares.  A row whose stacked solve comes
    back non-finite goes through the last two.  The ridge adds
    1e-9 * trace to a singular local Gram matrix; one that stays singular
    (all neighbors at the origin) gets the minimum-norm solution.
    """
    Y = np.asarray(Y, float)
    n = Y.shape[0]
    if K < 1 or K >= n:
        raise ValueError("need 1 <= K < N")
    neighbors = _nearest_neighbors(Y, K)
    weights = np.empty((n, K))
    step = max(1, KNN_BLOCK_ENTRIES // (K * max(Y.shape[1], 1)))
    for start in range(0, n, step):
        stop = min(start + step, n)
        Z = Y[neighbors[start:stop]]  # m x K x L
        G = Z @ np.swapaxes(Z, 1, 2)
        b = Z @ Y[start:stop, :, None]  # m x K x 1
        try:
            w = _pos_solve(G, b)[..., 0]
        except _SOLVE_ERRORS:
            w = np.array([_row_weights(G[r], b[r, :, 0]) for r in range(stop - start)])
        else:
            for r in np.flatnonzero(~np.all(np.isfinite(w), axis=1)):
                w[r] = _ridged_weights(G[r], b[r, :, 0])
        weights[start:stop] = w
    return LleWeights(neighbors=neighbors, weights=weights)


def init_latents(Yc: np.ndarray, basis_top: np.ndarray) -> np.ndarray:
    """Deterministic latent starting point from the top R-1 principal axes.

    Scores are standardized to zero mean and per-axis standard deviation
    1/(2R); the last latent coordinate completes each row to sum 1.  The
    1/(2R) spread keeps the starting cloud small enough that the simplex
    geometry stays recoverable; it is a tunable convention, not a fitted
    quantity.
    """
    Yc = np.asarray(Yc, float)
    basis_top = np.asarray(basis_top, float)
    r_minus_1 = basis_top.shape[1]
    R = r_minus_1 + 1
    scores = Yc @ basis_top
    scores = scores - scores.mean(axis=0)
    std = scores.std(axis=0)
    scale = np.where(std > 0, std, 1.0)
    scores = scores / scale / (2.0 * R)
    return np.hstack([scores, 1.0 - scores.sum(axis=1, keepdims=True)])

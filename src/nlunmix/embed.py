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
import scipy.spatial

GRAM_REG = 1e-9
# Most float64 entries (8 MB) one block holds.  The neighbor search scores a
# tree leaf's rows against its candidate columns at most this many distances
# at a time (or one row against all N), gathers at most this many candidate
# pixel entries, and its all-pairs scan takes rows in blocks of
# KNN_BLOCK_ENTRIES // N; the weight solves take blocks of
# KNN_BLOCK_ENTRIES // (K * L) gathered neighbor entries.
KNN_BLOCK_ENTRIES = 2**20
# Rows per k-d tree leaf, the neighbor search's unit of candidate sharing:
# smaller leaves give each row fewer candidates but more blocks, each with a
# fixed Python cost.  On a low-rank scene at N = 10,000 and 40,000, 128
# searched faster than 32, 64 or 256.
_LEAF_ROWS = 128


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


def _scan_distances(Y: np.ndarray, sq: np.ndarray, rows, cols=None) -> np.ndarray:
    """Squared distances from the pixels ``rows`` to the sorted pixels
    ``cols`` (all N when None), with each pixel's distance to itself set to
    infinity.  ``rows`` is an index array, or a slice: the all-pairs scan
    passes one so that it multiplies the same views of Y as the dense
    blocks, since a gathered copy can go to another BLAS kernel (one that
    rounds differently).

    (sq_i + sq_j) + (-2 y_i.y_j) rounds exactly as the dense matrix's
    sq_i + sq_j - 2 y_i.y_j did, so every near-tie comes out as there;
    doubling the product in place keeps one block-sized temporary.
    """
    d2 = Y[rows] @ (Y if cols is None else Y[cols]).T
    d2 *= -2.0
    d2 += sq[rows, None] + (sq[None, :] if cols is None else sq[None, cols])
    own = np.arange(rows.start, rows.stop) if isinstance(rows, slice) else rows
    d2[np.arange(len(d2)), own if cols is None else np.searchsorted(cols, own)] = np.inf
    return d2


def _rank_rows(d2: np.ndarray, K: int) -> np.ndarray:
    """Column positions of each row's K smallest entries, ordered by
    (distance, column).  ``argpartition`` keeps K candidates; a row where
    more than K entries lie at or below its K-th distance (a tie at the
    boundary) is instead stable-sorted in full, so ties go to the lower
    column."""
    kept = np.argpartition(d2, K - 1, axis=1)[:, :K]
    dist = np.take_along_axis(d2, kept, axis=1)  # K-th distance last
    kth = dist[:, -1:]
    kept = np.take_along_axis(kept, np.lexsort((kept, dist)), axis=1)
    for r in np.flatnonzero(np.count_nonzero(d2 <= kth, axis=1) != K):
        kept[r] = np.argsort(d2[r], kind="stable")[:K]
    return kept


def _bound_points(Y: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Squared norms of the rows of Y, their 3-D lower-bound points and the
    skew of the basis behind those.

    A pixel's point holds its scores on the top two principal directions V
    of Y and the norm of its residual outside them, both about the mean.
    For orthonormal V, ||a_i - a_j|| <= ||y_i - y_j||; the skew is
    ||V^T V - I||_2 plus the rounding of that product.
    """
    n, l = Y.shape
    d = min(2, l)
    mean = Y.mean(axis=0)
    cov = Y.T @ Y / n - np.outer(mean, mean)
    V = np.linalg.eigh(cov)[1][:, l - d:]
    sq = np.empty(n)
    points = np.empty((n, d + 1))
    step = max(1, KNN_BLOCK_ENTRIES // max(l, 1))
    for start in range(0, n, step):
        block = Y[start:start + step]
        # row for row the same pairwise sums as np.sum(Y**2, axis=1)
        sq[start:start + step] = np.sum(block**2, axis=1)
        Z = block - mean
        scores = Z @ V
        Z -= scores @ V.T
        points[start:start + step, :d] = scores
        points[start:start + step, d] = np.sqrt(np.einsum("ij,ij->i", Z, Z))
    skew = np.linalg.norm(V.T @ V - np.eye(d), 2) + l * np.finfo(float).eps
    return sq, points, float(skew)


def _leaves(node) -> list[tuple[int, int]]:
    """(start, stop) of every leaf of a k-d tree, in the order of its
    ``indices``."""
    if node.split_dim == -1:
        return [(node.start_idx, node.end_idx)]
    return _leaves(node.lesser) + _leaves(node.greater)


def _nearest_neighbors(Y: np.ndarray, K: int) -> np.ndarray:
    """Exact K nearest neighbors of every row of Y, self excluded, ordered
    by (distance, index): the neighbors a stable sort of each row of the
    dense distance matrix gives, found without computing most of it.

    Pruned pass.  A k-d tree (Friedman, Bentley & Finkel 1977) holds the
    pixels' 3-D lower-bound points (``_bound_points``).  Each row's K+1
    nearest points are scored exactly; the K-th smallest of those scores,
    ``ub``, bounds the row's K-th distance from above.  The rows of one
    tree leaf (at most ``_LEAF_ROWS``) share one set of candidate columns:
    the points in a ball around the leaf that holds each row's ball of
    squared radius ub + margin.  The leaf's distances to them come from
    one GEMM.  A leaf whose candidates are more than half of N, or whose
    gathered pixels would exceed ``KNN_BLOCK_ENTRIES`` entries, uses all
    N columns instead, as on isotropic data.  A row is certified when the
    gaps between its K+1 smallest distances all exceed twice the rounding
    gap between two computations of a distance: the dense matrix then
    ranks the same K neighbors in the same order, whatever kernel computed
    it.

    Full scan.  The rows left uncertified (near-ties: duplicated pixels,
    lattices) are ranked from the dense matrix's own blocks: blocks of
    ``KNN_BLOCK_ENTRIES // N`` consecutive rows against all N pixels, on
    which ``_rank_rows`` breaks ties toward the lower index.

    Memory: every temporary holds at most max(N, ``KNN_BLOCK_ENTRIES``)
    entries, besides arrays of N x 3 points and N flags.  Time: O(N K L)
    for the bound, plus the candidates' distances, which on low-rank data
    like hyperspectral scenes are a few hundred per row; the worst case,
    where the bound prunes nothing or every row is tied, is the full scan
    plus that overhead.

    Rounding margins, with eps = 2^-52 and S = max ||y_i||^2.  A computed
    distance (sq_i + sq_j) - 2 y_i.y_j, in any summation order, is within
    e1 = (2L + 4) eps S of the exact one: two length-L sums of squares and a
    dot product, gamma_L each, then two additions.  So the dense K-th
    distance is at most ub + 2 e1, and a pixel whose exact distance exceeds
    ub + 3 e1 is not among the K nearest: the balls' squared radius is
    ub + 3 e1, and certified gaps exceed 4 e1.  The radii, in distance
    units, also add tau = 8 ((L + 16) eps + skew) sqrt(S) twice.  Once for
    the points, each within 4 (L + 4) eps sqrt(S) of its exact value, and
    the basis' skew, which stretches the bound by at most a factor
    1 + 2 skew on distances of at most 2 sqrt(S).  Once for the leaf's ball
    and the tree's own arithmetic on coordinates below 8 sqrt(S).  On a
    linear 160-band scene of 10,000 pixels e1 is 1.6e-12 and tau 2.8e-12,
    against K-th distances near 0.035 and search radii near 0.19.
    """
    n, l = Y.shape
    eps = np.finfo(float).eps
    sq, points, skew = _bound_points(Y)
    S = float(sq.max())
    e1 = (2 * l + 4) * eps * S
    tau = 8.0 * ((l + 16) * eps + skew) * np.sqrt(S)
    tree = scipy.spatial.cKDTree(points, leafsize=_LEAF_ROWS)
    ub = np.empty(n)
    step = max(1, KNN_BLOCK_ENTRIES // ((K + 1) * max(l, 1)))
    for start in range(0, n, step):
        own = np.arange(start, min(start + step, n))
        probes = tree.query(points[own], k=K + 1)[1]
        d2 = sq[own, None] + sq[probes] - 2.0 * np.einsum("mkl,ml->mk", Y[probes], Y[own])
        d2[probes == own[:, None]] = np.inf
        ub[own] = np.partition(d2, K - 1, axis=1)[:, K - 1]
    neighbors = np.empty((n, K), np.int64)
    unsure = np.zeros(n, bool)
    for start, stop in _leaves(tree.tree):
        rows = tree.indices[start:stop]
        centre = points[rows].mean(axis=0)
        radius = np.sqrt(ub[rows] + 3.0 * e1) + tau
        reach = np.max(np.linalg.norm(points[rows] - centre, axis=1) + radius) + tau
        # count first: on isotropic data the ball holds most of the image,
        # and listing it for every leaf would cost more than the scan saves
        count = tree.query_ball_point(centre, reach, return_length=True)
        cols = None
        if 2 * count <= n and count * l <= KNN_BLOCK_ENTRIES:
            cols = np.union1d(tree.query_ball_point(centre, reach), rows)
        width = n if cols is None else len(cols)
        for part in np.array_split(rows, -(-len(rows) // max(1, KNN_BLOCK_ENTRIES // width))):
            d2 = _scan_distances(Y, sq, part, cols)
            kept = np.argpartition(d2, K, axis=1)[:, : K + 1]
            dist = np.take_along_axis(d2, kept, axis=1)
            order = np.argsort(dist, axis=1)
            gaps = np.diff(np.take_along_axis(dist, order, axis=1), axis=1)
            sure = np.all(gaps > 4.0 * e1, axis=1)
            kept = np.take_along_axis(kept, order[:, :K], axis=1)[sure]
            neighbors[part[sure]] = kept if cols is None else cols[kept]
            unsure[part[~sure]] = True
    step = max(1, KNN_BLOCK_ENTRIES // n)
    for start in np.unique(np.flatnonzero(unsure) // step) * step:
        redo = np.flatnonzero(unsure[start:start + step])
        d2 = _scan_distances(Y, sq, slice(start, min(start + step, n)))
        neighbors[start + redo] = _rank_rows(d2[redo], K)
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
    excluded, ties broken toward the lower index): those of a full stable
    sort of each row of the dense distance matrix.  ``_nearest_neighbors``
    finds them without forming that matrix.  A k-d tree over a 3-D lower
    bound of the distances leaves each row a few hundred candidate columns
    on low-rank data like hyperspectral scenes, and rows it cannot certify
    are ranked by the blocked all-pairs scan.  Memory is O(N) plus
    temporaries of at most max(N, ``KNN_BLOCK_ENTRIES``) entries, never
    O(N^2); the worst case (isotropic data, or every row tied) costs the
    all-pairs scan's O(N^2 L) time.
    Per row the weights solve the K x K normal equations of
    min ||y_i - sum_j w_j y_j||^2.  The Gram systems of a block of rows
    (at most ``KNN_BLOCK_ENTRIES`` gathered neighbor entries) go to one
    stacked Cholesky solve, which runs the same LAPACK routine per row as a
    row-by-row solve, so the weights do not depend on the blocking.  A row
    whose stacked solve comes back non-finite, or every row of a block
    whose stacked solve raises, goes through the per-row chain: solve,
    ridge, least squares.  The ridge adds
    1e-9 * trace to a singular local Gram matrix; one that stays singular
    (all neighbors at the origin) gets the minimum-norm solution.

    Raises ``ValueError`` naming the first pixel with a non-finite value:
    distances to it cannot be ranked.
    """
    Y = np.asarray(Y, float)
    n = Y.shape[0]
    if K < 1 or K >= n:
        raise ValueError("need 1 <= K < N")
    bad = np.flatnonzero(~np.isfinite(Y).all(axis=1))
    if bad.size:
        raise ValueError(f"pixel {bad[0]} has a non-finite value")
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
            w = np.full((stop - start, K), np.nan)
        for r in np.flatnonzero(~np.all(np.isfinite(w), axis=1)):
            w[r] = _row_weights(G[r], b[r, :, 0])
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

"""Linear unmixing baselines: VCA endmember extraction and fully
constrained least-squares (FCLS) abundance estimation.

VCA follows the published algorithm of Nascimento & Bioucas-Dias: an
SNR-dependent subspace projection followed by iterative orthogonal-direction
vertex hunting.  FCLS is solved exactly by an active-set method that
iterates all pixels together (each pixel keeps its own active set), so the
KKT conditions hold to solver precision rather than to an iteration
budget.
"""
from __future__ import annotations

import numpy as np

from .core import AbundanceMatrix, EndmemberSet, HyperImage

KKT_TOL = 1e-9


def _kkt_solve(G, Q, passive):
    """Solve the sum-to-one equality subproblem on the passive columns.

    Rows sharing a passive set share one (k+1) x (k+1) KKT matrix, solved
    with all of their right-hand sides at once.  Returns the trial points
    (zero off the passive set), the multipliers, and the mask of rows whose
    KKT matrix is singular to working precision, which happens when the
    passive columns of M are affinely dependent (their trial rows are left
    at zero).
    """
    m, R = passive.shape
    trial = np.zeros((m, R))
    nu = np.zeros(m)
    singular = np.zeros(m, dtype=bool)
    masks, group = np.unique(passive, axis=0, return_inverse=True)
    for g, mask in enumerate(masks):
        rows = np.flatnonzero(group.reshape(-1) == g)
        idx = np.flatnonzero(mask)
        k = idx.size
        kkt = np.zeros((k + 1, k + 1))
        kkt[:k, :k] = G[np.ix_(idx, idx)]
        kkt[:k, k] = 1.0
        kkt[k, :k] = 1.0
        rhs = np.ones((k + 1, rows.size))
        rhs[:k] = Q[np.ix_(rows, idx)].T
        # singularity is judged with G scaled to unit diagonal, which leaves
        # the KKT solution unchanged, so the test does not depend on M's scale
        probe = kkt.copy()
        probe[:k, :k] /= np.abs(np.diag(probe)[:k]).max(initial=0.0) or 1.0
        try:
            sv = np.linalg.svd(probe, compute_uv=False)
            if not sv[-1] > (k + 1) * np.finfo(float).eps * sv[0]:
                raise np.linalg.LinAlgError
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            singular[rows] = True
            continue
        trial[np.ix_(rows, idx)] = sol[:k].T
        nu[rows] = sol[k]
    return trial, nu, singular


def simplex_lstsq(M: np.ndarray, y: np.ndarray, max_iter: int | None = None) -> np.ndarray:
    """Minimize ||y - M a||^2 subject to a >= 0 and sum(a) = 1, exactly.

    Active-set iteration in the style of Lawson-Hanson, with the sum-to-one
    constraint carried inside the equality-constrained subproblem.  ``M``
    may be any L x R matrix whose passive-column subsets stay affinely
    independent (endmember spectra, or simplex vertices in latent space).

    ``y`` is one L-vector (the result is one R-vector) or an N x L matrix
    of rows (the result is N x R).  All rows iterate together: M^T M and
    the projections Y M are formed once, and rows that share a passive set
    share one KKT solve per iteration.  Each row still takes exactly the
    steps it would take alone.  A row whose KKT matrix is singular, whose
    step makes no progress, or that does not converge in ``max_iter``
    iterations raises an error naming the first such row.
    """
    M = np.asarray(M, float)
    Y = np.asarray(y, float)
    single = Y.ndim == 1
    Y = Y.reshape(1, -1) if single else Y
    L, R = M.shape
    if Y.ndim != 2 or Y.shape[1] != L:
        raise ValueError(f"expected rows of length {L}, got shape {np.shape(y)}")
    if max_iter is None:
        max_iter = 6 * R * R + 30
    G = M.T @ M
    Q = Y @ M
    n = Y.shape[0]

    A = np.full((n, R), 1.0 / R)
    passive = np.ones((n, R), dtype=bool)
    todo = np.arange(n)  # rows still iterating, ascending
    failed: dict[int, BaseException] = {}
    for _ in range(max_iter):
        if todo.size == 0:
            break
        P = passive[todo]
        trial, nu, singular = _kkt_solve(G, Q[todo], P)
        for i in todo[singular]:
            failed[int(i)] = np.linalg.LinAlgError(
                "singular KKT system: the passive columns of M are affinely dependent"
            )
        feasible = ~singular & (np.where(P, trial, np.inf).min(axis=1) > -1e-13)
        keep = ~singular

        # feasible subproblem solution: accept it, then check the dual
        # feasibility of the pinned coordinates
        f = todo[feasible]
        a = np.where(P[feasible], trial[feasible], 0.0)
        A[f] = a
        lam = a @ G - Q[f] + nu[feasible, None]
        lam = np.where(P[feasible], np.inf, lam)
        optimal = lam.min(axis=1) >= -KKT_TOL
        release = ~optimal
        passive[f[release], np.argmin(lam[release], axis=1)] = True
        keep[np.flatnonzero(feasible)[optimal]] = False

        # infeasible: step from the feasible point toward the subproblem
        # solution until the first coordinate hits zero, then pin it
        step = ~singular & ~feasible
        s = todo[step]
        Ps, Ts, As = P[step], trial[step], A[s]
        drops = Ps & (Ts <= 0.0)
        denom = As - Ts
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(drops & (denom > 0), As / denom, np.inf)
        ratios = np.where(drops & (denom <= 0), 0.0, ratios)
        t = np.minimum(1.0, ratios.min(axis=1))
        As = As + t[:, None] * (Ts - As)
        As[~Ps] = 0.0
        newly = Ps & drops & (As <= 1e-13)
        stuck = ~newly.any(axis=1)
        for i in s[stuck]:
            failed[int(i)] = RuntimeError("active-set step made no progress")
        keep[np.flatnonzero(step)[stuck]] = False
        As[newly] = 0.0
        A[s] = As
        passive[s] &= ~newly
        todo = todo[keep]
    for i in todo:
        failed[int(i)] = RuntimeError(f"active-set iteration failed to converge in {max_iter} steps")
    if failed:
        first = min(failed)
        err = failed[first]
        raise type(err)(f"simplex_lstsq row {first} ({len(failed)} of {n} rows failed): {err}")
    out = np.maximum(A, 0.0)
    return out[0] if single else out


def kkt_residual(M: np.ndarray, y: np.ndarray, a: np.ndarray) -> float:
    """Worst violation of the FCLS optimality system at ``a``."""
    M = np.asarray(M, float)
    y = np.asarray(y, float).reshape(-1)
    a = np.asarray(a, float).reshape(-1)
    g = M.T @ (M @ a - y)
    passive = a > 0
    if passive.any():
        nu = -g[passive].mean()
    else:
        nu = 0.0
    stationarity = np.abs(g[passive] + nu).max() if passive.any() else 0.0
    dual = max(0.0, -(g[~passive] + nu).min()) if (~passive).any() else 0.0
    primal = abs(a.sum() - 1.0)
    neg = max(0.0, -a.min())
    return float(max(stationarity, dual, primal, neg))


def fcls(Y: HyperImage | np.ndarray, M: EndmemberSet) -> AbundanceMatrix:
    """Fully constrained least squares of every pixel against the
    endmembers: one :func:`simplex_lstsq` call over all pixels."""
    pixels = Y.pixels if isinstance(Y, HyperImage) else np.asarray(Y, float)
    S = M.spectra
    if pixels.shape[1] != S.shape[0]:
        raise ValueError("pixel band count must match endmember band count")
    if np.linalg.matrix_rank(S) < S.shape[1]:
        raise ValueError("endmember matrix is rank deficient")
    return AbundanceMatrix(simplex_lstsq(S, pixels))


def _estimate_snr(p_y: float, p_x: float, R: int, L: int) -> float:
    """SNR in dB from the mean pixel power ``p_y`` and the mean power
    ``p_x`` of the pixels' projection on the top-R centered subspace plus
    the mean spectrum's."""
    denom = p_y - p_x
    if denom <= 0:
        return np.inf
    return float(10.0 * np.log10((p_x - R / L * p_y) / denom))


def _rank_certified(Ym: np.ndarray, R: int) -> bool:
    """Whether a strided column subsample already proves the rank test.

    The full test asks sigma_R(Y) > 1e-10 sigma_1(Y).  Deleting columns can
    only lower singular values and sigma_1(Y) <= ||Y||_F, so
    sigma_R(Y[:, ::step]) > 1e-10 ||Y||_F implies it; the factor 2 keeps the
    shortcut clear of rounding in either SVD.  A False answer proves nothing:
    the caller then runs the full test.
    """
    L, N = Ym.shape
    step = max(1, N // (4 * L))
    if step == 1:
        return False
    sv = np.linalg.svd(Ym[:, ::step], compute_uv=False)
    return bool(sv[R - 1] > 2e-10 * np.linalg.norm(Ym))


def vca(Y: HyperImage | np.ndarray, R: int, seed: int) -> EndmemberSet:
    """Vertex component analysis on uncentered pixels.

    The random direction vectors come from the given seed, so repeated runs
    are identical.  Both second moments come from one L x L product and
    only the R chosen pixels are projected back to spectra, so no N x L
    temporary is formed unless a strided subsample of the pixels cannot
    certify the rank check and the full SVD has to decide it.
    """
    pixels = Y.pixels if isinstance(Y, HyperImage) else np.asarray(Y, float)
    if isinstance(Y, HyperImage) and Y.centered:
        raise ValueError("VCA expects uncentered reflectance data")
    Ym = pixels.T  # L x N, pixels as columns
    L, N = Ym.shape
    if R > L:
        raise ValueError("need R <= L")
    if not _rank_certified(Ym, R):
        sv = np.linalg.svd(Ym, compute_uv=False)
        if (sv > 1e-10 * sv[0]).sum() < R:
            raise ValueError("data rank is below the requested endmember count")
    rng = np.random.default_rng(seed)

    y_mean = Ym.mean(axis=1)
    second = Ym @ Ym.T  # N times the raw second moment
    # centered second moment; the projection power of the SNR estimate is
    # the sum of its top R eigenvalues
    U_cent, ev_cent, _ = np.linalg.svd(second / N - np.outer(y_mean, y_mean))
    snr = _estimate_snr(
        float(np.trace(second)) / N, float(ev_cent[:R].sum() + y_mean @ y_mean), R, L
    )
    snr_threshold = 15.0 + 10.0 * np.log10(R)

    if snr > snr_threshold:
        # projective projection on the raw second-moment subspace
        Ud, _, _ = np.linalg.svd(second / N)
        Ud = Ud[:, :R]
        x = Ud.T @ Ym
        offset = 0.0
        u = x.mean(axis=1)
        y = x / (u @ x)[None, :]
    else:
        # affine projection to R-1 dimensions plus a constant coordinate
        Ud = U_cent[:, : R - 1]
        x = Ud.T @ Ym - (Ud.T @ y_mean)[:, None]
        offset = y_mean[:, None]
        c = np.sqrt(np.max(np.sum(x**2, axis=0)))
        y = np.vstack([x, c * np.ones((1, N))])

    indices = np.zeros(R, dtype=int)
    A = np.zeros((R, R))
    A[-1, 0] = 1.0
    for i in range(R):
        w = rng.standard_normal(R)
        f = w - A @ (np.linalg.pinv(A) @ w)
        f /= np.linalg.norm(f)
        v = f @ y
        indices[i] = int(np.argmax(np.abs(v)))
        A[:, i] = y[:, indices[i]]

    # Fortran order, the layout that picking columns of the full L x N
    # projection gave: FCLS's products round differently with the other one
    spectra = np.asfortranarray(Ud @ x[:, indices] + offset)
    return EndmemberSet(spectra, names=tuple(f"vca_{i + 1}" for i in range(R)))

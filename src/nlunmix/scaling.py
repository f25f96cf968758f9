"""Minimum-volume simplex fit on latent points and the abundance scaling.

The fitted latent cloud is an affine image of the abundances, so the
abundances are recovered by enclosing the cloud in a simplex of minimal
volume: the simplex vertices map the unit abundance vectors, and the
barycentric coordinates of each point are its abundances.  The fit is fully
deterministic: a max-volume vertex search over the data seeds it, a ramped
soft-containment penalty on log-volume refines it, and a final constrained
least-squares pass makes every abundance row exactly feasible.

The penalized objective reads the points as one C-ordered R x N array of
homogeneous columns, built once per fit, so its barycentric coordinates come
from one R x R by R x N product and its penalty from one R x N by N x R
product.  Each penalty stage is minimized over the (R-1) x R vertex entries
by a dense BFGS (:func:`_bfgs`).  With (R-1) * R unknowns (6 at R = 3) a
dense inverse Hessian costs nothing next to one pass over the points, so no
limited-memory solver is needed and the module imports nothing from
``scipy.optimize``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baselines import simplex_lstsq
from .core import AbundanceMatrix

MU_SCHEDULE = (1e2, 1e3, 1e4, 1e5, 1e6)


@dataclass(frozen=True)
class SimplexFit:
    """Vertices, abundances, and the latent-space vertex map of one fit.

    ``vertices`` is (R-1) x R with one simplex vertex per column (latent
    coordinates); ``v_r`` is the R x R map whose columns append the
    completing coordinate 1 - colsum, so constrained latents are exactly
    ``abundances @ v_r.T``.  ``stages`` holds, per BFGS stage in the order
    run (the ``MU_SCHEDULE`` stages, then the noise-weighted one if it ran),
    the rule that stopped it (see :func:`_bfgs`) and its final largest
    absolute gradient entry.
    """

    vertices: np.ndarray
    abundances: AbundanceMatrix
    v_r: np.ndarray
    volume: float
    init_volume: float
    stages: tuple[tuple[str, float], ...] = ()

    def __post_init__(self):
        V = np.array(self.vertices, float)
        vr = np.array(self.v_r, float)
        R = V.shape[1]
        if V.shape != (R - 1, R) or vr.shape != (R, R):
            raise ValueError("inconsistent vertex shapes")
        want_last = 1.0 - V.sum(axis=0)
        if np.max(np.abs(vr[: R - 1] - V)) > 0 or np.max(np.abs(vr[R - 1] - want_last)) > 1e-12:
            raise ValueError("v_r must extend the vertices with 1 - colsum")
        V.flags.writeable = False
        vr.flags.writeable = False
        object.__setattr__(self, "vertices", V)
        object.__setattr__(self, "v_r", vr)


def _augment(V: np.ndarray) -> np.ndarray:
    """Stack the all-ones row under the vertex matrix."""
    return np.vstack([V, np.ones(V.shape[1])])


def _nfindr(X: np.ndarray) -> np.ndarray:
    """Max-volume simplex with vertices at data points (greedy + swaps).

    Deterministic: greedy seeding from the point farthest from the
    centroid, then coordinate sweeps replacing one vertex at a time by the
    data point maximizing |det|, lower index winning ties.
    """
    n, rm1 = X.shape
    R = rm1 + 1
    Xt = np.hstack([X, np.ones((n, 1))])  # homogeneous rows
    centroid = X.mean(axis=0)
    idx = [int(np.argmax(np.sum((X - centroid) ** 2, axis=1)))]
    while len(idx) < R:
        # add the point farthest from the affine hull of the chosen ones
        anchor = X[idx[0]]
        diffs = (X[idx[1:]] - anchor).T  # (R-1) x (k-1)
        D = X - anchor
        if diffs.size:
            Q, _ = np.linalg.qr(diffs)
            resid = D - (D @ Q) @ Q.T
        else:
            resid = D
        dist = np.sum(resid**2, axis=1)
        idx.append(int(np.argmax(dist)))
    V = X[idx].T  # (R-1) x R
    # swap sweeps via Cramer: replacing column r with point x scales the
    # determinant by the r-th barycentric coordinate of x
    for _ in range(20):
        changed = False
        Vaug = _augment(V)
        det = np.linalg.det(Vaug)
        W = np.linalg.inv(Vaug)
        for r in range(R):
            cand = np.abs(det) * np.abs(Xt @ W[r])
            j = int(np.argmax(cand))
            if cand[j] > np.abs(det) * (1.0 + 1e-12):
                V = V.copy()
                V[:, r] = X[j]
                Vaug = _augment(V)
                det = np.linalg.det(Vaug)
                W = np.linalg.inv(Vaug)
                changed = True
        if not changed:
            break
    return V


def _inflate_to_contain(V: np.ndarray, X: np.ndarray, margin: float = 1e-3) -> np.ndarray:
    """Scale the simplex about its centroid until every point is inside."""
    R = V.shape[1]
    Xt = np.hstack([X, np.ones((X.shape[0], 1))])
    bary = Xt @ np.linalg.inv(_augment(V)).T
    m = float(bary.min())
    floor = margin / R
    if m >= floor:
        return V
    # barycentric coords shift affinely under scaling about the centroid
    s = (1.0 / R - m) / (1.0 / R - floor)
    centroid = V.mean(axis=1, keepdims=True)
    return centroid + s * (V - centroid)


def _homogeneous(X: np.ndarray) -> np.ndarray:
    """The N x (R-1) points as C-ordered R x N homogeneous columns (last
    row ones), so each coordinate is one contiguous row."""
    Xt = np.empty((X.shape[1] + 1, X.shape[0]))
    Xt[:-1] = X.T
    Xt[-1] = 1.0
    return Xt


def _penalized_objective(v_flat: np.ndarray, Xt: np.ndarray, R: int, mu):
    """log-volume plus weighted squared negative barycentric parts.

    ``Xt`` holds the homogeneous points as the columns of an R x N array
    (:func:`_homogeneous`), so the barycentric coordinates are the R x N
    product ``W @ Xt`` with W the inverse of the augmented vertex matrix.
    One R x R product M = neg @ bary^T then carries the whole penalty: its
    diagonal holds each face's sum of squared negative parts (neg * bary is
    neg^2 where neg is nonzero), and 2 mu M is the penalty's part of the
    gradient.  Only two R x N arrays are formed per call.  ``mu`` may be a
    scalar or a per-face weight vector of length R.  Returns the value and
    the gradient with respect to the (R-1) x R vertex entries, flattened
    row-major."""
    V = v_flat.reshape(R - 1, R)
    Vaug = _augment(V)
    det = np.linalg.det(Vaug)
    if abs(det) < 1e-300:
        return np.inf, np.zeros_like(v_flat)
    W = np.linalg.inv(Vaug)
    bary = W @ Xt  # R x N
    neg = np.minimum(bary, 0.0)
    M = neg @ bary.T
    mu_vec = np.broadcast_to(np.asarray(mu, float), (R,))
    value = np.log(abs(det)) + float(mu_vec @ np.diag(M))
    grad_aug = W.T @ (np.eye(R) - (2.0 * mu_vec)[:, None] * M)
    return value, grad_aug[: R - 1].ravel()


def _bfgs(fg, x0: np.ndarray, maxiter: int = 500, gtol: float = 1e-12, ftol: float = 1e-16):
    """Minimize a smooth function by dense BFGS with Armijo backtracking.

    ``fg(x)`` returns the value and the gradient.  The inverse-Hessian
    estimate starts as the identity scaled by s.y / y.y at the first update
    (Nocedal & Wright 2006, eq. 6.20), and an update is skipped when the step
    shows no positive curvature.  The first step, and any step after the
    estimate has lost descent, goes down the gradient with unit length.

    The stopping rules are those of L-BFGS-B: the largest gradient entry is
    at most ``gtol``, or one step lowered the value by at most ``ftol``
    times max(|f_old|, |f_new|, 1), or ``maxiter`` steps were taken.  A step
    for which 60 halvings find no sufficient decrease also stops it.
    Returns the last point, the number of steps, and the rule that stopped
    the iteration: "gtol", "ftol", "linesearch" or "maxiter".
    """
    x = np.array(x0, float)
    f, g = fg(x)
    H = None
    for it in range(maxiter):
        if not np.max(np.abs(g)) > gtol:
            return x, it, "gtol"
        p = None if H is None else -(H @ g)
        if p is None or not g @ p < 0.0:  # first step, or descent lost to rounding
            H = None
            p = -g / np.linalg.norm(g)
        slope = g @ p
        t = 1.0
        for _ in range(60):
            x_new = x + t * p
            f_new, g_new = fg(x_new)
            if f_new <= f + 1e-4 * t * slope:
                break
            t *= 0.5
        else:
            return x, it, "linesearch"
        s, y = x_new - x, g_new - g
        sy = s @ y
        if sy > 0.0:
            if H is None:
                H = (sy / (y @ y)) * np.eye(x.size)
            Hy = H @ y
            rho = 1.0 / sy
            H += (rho * rho * (y @ Hy) + rho) * np.outer(s, s) - rho * (
                np.outer(Hy, s) + np.outer(s, Hy)
            )
        decrease = f - f_new
        scale = max(abs(f), abs(f_new), 1.0)
        x, f, g = x_new, f_new, g_new
        if decrease <= ftol * scale:
            return x, it + 1, "ftol"
    return x, maxiter, "maxiter"


def fit_min_volume_simplex(X: np.ndarray, noise_scale: float | None = None) -> SimplexFit:
    """Fit the minimum-volume enclosing simplex to N x (R-1) latent points.

    Containment is enforced softly (quadratic penalty on negative
    barycentric parts, ramped from 1e2 to 1e6), then the abundances are
    re-projected by constrained least squares so positivity and sum-to-one
    hold exactly.

    When the latent points carry measurement noise of known per-axis scale,
    pass it as ``noise_scale``: a final refinement then reweights the
    containment penalty to the Gaussian-residual weight 1/(2 N sigma^2) per
    squared distance unit, so the faces settle where the boundary data
    supports them instead of tracking the outermost noise excursions.  A
    vanishing noise scale reduces to the rigid behavior.
    """
    X = np.asarray(X, float)
    n, rm1 = X.shape
    R = rm1 + 1
    Xc = X - X.mean(axis=0)
    sv = np.linalg.svd(Xc, compute_uv=False)
    if sv[rm1 - 1] <= 1e-10 * sv[0]:
        raise ValueError("latent points do not span R-1 dimensions")
    Xt = _homogeneous(X)

    stages = []

    def stage(V, mu):
        v, _, stop = _bfgs(lambda v: _penalized_objective(v, Xt, R, mu), V.ravel())
        stages.append((stop, float(np.max(np.abs(_penalized_objective(v, Xt, R, mu)[1])))))
        return v.reshape(R - 1, R)

    V = _inflate_to_contain(_nfindr(X), X)
    init_volume = abs(np.linalg.det(_augment(V)))
    for mu in MU_SCHEDULE:
        V = stage(V, mu)

    if noise_scale is not None and noise_scale > 0:
        # convert barycentric violations to Euclidean distances with the
        # face geometry frozen at the rigid solution
        W = np.linalg.inv(_augment(V))
        face_norm2 = np.sum(W[:, : R - 1] ** 2, axis=1)
        mu_faces = 1.0 / (2.0 * n * noise_scale**2 * face_norm2)
        V = stage(V, np.minimum(mu_faces, MU_SCHEDULE[-1]))

    abund = AbundanceMatrix(simplex_lstsq(V, X))
    v_r = np.vstack([V, 1.0 - V.sum(axis=0)])
    return SimplexFit(
        vertices=V,
        abundances=abund,
        v_r=v_r,
        volume=abs(np.linalg.det(_augment(V))),
        init_volume=init_volume,
        stages=tuple(stages),
    )


def constrained_latents(fit: SimplexFit) -> tuple[np.ndarray, np.ndarray]:
    """Latent rows snapped onto the fitted simplex: exactly A @ v_r^T."""
    Xc = fit.abundances.values @ fit.v_r.T
    if np.max(np.abs(Xc.sum(axis=1) - 1.0)) > 1e-12:
        raise AssertionError("constrained latents lost the sum-to-one identity")
    return Xc, fit.v_r

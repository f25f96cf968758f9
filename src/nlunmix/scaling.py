"""Minimum-volume simplex fit on latent points and the abundance scaling.

The fitted latent cloud is an affine image of the abundances, so the
abundances are recovered by enclosing the cloud in a simplex of minimal
volume: the simplex vertices map the unit abundance vectors, and the
barycentric coordinates of each point are its abundances.  The fit is fully
deterministic: a max-volume vertex search over the data seeds it, a ramped
soft-containment penalty on log-volume refines it, and a final constrained
least-squares pass makes every abundance row exactly feasible.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .baselines import simplex_lstsq
from .core import AbundanceMatrix

MU_SCHEDULE = (1e2, 1e3, 1e4, 1e5, 1e6)


@dataclass(frozen=True)
class SimplexFit:
    """Vertices, abundances, and the latent-space vertex map of one fit.

    ``vertices`` is (R-1) x R with one simplex vertex per column (latent
    coordinates); ``v_r`` is the R x R map whose columns append the
    completing coordinate 1 - colsum, so constrained latents are exactly
    ``abundances @ v_r.T``.
    """

    vertices: np.ndarray
    abundances: AbundanceMatrix
    v_r: np.ndarray
    volume: float
    init_volume: float

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


def _penalized_objective(v_flat: np.ndarray, Xt: np.ndarray, R: int, mu):
    """log-volume plus weighted squared negative barycentric parts.

    ``mu`` may be a scalar or a per-face weight vector of length R."""
    V = v_flat.reshape(R - 1, R)
    Vaug = _augment(V)
    det = np.linalg.det(Vaug)
    if abs(det) < 1e-300:
        return np.inf, np.zeros_like(v_flat)
    W = np.linalg.inv(Vaug)
    bary = Xt @ W.T  # N x R
    neg = np.minimum(bary, 0.0)
    mu_vec = np.broadcast_to(np.asarray(mu, float), (R,))
    value = np.log(abs(det)) + float(np.sum(mu_vec * np.sum(neg**2, axis=0)))
    G = 2.0 * mu_vec * neg
    grad_aug = W.T @ (np.eye(R) - G.T @ bary)
    return value, grad_aug[: R - 1].ravel()


def _newton_polish(V: np.ndarray, Xt: np.ndarray, R: int, mu) -> np.ndarray:
    """A few damped Newton steps on the penalized objective.

    The parameter space is tiny ((R-1) * R entries), so a finite-difference
    Hessian of the analytic gradient is cheap and pushes the gradient norm
    to solver precision, which the affine-equivariance guarantee needs.
    """
    v = V.ravel().copy()
    dim = v.size
    h = 1e-7
    for _ in range(8):
        f0, g0 = _penalized_objective(v, Xt, R, mu)
        if np.linalg.norm(g0) < 1e-11 * max(1.0, Xt.shape[0]):
            break
        H = np.empty((dim, dim))
        for i in range(dim):
            e = np.zeros(dim)
            e[i] = h
            H[:, i] = (_penalized_objective(v + e, Xt, R, mu)[1] - g0) / h
        H = 0.5 * (H + H.T)
        try:
            step = np.linalg.solve(H + 1e-12 * np.eye(dim), g0)
        except np.linalg.LinAlgError:
            break
        t = 1.0
        for _ in range(30):
            f1, _ = _penalized_objective(v - t * step, Xt, R, mu)
            if f1 <= f0:
                v = v - t * step
                break
            t *= 0.5
        else:
            break
    return v.reshape(R - 1, R)


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
    Xt = np.hstack([X, np.ones((n, 1))])

    V = _inflate_to_contain(_nfindr(X), X)
    init_volume = abs(np.linalg.det(_augment(V)))
    for mu in MU_SCHEDULE:
        res = scipy.optimize.minimize(
            _penalized_objective,
            V.ravel(),
            args=(Xt, R, mu),
            jac=True,
            method="L-BFGS-B",
            options=dict(maxiter=500, ftol=1e-16, gtol=1e-12),
        )
        V = res.x.reshape(R - 1, R)
    V = _newton_polish(V, Xt, R, MU_SCHEDULE[-1])

    if noise_scale is not None and noise_scale > 0:
        # convert barycentric violations to Euclidean distances with the
        # face geometry frozen at the rigid solution
        W = np.linalg.inv(_augment(V))
        face_norm2 = np.sum(W[:, : R - 1] ** 2, axis=1)
        mu_faces = 1.0 / (2.0 * n * noise_scale**2 * face_norm2)
        mu_faces = np.minimum(mu_faces, MU_SCHEDULE[-1])
        res = scipy.optimize.minimize(
            _penalized_objective,
            V.ravel(),
            args=(Xt, R, mu_faces),
            jac=True,
            method="L-BFGS-B",
            options=dict(maxiter=500, ftol=1e-16, gtol=1e-12),
        )
        V = _newton_polish(res.x.reshape(R - 1, R), Xt, R, mu_faces)

    abund = AbundanceMatrix(simplex_lstsq(V, X))
    v_r = np.vstack([V, 1.0 - V.sum(axis=0)])
    return SimplexFit(
        vertices=V,
        abundances=abund,
        v_r=v_r,
        volume=abs(np.linalg.det(_augment(V))),
        init_volume=init_volume,
    )


def constrained_latents(fit: SimplexFit) -> tuple[np.ndarray, np.ndarray]:
    """Latent rows snapped onto the fitted simplex: exactly A @ v_r^T."""
    Xc = fit.abundances.values @ fit.v_r.T
    if np.max(np.abs(Xc.sum(axis=1) - 1.0)) > 1e-12:
        raise AssertionError("constrained latents lost the sum-to-one identity")
    return Xc, fit.v_r

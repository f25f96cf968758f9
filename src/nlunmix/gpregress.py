"""Endmember prediction by Gaussian process regression on the fitted model.

Each spectral band is a GP over abundance space: the fitted latent rows are
the training inputs (through the quadratic feature map), and the hidden
noise-free spectrum at any abundance vector has a closed-form posterior.
Endmembers are the posterior means at the unit abundance vectors, with
per-band predictive variances for confidence intervals.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import EndmemberSet
from .model import LatentState, WoodburySolver, psi, psi_batch

SIMPLEX_TOL = 1e-9


@dataclass(frozen=True)
class GpPredictor:
    """Immutable prediction context: fitted state, spectral map, vertex map,
    training residuals, and the shared covariance factorization."""

    state: LatentState
    spectral_map: np.ndarray  # L x D rows p_l
    v_r: np.ndarray  # R x R, columns are latent vertices
    mean_spectrum: np.ndarray  # L, added back to predictions
    Yc: np.ndarray  # N x L centered training pixels

    def __post_init__(self):
        P = np.array(self.spectral_map, float)
        vr = np.array(self.v_r, float)
        mean = np.array(self.mean_spectrum, float).reshape(-1)
        Yc = np.array(self.Yc, float)
        R = self.state.n_endmembers
        D = self.state.U.shape[0]
        if P.shape != (Yc.shape[1], D) or vr.shape != (R, R):
            raise ValueError("inconsistent predictor shapes")
        if mean.shape[0] != Yc.shape[1] or Yc.shape[0] != self.state.n_pixels:
            raise ValueError("inconsistent predictor shapes")
        for a in (P, vr, mean, Yc):
            a.flags.writeable = False
        object.__setattr__(self, "spectral_map", P)
        object.__setattr__(self, "v_r", vr)
        object.__setattr__(self, "mean_spectrum", mean)
        object.__setattr__(self, "Yc", Yc)
        C = psi_batch(self.state.X) @ self.state.U
        solver = WoodburySolver(C, self.state.s2, self.state.sigma2)
        resid = Yc - C @ P.T
        si_resid = solver.solve(resid)
        for a in (C, resid, si_resid):
            a.flags.writeable = False
        object.__setattr__(self, "_C", C)
        object.__setattr__(self, "_solver", solver)
        object.__setattr__(self, "_si_resid", si_resid)


def predict_spectrum(alpha: np.ndarray, pred: GpPredictor) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and variance of the hidden spectrum at abundances
    ``alpha``.

    The returned mean is in centered coordinates; the variance is shared
    across bands.  Raw variances may carry tiny negative rounding noise;
    they are returned unclipped.
    """
    alpha = np.asarray(alpha, float).reshape(-1)
    R = pred.state.n_endmembers
    if alpha.shape[0] != R:
        raise ValueError(f"alpha must have length {R}")
    if abs(alpha.sum() - 1.0) > SIMPLEX_TOL or alpha.min() < -SIMPLEX_TOL:
        raise ValueError("alpha must lie on the probability simplex")
    x_star = pred.v_r @ alpha
    u_psi = pred.state.U.T @ psi(x_star)  # D
    prior_mean = pred.spectral_map @ u_psi  # L
    kappa = pred.state.s2 * (pred._C @ u_psi)  # N
    sigma_star2 = pred.state.s2 * float(u_psi @ u_psi)
    mu = prior_mean + pred._si_resid.T @ kappa
    var_scalar = sigma_star2 - float(kappa @ pred._solver.solve(kappa))
    var = np.full(mu.shape, var_scalar)
    return mu, var


def extract_endmembers(pred: GpPredictor) -> EndmemberSet:
    """Predicted spectra at the R unit abundance vectors, un-centered,
    with per-band posterior variances attached."""
    R = pred.state.n_endmembers
    L = pred.Yc.shape[1]
    spectra = np.empty((L, R))
    variances = np.empty((L, R))
    for r in range(R):
        alpha = np.zeros(R)
        alpha[r] = 1.0
        mu, var = predict_spectrum(alpha, pred)
        spectra[:, r] = mu + pred.mean_spectrum
        variances[:, r] = np.maximum(var, 0.0)
    return EndmemberSet(
        spectra,
        names=tuple(f"gp_{r + 1}" for r in range(R)),
        band_variance=variances,
    )


def confidence95(endmembers: EndmemberSet) -> tuple[np.ndarray, np.ndarray]:
    """95% pointwise intervals around GP-extracted endmember spectra."""
    if endmembers.band_variance is None:
        raise ValueError("endmember set carries no predictive variances")
    half = 1.96 * np.sqrt(endmembers.band_variance)
    return endmembers.spectra - half, endmembers.spectra + half

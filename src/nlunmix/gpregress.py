"""Endmember prediction by Gaussian process regression on the fitted model.

Each spectral band is a GP over abundance space: the fitted latent rows are
the training inputs (through the quadratic feature map), and the hidden
noise-free spectrum at any abundance vector has a closed-form posterior.
Endmembers are the posterior means at the unit abundance vectors, with
per-band predictive variances for confidence intervals.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import EndmemberSet
from .model import LatentState, WoodburySolver, psi, psi_batch

SIMPLEX_TOL = 1e-9


@dataclass(frozen=True)
class GpPredictor:
    """Immutable prediction context: fitted state, spectral map, vertex map,
    and D-sized statistics of the training pixels.

    ``Yc`` (the N x L centered training pixels) is only read while the
    predictor is built.  One :class:`WoodburySolver` on C = psi(X) U gives
    the posterior-mean spectral map of the fitted state around the prior
    mean ``spectral_map`` (the PCA basis, or P-hat under ``mean_mode=map``)
    and, from its thin SVD C = W S V^T, V^T and the shares
    sigma2 / (s2 S^2 + sigma2); after that the predictor holds no array
    with N rows besides the state's latents.
    """

    state: LatentState
    spectral_map: np.ndarray  # L x D rows p_l
    v_r: np.ndarray  # R x R, columns are latent vertices
    mean_spectrum: np.ndarray  # L, added back to predictions
    Yc: np.ndarray = field(repr=False, compare=False)  # N x L, dropped once read

    def __post_init__(self):
        P = np.array(self.spectral_map, float)
        vr = np.array(self.v_r, float)
        mean = np.array(self.mean_spectrum, float).reshape(-1)
        Yc = np.asarray(self.Yc, float)
        R = self.state.n_endmembers
        D = self.state.U.shape[0]
        if P.shape != (Yc.shape[1], D) or vr.shape != (R, R):
            raise ValueError("inconsistent predictor shapes")
        if mean.shape[0] != Yc.shape[1] or Yc.shape[0] != self.state.n_pixels:
            raise ValueError("inconsistent predictor shapes")
        wb = WoodburySolver(psi_batch(self.state.X) @ self.state.U,
                            self.state.s2, self.state.sigma2)
        stats = {
            "_mean_map": wb.posterior_map(Yc, P),
            "_Vt": wb.Vt,
            "_noise_share": wb.sigma2 / wb.evals,
        }
        for name, a in dict(stats, spectral_map=P, v_r=vr, mean_spectrum=mean).items():
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        object.__delattr__(self, "Yc")


def predict_spectrum(alpha: np.ndarray, pred: GpPredictor) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and variance of the hidden spectrum at abundances
    ``alpha``.

    The returned mean is in centered coordinates; the variance is shared
    across bands.  With u = U^T psi(x*) and Sigma = s2 C C^T + sigma2 I,
    the mean P u + s2 Ybar^T Sigma^{-1} C u is the posterior-mean spectral
    map applied to u.  The variance s2 u^T u - s2^2 u^T C^T Sigma^{-1} C u
    is s2 times the sum of sigma2 / (s2 S^2 + sigma2) (V^T u)_k^2 over the
    SVD directions of C plus the squared norm of u outside V's span.  Nothing
    is divided by sigma2, so both stay accurate when s2 ||C||^2 >> sigma2, and
    the variance is a sum of nonnegative terms.  The latents and the simplex
    vertices are held fixed.
    """
    alpha = np.asarray(alpha, float).reshape(-1)
    R = pred.state.n_endmembers
    if alpha.shape[0] != R:
        raise ValueError(f"alpha must have length {R}")
    if abs(alpha.sum() - 1.0) > SIMPLEX_TOL or alpha.min() < -SIMPLEX_TOL:
        raise ValueError("alpha must lie on the probability simplex")
    s2 = pred.state.s2
    u_psi = pred.state.U.T @ psi(pred.v_r @ alpha)  # D
    vu = pred._Vt @ u_psi
    outside = u_psi - pred._Vt.T @ vu
    mu = pred._mean_map @ u_psi
    var_scalar = s2 * (float(pred._noise_share @ vu**2) + float(outside @ outside))
    return mu, np.full(mu.shape, var_scalar)


def extract_endmembers(pred: GpPredictor) -> EndmemberSet:
    """Predicted spectra at the R unit abundance vectors, un-centered,
    with per-band posterior variances attached."""
    R = pred.state.n_endmembers
    L = pred.spectral_map.shape[0]
    spectra = np.empty((L, R))
    variances = np.empty((L, R))
    for r in range(R):
        alpha = np.zeros(R)
        alpha[r] = 1.0
        mu, var = predict_spectrum(alpha, pred)
        spectra[:, r] = mu + pred.mean_spectrum
        variances[:, r] = var
    return EndmemberSet(
        spectra,
        names=tuple(f"gp_{r + 1}" for r in range(R)),
        band_variance=variances,
    )


def confidence95(endmembers: EndmemberSet) -> tuple[np.ndarray, np.ndarray]:
    """95% pointwise intervals around GP-extracted endmember spectra.

    The band is the GP posterior with the latents and the simplex vertices
    held fixed at their fitted values: their own uncertainty is left out."""
    if endmembers.band_variance is None:
        raise ValueError("endmember set carries no predictive variances")
    half = 1.96 * np.sqrt(endmembers.band_variance)
    return endmembers.spectra - half, endmembers.spectra + half

"""Synthetic-scene generation: spectra, simplex abundances, mixing, noise.

Supports the linear mixing model (LMM), the Fan bilinear model (FM), and the
generalized bilinear model (GBM).  The GBM reduces to the LMM when all of its
interaction coefficients are 0 and to the FM when they are all 1.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import AbundanceMatrix, EndmemberSet, HyperImage
from .metrics import sam

MODELS = ("lmm", "fm", "gbm")

MIN_PAIRWISE_SAM = 0.15

# GBM interaction coefficients of the pairs (1,2), (1,3), (2,3) when a
# three-endmember GBM recipe names none
DEFAULT_GBM_GAMMA = (0.9, 0.5, 0.3)


@dataclass(frozen=True)
class SceneRecipe:
    """Generator configuration for one synthetic image."""

    model: str
    R: int
    L: int
    N: int
    sigma2: float
    seed: int
    amax: float = 1.0
    gamma: np.ndarray | None = None  # strictly upper-triangular R x R, GBM only

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}")
        if self.R < 2 or self.L < self.R or self.N < 1:
            raise ValueError("need R >= 2, L >= R, N >= 1")
        if not self.sigma2 > 0:
            raise ValueError("sigma2 must be > 0")
        if self.amax * self.R < 1.0 or self.amax > 1.0:
            raise ValueError("amax must satisfy 1/R <= amax <= 1")
        if self.model == "gbm":
            g = np.array(self.gamma if self.gamma is not None else np.zeros((self.R, self.R)), float)
            if g.shape != (self.R, self.R):
                raise ValueError("gamma must be R x R")
            if np.any(np.tril(g) != 0.0):
                raise ValueError("gamma must be strictly upper triangular")
            if np.any(g < 0.0) or np.any(g > 1.0):
                raise ValueError("gamma entries must lie in [0, 1]")
            g.flags.writeable = False
            object.__setattr__(self, "gamma", g)
        elif self.gamma is not None:
            raise ValueError("gamma is only meaningful for the GBM")


def gamma_matrix(R: int, coeffs) -> np.ndarray:
    """Build the strictly upper-triangular coefficient matrix from the
    lexicographically ordered pair values ((1,2), (1,3), ..., (R-1,R))."""
    pairs = list(combinations(range(R), 2))
    coeffs = np.asarray(coeffs, float).reshape(-1)
    if coeffs.shape[0] != len(pairs):
        raise ValueError(f"expected {len(pairs)} coefficients, got {coeffs.shape[0]}")
    g = np.zeros((R, R))
    for (i, j), c in zip(pairs, coeffs):
        g[i, j] = c
    return g


def recipe_to_kv(recipe: SceneRecipe) -> dict:
    """The recipe as ``recipe.txt`` stores it, one key=value line per entry:
    floats to 17 significant digits, and for the GBM the comma-separated
    pair coefficients in :func:`gamma_matrix` order."""
    kv = {
        "model": recipe.model,
        "r": recipe.R,
        "l": recipe.L,
        "n": recipe.N,
        "sigma2": format(recipe.sigma2, ".17g"),
        "amax": format(recipe.amax, ".17g"),
        "seed": recipe.seed,
    }
    if recipe.model == "gbm":
        pairs = combinations(range(recipe.R), 2)
        kv["gbm_gamma"] = ",".join(format(recipe.gamma[i, j], ".17g") for i, j in pairs)
    return kv


def recipe_from_kv(values: dict) -> SceneRecipe:
    """The recipe whose keys ``values`` holds, as strings (``parse_kv``) or
    as numbers.  The recipe keys are popped, so the caller sees what is
    left.  ``amax`` defaults to 1; a GBM recipe without ``gbm_gamma`` (or
    with an empty one) gets ``DEFAULT_GBM_GAMMA``, which fits only R = 3."""
    for key in ("model", "r", "l", "n", "sigma2", "seed"):
        if key not in values:
            raise ValueError(f"missing required key {key!r}")
    model, R = str(values.pop("model")), int(values.pop("r"))
    coeffs = values.pop("gbm_gamma", None)
    gamma = None
    if model == "gbm":
        coeffs = [float(v) for v in coeffs.split(",")] if coeffs else DEFAULT_GBM_GAMMA
        gamma = gamma_matrix(R, coeffs)
    return SceneRecipe(
        model=model,
        R=R,
        L=int(values.pop("l")),
        N=int(values.pop("n")),
        sigma2=float(values.pop("sigma2")),
        seed=int(values.pop("seed")),
        amax=float(values.pop("amax", 1.0)),
        gamma=gamma,
    )


def default_recipe(model: str, seed: int = 0, amax: float = 1.0) -> SceneRecipe:
    """Desk-scale benchmark recipe: N=2500 pixels, R=3, L=160, sigma2=1e-4,
    GBM coefficients ``DEFAULT_GBM_GAMMA``."""
    gamma = gamma_matrix(3, DEFAULT_GBM_GAMMA) if model == "gbm" else None
    return SceneRecipe(model=model, R=3, L=160, N=2500, sigma2=1e-4, seed=seed,
                       amax=amax, gamma=gamma)


@dataclass(frozen=True)
class Scene:
    """A generated image together with its ground truth."""

    image: HyperImage
    abundances: AbundanceMatrix
    endmembers: EndmemberSet
    recipe: SceneRecipe

    def __post_init__(self):
        r = self.recipe
        if self.image.pixels.shape != (r.N, r.L):
            raise ValueError("image shape inconsistent with recipe")
        if self.abundances.values.shape != (r.N, r.R):
            raise ValueError("abundance shape inconsistent with recipe")
        if self.image.centered:
            raise ValueError("scene images are stored uncentered")
        if np.any(self.abundances.values > r.amax + 1e-12):
            raise ValueError("abundances violate the recipe truncation")


def synth_endmembers(R: int, L: int, seed: int) -> EndmemberSet:
    """Generate R smooth, nonnegative, pairwise-distinct spectra.

    Each spectrum is a sum of 3-5 Gaussian bumps over the band index,
    rescaled into [0.05, 1.0].  Candidates too close (spectral angle below
    0.15 rad) to an already accepted spectrum are redrawn, so the result is
    deterministic in the seed.
    """
    if R < 2:
        raise ValueError("need at least two endmembers")
    if L < R:
        raise ValueError("need L >= R bands")
    rng = np.random.default_rng(seed)
    bands = np.arange(L, dtype=float)
    spectra = np.empty((L, R))
    accepted = 0
    attempts = 0
    while accepted < R:
        attempts += 1
        if attempts > 1000 * R:
            raise RuntimeError("could not draw sufficiently distinct spectra")
        n_bumps = int(rng.integers(3, 6))
        s = np.zeros(L)
        for _ in range(n_bumps):
            center = rng.uniform(0, L)
            width = rng.uniform(L / 20, L / 6)
            amp = rng.uniform(0.3, 1.0)
            s += amp * np.exp(-0.5 * ((bands - center) / width) ** 2)
        span = s.max() - s.min()
        if span < 1e-6:
            continue
        s = 0.05 + 0.95 * (s - s.min()) / span
        if any(sam(spectra[:, j], s) < MIN_PAIRWISE_SAM for j in range(accepted)):
            continue
        spectra[:, accepted] = s
        accepted += 1
    return EndmemberSet(spectra)


def sample_abundances(N: int, R: int, amax: float, seed: int) -> AbundanceMatrix:
    """Draw N abundance rows uniformly on the simplex truncated at amax.

    Uniform-simplex rows come from normalized exponential spacings; rows
    with any coordinate above amax are rejected and redrawn.
    """
    if amax * R < 1.0:
        raise ValueError("amax * R >= 1 required for a nonempty admissible set")
    if abs(amax * R - 1.0) < 1e-12:
        # the admissible set degenerates to the single uniform vector
        return AbundanceMatrix(np.full((N, R), 1.0 / R))
    rng = np.random.default_rng(seed)
    rows = []
    have = 0
    while have < N:
        batch = max(N - have, 64)
        e = rng.exponential(size=(batch, R))
        a = e / e.sum(axis=1, keepdims=True)
        keep = a.max(axis=1) <= amax
        a = a[keep]
        rows.append(a)
        have += a.shape[0]
    return AbundanceMatrix(np.vstack(rows)[:N])


def _cross_terms(A: np.ndarray, M: np.ndarray, weights: np.ndarray | None) -> np.ndarray:
    """Sum over i<j of w_ij * a_i a_j * (m_i ⊙ m_j), for all pixels at once."""
    R = A.shape[1]
    out = np.zeros((A.shape[0], M.shape[0]))
    for i, j in combinations(range(R), 2):
        w = 1.0 if weights is None else weights[i, j]
        if w == 0.0:
            continue
        out += w * (A[:, i] * A[:, j])[:, None] * (M[:, i] * M[:, j])[None, :]
    return out


def mix(recipe: SceneRecipe, A: AbundanceMatrix, M: EndmemberSet) -> HyperImage:
    """Mix abundances and endmembers into a noise-free image under the
    recipe's model."""
    Av = A.values
    Mv = M.spectra
    if Av.shape[1] != Mv.shape[1]:
        raise ValueError("abundance and endmember counts differ")
    if Av.shape != (recipe.N, recipe.R) or Mv.shape != (recipe.L, recipe.R):
        raise ValueError("dimensions inconsistent with recipe")
    Y = Av @ Mv.T
    if recipe.model == "fm":
        Y = Y + _cross_terms(Av, Mv, None)
    elif recipe.model == "gbm":
        Y = Y + _cross_terms(Av, Mv, recipe.gamma)
    return HyperImage(Y)


def add_noise(img: HyperImage, sigma2: float, seed: int) -> HyperImage:
    """Add i.i.d. zero-mean Gaussian noise of variance sigma2 per entry."""
    if not sigma2 > 0:
        raise ValueError("sigma2 must be > 0")
    rng = np.random.default_rng(seed)
    noisy = img.pixels + rng.normal(0.0, np.sqrt(sigma2), img.pixels.shape)
    return HyperImage(noisy)


def generate_scene(recipe: SceneRecipe) -> Scene:
    """Full generator: spectra, abundances, mixing, and noise.

    Sub-seeds are derived from the recipe seed so the three random stages
    stay independent yet reproducible.
    """
    seeds = [int(s) for s in np.random.SeedSequence(recipe.seed).generate_state(3)]
    endm = synth_endmembers(recipe.R, recipe.L, seeds[0])
    abund = sample_abundances(recipe.N, recipe.R, recipe.amax, seeds[1])
    clean = mix(recipe, abund, endm)
    noisy = add_noise(clean, recipe.sigma2, seeds[2])
    return Scene(image=noisy, abundances=abund, endmembers=endm, recipe=recipe)

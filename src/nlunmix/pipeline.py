"""End-to-end experiment pipeline and report generation.

Chains scene generation, centering, subspace and neighborhood preparation,
the latent fit, simplex scaling, GP endmember extraction, and the linear
baseline, then scores everything against the scene's ground truth.  Reports
are written as deterministic CSV (wall-clock timings go to a separate file
so the metrics file is byte-reproducible for fixed seeds).

The four unmixing stages (``reduce_stage``, ``fit_stage``, ``scale_stage``,
``endmembers_stage``) are written once here: ``run_pipeline`` chains them in
memory, and each CLI stage command reads its directory, calls one of them
and writes the next directory.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .baselines import fcls, vca
from .core import EndmemberSet, center
from .embed import LleWeights, PcaBasis, init_latents, lle_weights, pca_basis
from .gpregress import GpPredictor, extract_endmembers
from .metrics import align_columns, are, rnmse, sam
from .model import (
    FitReport,
    LatentState,
    ModelContext,
    feature_dim,
    initial_state,
    latent_noise_scale,
    map_P,
    reconstruct,
    scg_optimize,
)
from .scaling import SimplexFit, constrained_latents, fit_min_volume_simplex
from .scene import SceneRecipe, generate_scene, recipe_from_kv

KNOWN_METHODS = ("fcll_gplvm", "vca_fcls")
# spectral map of the GP mean: the fixed PCA basis, or the fit's posterior-mean map
MEAN_MODES = ("pca", "map")


class PipelineError(RuntimeError):
    """A pipeline stage failed; carries the stage name for diagnostics."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"[stage: {stage}] {cause}")
        self.stage = stage
        self.__cause__ = cause


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one benchmark run needs."""

    recipe: SceneRecipe
    gamma: float = 1e3
    k: int | None = None  # LLE neighbors; defaults to R
    max_iter: int = 2000
    tol: float = 1e-8
    methods: tuple[str, ...] = KNOWN_METHODS
    mean_mode: str = "pca"
    baseline_seed: int = 0

    def __post_init__(self):
        for m in self.methods:
            if m not in KNOWN_METHODS:
                raise ValueError(f"unknown method {m!r}")
        if self.mean_mode not in MEAN_MODES:
            raise ValueError(f"unknown mean_mode {self.mean_mode!r}")
        if self.k is not None and self.k < 1:
            raise ValueError("k must be >= 1")


@dataclass(frozen=True)
class MethodResult:
    are: float
    rnmse: float
    sam_per_endmember: tuple[float, ...]
    permutation: tuple[int, ...]
    wall_clock: float

    def __post_init__(self):
        vals = (self.are, self.rnmse, *self.sam_per_endmember)
        if not all(np.isfinite(v) and v >= 0 for v in vals):
            raise ValueError("metrics must be finite and nonnegative")


@dataclass(frozen=True)
class Report:
    methods: dict[str, MethodResult]
    pca_are: float
    llgplvm_are: float
    seed: int
    plot_data: dict = field(repr=False, default_factory=dict)
    # wall clock of the stages both methods share: gen, center, reduce
    prep_wall_clock: float | None = None
    # termination info of the latent fit (None when fcll_gplvm did not run)
    fit: FitReport | None = None


def parse_kv(text: str) -> dict[str, str]:
    """Parse flat ``key=value`` lines (configs, recipes, stage metadata).
    Blank lines and ``#`` comments are skipped; a repeated key keeps its
    last value; a line without ``=`` is an error naming its line number."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, val = line.partition("=")
        values[key.strip()] = val.strip()
    return values


def parse_config(text: str) -> tuple[ExperimentConfig, str]:
    """Parse the flat key=value experiment format; returns (config, outdir)."""
    values = parse_kv(text)

    def take(key, conv, default):
        return conv(values.pop(key)) if key in values else default

    recipe = recipe_from_kv(values)
    config = ExperimentConfig(
        recipe=recipe,
        gamma=take("gamma", float, 1e3),
        k=take("k", int, recipe.R),
        max_iter=take("max_iter", int, 2000),
        tol=take("tol", float, 1e-8),
        methods=tuple(take("methods", str, ",".join(KNOWN_METHODS)).split(",")),
        mean_mode=take("mean_mode", str, "pca"),
        baseline_seed=take("baseline_seed", int, 0),
    )
    outdir = values.pop("out", ".")
    if values:
        raise ValueError(f"unknown config keys: {sorted(values)}")
    return config, outdir


@contextmanager
def _stage(name):
    """Tag an ``Exception`` raised in the block with the stage ``name``;
    anything else, such as ``KeyboardInterrupt``, passes through as is."""
    try:
        yield
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(name, exc) from exc


def reduce_stage(
    Yc: np.ndarray, R: int, k: int
) -> tuple[PcaBasis, LleWeights, np.ndarray]:
    """PCA basis of the feature dimension, LLE weights over ``k`` neighbours
    and the initial latents, all from the centered pixels ``Yc``."""
    pbar = pca_basis(Yc, feature_dim(R))
    lle = lle_weights(Yc, K=k)
    x0 = init_latents(Yc, pbar.basis[:, : R - 1])
    return pbar, lle, x0


def fit_stage(
    Yc: np.ndarray, pbar: PcaBasis, lle: LleWeights, x0: np.ndarray,
    *, gamma: float, max_iter: int, tol: float,
) -> tuple[LatentState, FitReport, np.ndarray]:
    """Latent fit by scaled conjugate gradients from ``x0``.  Returns the
    fitted state, its report and the posterior-mean spectral map P̂."""
    ctx = ModelContext(Yc=Yc, pbar=pbar, lle=lle, gamma=gamma)
    state, report = scg_optimize(initial_state(ctx, x0), ctx, max_iter=max_iter, tol=tol)
    return state, report, map_P(state, ctx)


def scale_stage(
    state: LatentState, basis: np.ndarray, rigid: bool = False
) -> tuple[SimplexFit, LatentState, np.ndarray]:
    """Minimum-volume simplex around the fitted latents.  Unless ``rigid``,
    the containment penalty adapts to the latent noise scale.  Returns the
    simplex fit, the state with its latents moved onto the simplex, and the
    R x R vertex map."""
    R = state.n_endmembers
    noise_scale = None if rigid else latent_noise_scale(state, basis)
    simplex = fit_min_volume_simplex(state.X[:, : R - 1], noise_scale=noise_scale)
    Xc, v_r = constrained_latents(simplex)
    cstate = LatentState(X=Xc, U=state.U, s2=state.s2, sigma2=state.sigma2)
    return simplex, cstate, v_r


def endmembers_stage(
    cstate: LatentState, v_r: np.ndarray, Yc: np.ndarray, mean: np.ndarray,
    basis: np.ndarray, phat: np.ndarray, mean_mode: str = "pca",
) -> EndmemberSet:
    """GP endmembers at the simplex vertices.  ``mean_mode`` picks the GP's
    spectral map: "pca" the fixed eigenvector basis, "map" the fit stage's
    posterior-mean map ``phat``."""
    if mean_mode not in MEAN_MODES:
        raise ValueError(f"unknown mean_mode {mean_mode!r}")
    spectral_map = phat if mean_mode == "map" else basis
    pred = GpPredictor(
        state=cstate, spectral_map=spectral_map, v_r=v_r, mean_spectrum=mean, Yc=Yc
    )
    return extract_endmembers(pred)


def _score(scene, recon, abund, endm, t0: float) -> MethodResult:
    """One method's reconstruction, abundances and endmembers against the
    scene's truth, endmembers matched to the true ones by ``align_columns``."""
    M_true = scene.endmembers
    perm = align_columns(M_true, endm)
    return MethodResult(
        are=are(scene.image.pixels, recon),
        rnmse=rnmse(scene.abundances.values, abund.values[:, perm]),
        sam_per_endmember=tuple(
            sam(M_true.spectra[:, r], endm.spectra[:, p]) for r, p in enumerate(perm)
        ),
        permutation=perm,
        wall_clock=time.perf_counter() - t0,
    )


def run_pipeline(config: ExperimentConfig) -> Report:
    """Run the configured methods on a freshly generated scene."""
    recipe = config.recipe
    R = recipe.R
    k = config.k or R

    t0 = time.perf_counter()
    with _stage("gen"):
        scene = generate_scene(recipe)
        Y = scene.image.pixels

    with _stage("center"):
        centered, mean = center(scene.image)
        Yc = centered.pixels

    with _stage("reduce"):
        pbar, lle, x0 = reduce_stage(Yc, R, k)
        basis_rm1 = pbar.basis[:, : R - 1]
        pca_recon = (Yc @ basis_rm1) @ basis_rm1.T + mean
        pca_are = are(Y, pca_recon)
    prep_wall_clock = time.perf_counter() - t0

    results: dict[str, MethodResult] = {}
    plot_data: dict = {"pca_scores": Yc @ basis_rm1}
    llgplvm_are = np.nan
    fit_report = None

    if "fcll_gplvm" in config.methods:
        t0 = time.perf_counter()
        with _stage("fit"):
            state, fit_report, Phat = fit_stage(
                Yc, pbar, lle, x0,
                gamma=config.gamma, max_iter=config.max_iter, tol=config.tol,
            )
            llgplvm_are = are(Y, reconstruct(state, Phat) + mean)
        with _stage("scale"):
            simplex, cstate, v_r = scale_stage(state, pbar.basis)
        with _stage("endmembers"):
            endm = endmembers_stage(
                cstate, v_r, Yc, mean, pbar.basis, Phat, config.mean_mode
            )
        with _stage("metrics"):
            results["fcll_gplvm"] = _score(
                scene, reconstruct(cstate, Phat) + mean, simplex.abundances, endm, t0
            )
            plot_data.update(
                latents=state.X[:, : R - 1],
                vertices=simplex.vertices,
                fit_trace=fit_report.trace,
            )

    if "vca_fcls" in config.methods:
        t0 = time.perf_counter()
        with _stage("baseline"):
            endm_vca = vca(scene.image, R, seed=config.baseline_seed)
            abund_vca = fcls(scene.image, endm_vca)
            recon = abund_vca.values @ endm_vca.spectra.T
            results["vca_fcls"] = _score(scene, recon, abund_vca, endm_vca, t0)

    return Report(
        methods=results,
        pca_are=pca_are,
        llgplvm_are=float(llgplvm_are),
        seed=recipe.seed,
        plot_data=plot_data,
        prep_wall_clock=prep_wall_clock,
        fit=fit_report,
    )


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def report_csv(report: Report, include_timing: bool = False) -> str:
    """Render the report as CSV.  Timing is excluded by default so that the
    bytes are reproducible for identical configs and seeds."""
    R = max((len(m.sam_per_endmember) for m in report.methods.values()), default=0)
    ncols = 3 + R + 1 + int(include_timing)

    def row(cells):
        cells = list(cells) + [""] * (ncols - len(cells))
        return ",".join(cells)

    header = ["method", "are", "rnmse"]
    header += [f"sam_{r + 1}" for r in range(R)]
    header += ["permutation"]
    if include_timing:
        header += ["wall_clock_s"]
    lines = [row(header)]
    lines.append(row(["pca_r_minus_1", _fmt(report.pca_are)]))
    if np.isfinite(report.llgplvm_are):
        lines.append(row(["ll_gplvm", _fmt(report.llgplvm_are)]))
    for name in sorted(report.methods):
        m = report.methods[name]
        cells = [name, _fmt(m.are), _fmt(m.rnmse)]
        cells += [_fmt(s) for s in m.sam_per_endmember]
        cells += ["|".join(str(p) for p in m.permutation)]
        if include_timing:
            cells += [f"{m.wall_clock:.3f}"]
        lines.append(row(cells))
    return "\n".join(lines) + "\n"


def timing_csv(report: Report) -> str:
    """One wall-clock row per method, after a ``prep`` row for the shared
    gen, center and reduce stages when the report measured them."""
    lines = ["method,wall_clock_s"]
    if report.prep_wall_clock is not None:
        lines.append(f"prep,{report.prep_wall_clock:.3f}")
    for name in sorted(report.methods):
        lines.append(f"{name},{report.methods[name].wall_clock:.3f}")
    return "\n".join(lines) + "\n"


def plot_data_csv(report: Report) -> str:
    """Flat CSV of the latent cloud, PCA scores, and simplex vertices."""
    lines = ["kind,index,c1,c2,c3"]

    def emit(kind, arr):
        arr = np.atleast_2d(np.asarray(arr, float))
        for i, row in enumerate(arr):
            cells = [_fmt(v) for v in row[:3]]
            cells += [""] * (3 - len(cells))
            lines.append(f"{kind},{i},{cells[0]},{cells[1]},{cells[2]}")

    for kind in ("pca_scores", "latents", "vertices"):
        if kind in report.plot_data:
            arr = report.plot_data[kind]
            emit(kind, arr.T if kind == "vertices" else arr)
    return "\n".join(lines) + "\n"

"""Command-line interface.

Each subcommand reads a stage directory and writes the next one, so the
pipeline can be driven end to end or stage by stage.  The computation of
each unmixing stage is the stage function in ``pipeline`` that
``run_pipeline`` also calls.  This module only knows the directory format,
and ``_StageDir`` holds it in one place: which files each stage reads, how
the PCA basis and a latent state are rebuilt from them, and which files
``fit`` and ``scale`` copy forward unread so that later stages are
self-contained.  Matrices travel in the package's binary format (see
core.save_matrix); recipes and stage metadata are flat key=value text
files.
"""
from __future__ import annotations

import argparse
import shutil
import sys
from functools import cached_property
from importlib import resources
from itertools import chain
from pathlib import Path

import numpy as np

from . import pipeline as pl
from .baselines import fcls, vca
from .core import HyperImage, center, load_matrix, save_matrix
from .embed import LleWeights, PcaBasis
from .gpregress import confidence95
from .model import LatentState
from .scene import DEFAULT_GBM_GAMMA, generate_scene, recipe_from_kv, recipe_to_kv

# unused here; bench/spans.py patches these names in this module as well
from .embed import init_latents, lle_weights, pca_basis  # noqa: F401
from .gpregress import GpPredictor, extract_endmembers  # noqa: F401
from .model import latent_noise_scale, map_P, scg_optimize  # noqa: F401
from .scaling import fit_min_volume_simplex  # noqa: F401


def _write_kv(path: Path, values: dict) -> None:
    with open(path, "w") as fh:
        for k, v in values.items():
            fh.write(f"{k}={v}\n")


def _read_kv(path: Path) -> dict:
    return pl.parse_kv(path.read_text())


def _save(out: Path, **matrices) -> None:
    """Write each keyword's matrix to ``<keyword>.nlm`` in ``out``."""
    for name, m in matrices.items():
        save_matrix(m, out / f"{name}.nlm")


class _StageDir:
    """The input directory of one stage command (``args.indir``), with the
    command's output directory ``out`` created.  Inputs are read when asked
    for; ``meta.txt`` once, on first use."""

    # what each stage copies forward unread (besides meta.txt): the reduce
    # stage's context, and from scale on also the fitted U, s2, sigma2 and P-hat
    CONTEXT = ("yc.nlm", "pbar.nlm", "eigenvalues.nlm", "mean.nlm")
    CARRIED = {"fit": CONTEXT, "scale": CONTEXT + ("uhat.nlm", "s2.nlm", "sigma2.nlm", "phat.nlm")}

    def __init__(self, args):
        self.path, self.stage = Path(args.indir), args.command
        self.out = Path(args.out)
        self.out.mkdir(parents=True, exist_ok=True)

    @cached_property
    def meta(self) -> dict:
        return _read_kv(self.path / "meta.txt")

    def matrix(self, name: str) -> np.ndarray:
        """``<name>.nlm``, read-only, so that the image and model containers
        it goes into share it instead of copying it."""
        m = load_matrix(self.path / f"{name}.nlm")
        m.flags.writeable = False
        return m

    def pbar(self) -> PcaBasis:
        """The PCA basis in the layout ``reduce_stage`` returns it
        (``PcaBasis`` stores it Fortran-ordered), so the stages round
        exactly as they do in ``run_pipeline``."""
        return PcaBasis(
            basis=self.matrix("pbar"),
            eigenvalues=self.matrix("eigenvalues").ravel(),
            residual_variance=float(self.meta["residual_variance"]),
        )

    def lle(self, n: int) -> LleWeights:
        return _load_lambda_csv(self.path / "lambda.csv", n, int(self.meta["k"]))

    def state(self, x_name: str) -> LatentState:
        """The latents in ``<x_name>.nlm`` with the fitted U, s2 and sigma2."""
        return LatentState(
            X=self.matrix(x_name),
            U=self.matrix("uhat"),
            s2=float(self.matrix("s2")[0, 0]),
            sigma2=float(self.matrix("sigma2")[0, 0]),
        )

    def forward(self, **meta) -> None:
        """Copy the stage's carried files to ``out`` without loading them,
        and write its ``meta.txt``: this directory's, updated by ``meta``."""
        for name in self.CARRIED[self.stage]:
            shutil.copyfile(self.path / name, self.out / name)
        _write_kv(self.out / "meta.txt", dict(self.meta, **meta))


def cmd_gen(args) -> None:
    recipe = recipe_from_kv({
        "model": args.model, "r": args.r, "l": args.l, "n": args.n, "sigma2": args.sigma2,
        "seed": args.seed, "amax": args.amax, "gbm_gamma": args.gbm_gamma,
    })
    scene = generate_scene(recipe)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _save(out, image=scene.image.pixels, abundances=scene.abundances.values,
          endmembers=scene.endmembers.spectra)
    _write_kv(out / "recipe.txt", recipe_to_kv(recipe))
    print(f"wrote scene ({recipe.N}x{recipe.L}, model={recipe.model}) to {out}")


def _save_lambda_csv(path: Path, lle: LleWeights) -> None:
    n, k = lle.neighbors.shape
    cells = zip(
        np.repeat(np.arange(n), k).tolist(),
        lle.neighbors.ravel().tolist(),
        lle.weights.ravel().tolist(),
    )
    with open(path, "w") as fh:
        fh.write("i,j,weight\n")
        # one %-format over all rows; %.17g prints as format(w, ".17g")
        fh.write(("%d,%d,%.17g\n" * (n * k)) % tuple(chain.from_iterable(cells)))


def _load_lambda_csv(path: Path, n: int, k: int) -> LleWeights:
    """Weights written by ``_save_lambda_csv``; each pixel's rows may come
    in any order relative to other pixels' and keep their own order."""
    try:
        rows = np.loadtxt(
            path, delimiter=",", skiprows=1, ndmin=1,
            dtype=[("i", np.int64), ("j", np.int64), ("w", float)],
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    for name, what in (("i", "pixel"), ("j", "neighbour")):
        bad = rows[name][(rows[name] < 0) | (rows[name] >= n)]
        if bad.size:
            raise ValueError(f"{path}: {what} index {bad[0]} outside [0, {n})")
    counts = np.bincount(rows["i"], minlength=n)
    if np.any(counts != k):
        pixel = int(np.argmax(counts != k))
        raise ValueError(
            f"{path}: pixel {pixel} has {counts[pixel]} weights, expected exactly {k}"
        )
    rows = rows[np.argsort(rows["i"], kind="stable")]
    return LleWeights(neighbors=rows["j"].reshape(n, k), weights=rows["w"].reshape(n, k))


def cmd_reduce(args) -> None:
    d = _StageDir(args)
    recipe_path = d.path / "recipe.txt"
    if args.r is not None:
        R = args.r
    elif recipe_path.exists():
        R = int(_read_kv(recipe_path)["r"])
    else:
        raise ValueError("pass --r when the input has no recipe.txt")
    k = args.k if args.k is not None else R
    # the raw image is not kept: it is freed once the centered copy exists
    centered, mean = center(HyperImage(d.matrix("image")))
    pbar, lle, x0 = pl.reduce_stage(centered.pixels, R, k)
    _save(d.out, pbar=pbar.basis, eigenvalues=pbar.eigenvalues.reshape(-1, 1),
          yc=centered.pixels, mean=mean.reshape(-1, 1), x0=x0)
    _save_lambda_csv(d.out / "lambda.csv", lle)
    _write_kv(
        d.out / "meta.txt",
        {"r": R, "k": k, "residual_variance": format(pbar.residual_variance, ".17g")},
    )
    print(f"wrote basis, weights, and starting latents to {d.out}")


def cmd_fit(args) -> None:
    d = _StageDir(args)
    Yc = d.matrix("yc")
    state, report, phat = pl.fit_stage(
        Yc, d.pbar(), d.lle(Yc.shape[0]), d.matrix("x0"),
        gamma=args.gamma, max_iter=args.max_iter, tol=args.tol,
    )
    _save(d.out, xhat=state.X, uhat=state.U, s2=[[state.s2]], sigma2=[[state.sigma2]],
          phat=phat)
    with open(d.out / "trace.csv", "w") as fh:
        fh.write("iteration,neg_log_posterior\n")
        for i, v in enumerate(report.trace):
            fh.write(f"{i},{format(v, '.17g')}\n")
    d.forward(
        gamma=format(args.gamma, ".17g"),
        converged=report.converged,
        iterations=report.iterations,
        grad_norm=format(report.grad_norm, ".17g"),
    )
    print(
        f"fit finished: {report.iterations} iterations, converged={report.converged}, "
        f"objective {report.trace[-1]:.6g}"
    )


def cmd_scale(args) -> None:
    d = _StageDir(args)
    fit, cstate, v_r = pl.scale_stage(d.state("xhat"), d.pbar().basis, rigid=args.rigid)
    _save(d.out, abundances=fit.abundances.values, v_r_minus1=fit.vertices, v_r=v_r,
          xc=cstate.X)
    d.forward()
    print(f"wrote abundances and vertex maps (volume {fit.volume:.6g}) to {d.out}")


def cmd_endmembers(args) -> None:
    d = _StageDir(args)
    endm = pl.endmembers_stage(
        d.state("xc"), d.matrix("v_r"), Yc=d.matrix("yc"), mean=d.matrix("mean").ravel(),
        basis=d.pbar().basis, phat=d.matrix("phat"), mean_mode=args.mean_mode,
    )
    B, R = endm.spectra.shape
    lo, hi = confidence95(endm)
    save_matrix(endm.spectra, d.out / "endmembers.nlm")
    # per band: mean, variance, and the 95% band of each endmember in turn
    cells = np.stack([endm.spectra, endm.band_variance, lo, hi], axis=2).reshape(B, 4 * R)
    row = "%d" + ",%.17g" * (4 * R) + "\n"  # %.17g prints as format(v, ".17g")
    with open(d.out / "endmembers.csv", "w") as fh:
        fh.write(",".join(["band"] + [f"{c}_{r + 1}" for r in range(R)
                                      for c in ("mean", "var", "lo95", "hi95")]) + "\n")
        fh.writelines(row % (b, *values) for b, values in enumerate(cells.tolist()))
    print(f"wrote {R} endmember spectra with confidence bands to {d.out}")


def cmd_baseline(args) -> None:
    d = _StageDir(args)
    img = HyperImage(d.matrix("image"))
    endm = vca(img, args.r, seed=args.seed)
    _save(d.out, vca_endmembers=endm.spectra, fcls_abundances=fcls(img, endm).values)
    print(f"wrote VCA endmembers and FCLS abundances to {d.out}")


def _resolve_config(path_arg: str) -> str:
    p = Path(path_arg)
    if p.exists():
        return p.read_text()
    builtin = resources.files("nlunmix").joinpath("configs", path_arg)
    if builtin.is_file():
        return builtin.read_text()
    raise FileNotFoundError(
        f"no config file {path_arg!r} (and no shipped config of that name)"
    )


def cmd_pipeline(args) -> None:
    text = _resolve_config(args.config)
    config, outdir = pl.parse_config(text)
    if args.out:
        outdir = args.out
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    report = pl.run_pipeline(config)
    (out / "report.csv").write_text(pl.report_csv(report))
    (out / "timing.csv").write_text(pl.timing_csv(report))
    (out / "plot_data.csv").write_text(pl.plot_data_csv(report))
    print(pl.report_csv(report, include_timing=True), end="")
    print(f"wrote report.csv, timing.csv, plot_data.csv to {out}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlunmix",
        description="Unsupervised nonlinear spectral unmixing toolbox",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic scene")
    p.add_argument("--model", choices=("lmm", "fm", "gbm"), required=True)
    p.add_argument("--n", type=int, default=2500)
    p.add_argument("--r", type=int, default=3)
    p.add_argument("--l", type=int, default=160)
    p.add_argument("--sigma2", type=float, default=1e-4)
    p.add_argument("--amax", type=float, default=1.0)
    p.add_argument("--gbm-gamma", default=None, help="GBM pair coefficients, comma-separated "
                   f"(default: {','.join(map(str, DEFAULT_GBM_GAMMA))})")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("reduce", help="center, PCA basis, LLE weights, latent init")
    p.add_argument("--in", dest="indir", required=True)
    p.add_argument("--r", type=int, default=None, help="endmember count (default: recipe.txt)")
    p.add_argument("--k", type=int, default=None, help="LLE neighbors (default: R)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("fit", help="maximize the latent posterior")
    p.add_argument("--in", dest="indir", required=True)
    p.add_argument("--gamma", type=float, default=1e3)
    p.add_argument("--max-iter", type=int, default=2000)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("scale", help="minimum-volume simplex scaling")
    p.add_argument("--in", dest="indir", required=True)
    p.add_argument(
        "--rigid",
        action="store_true",
        help="skip the noise-adaptive containment refinement",
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_scale)

    p = sub.add_parser("endmembers", help="GP endmember extraction")
    p.add_argument("--in", dest="indir", required=True)
    p.add_argument("--mean-mode", choices=pl.MEAN_MODES, default="pca")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_endmembers)

    p = sub.add_parser("baseline", help="VCA + FCLS linear baseline")
    p.add_argument("--in", dest="indir", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("pipeline", help="full benchmark run from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="override the config's out dir")
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except pl.PipelineError as exc:
        print(f"nlunmix: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - single CLI boundary
        stage = getattr(args, "command", "cli")
        print(f"nlunmix: [stage: {stage}] {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

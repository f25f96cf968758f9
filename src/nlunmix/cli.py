"""Command-line interface.

Each subcommand reads a stage directory and writes the next one, so the
pipeline can be driven end to end or stage by stage.  The computation of
each unmixing stage is the stage function in ``pipeline`` that
``run_pipeline`` also calls; this module only knows the directory format.
Matrices travel in the package's binary format (see core.save_matrix);
recipes and stage metadata are flat key=value text files.
"""
from __future__ import annotations

import argparse
import shutil
import sys
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
from .scene import DEFAULT_GBM_GAMMA, SceneRecipe, gamma_matrix, generate_scene

# unused here; bench/spans.py patches these names in this module as well
from .embed import init_latents, lle_weights, pca_basis  # noqa: F401
from .gpregress import GpPredictor, extract_endmembers  # noqa: F401
from .model import latent_noise_scale, map_P, scg_optimize  # noqa: F401
from .scaling import fit_min_volume_simplex  # noqa: F401

# the reduce stage's context, which fit and scale copy forward
_CONTEXT_FILES = ("yc.nlm", "pbar.nlm", "eigenvalues.nlm", "mean.nlm")


def _write_kv(path: Path, values: dict) -> None:
    with open(path, "w") as fh:
        for k, v in values.items():
            fh.write(f"{k}={v}\n")


def _read_kv(path: Path) -> dict:
    return pl.parse_kv(path.read_text())


def _dirs(args) -> tuple[Path, Path]:
    """The stage's input directory and its output directory, created."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return Path(args.indir), out


def _carry(indir: Path, out: Path, names) -> None:
    """Copy files forward so later stages are self-contained."""
    for name in names:
        shutil.copyfile(indir / name, out / name)


def _load_readonly(path: Path) -> np.ndarray:
    """A stage file's matrix, read-only, so that the image and model
    containers it goes into share it instead of copying it."""
    m = load_matrix(path)
    m.flags.writeable = False
    return m


def _recipe_to_kv(recipe: SceneRecipe) -> dict:
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
        pairs = []
        R = recipe.R
        for i in range(R):
            for j in range(i + 1, R):
                pairs.append(format(recipe.gamma[i, j], ".17g"))
        kv["gbm_gamma"] = ",".join(pairs)
    return kv


def cmd_gen(args) -> None:
    gamma = None
    if args.model == "gbm":
        gamma = gamma_matrix(args.r, [float(v) for v in args.gbm_gamma.split(",")])
    recipe = SceneRecipe(
        model=args.model,
        R=args.r,
        L=args.l,
        N=args.n,
        sigma2=args.sigma2,
        seed=args.seed,
        amax=args.amax,
        gamma=gamma,
    )
    scene = generate_scene(recipe)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_matrix(scene.image.pixels, out / "image.nlm")
    save_matrix(scene.abundances.values, out / "abundances.nlm")
    save_matrix(scene.endmembers.spectra, out / "endmembers.nlm")
    _write_kv(out / "recipe.txt", _recipe_to_kv(recipe))
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
    indir, out = _dirs(args)
    recipe_path = indir / "recipe.txt"
    if args.r is not None:
        R = args.r
    elif recipe_path.exists():
        R = int(_read_kv(recipe_path)["r"])
    else:
        raise ValueError("pass --r when the input has no recipe.txt")
    k = args.k if args.k is not None else R
    # the raw image is not kept: it is freed once the centered copy exists
    centered, mean = center(HyperImage(_load_readonly(indir / "image.nlm")))
    pbar, lle, x0 = pl.reduce_stage(centered.pixels, R, k)
    save_matrix(pbar.basis, out / "pbar.nlm")
    save_matrix(pbar.eigenvalues.reshape(-1, 1), out / "eigenvalues.nlm")
    save_matrix(centered.pixels, out / "yc.nlm")
    save_matrix(mean.reshape(-1, 1), out / "mean.nlm")
    save_matrix(x0, out / "x0.nlm")
    _save_lambda_csv(out / "lambda.csv", lle)
    _write_kv(
        out / "meta.txt",
        {
            "r": R,
            "k": k,
            "residual_variance": format(pbar.residual_variance, ".17g"),
        },
    )
    print(f"wrote basis, weights, and starting latents to {out}")


def _load_state(indir: Path, x_name: str) -> LatentState:
    return LatentState(
        X=load_matrix(indir / x_name),
        U=load_matrix(indir / "uhat.nlm"),
        s2=float(load_matrix(indir / "s2.nlm")[0, 0]),
        sigma2=float(load_matrix(indir / "sigma2.nlm")[0, 0]),
    )


def _load_pbar(indir: Path, meta: dict) -> PcaBasis:
    """The PCA basis of a stage directory, in the layout ``reduce_stage``
    returns it (``PcaBasis`` stores it Fortran-ordered), so the stages
    round exactly as they do in ``run_pipeline``."""
    return PcaBasis(
        basis=load_matrix(indir / "pbar.nlm"),
        eigenvalues=load_matrix(indir / "eigenvalues.nlm").ravel(),
        residual_variance=float(meta["residual_variance"]),
    )


def cmd_fit(args) -> None:
    indir, out = _dirs(args)
    meta = _read_kv(indir / "meta.txt")
    Yc = _load_readonly(indir / "yc.nlm")
    pbar = _load_pbar(indir, meta)
    lle = _load_lambda_csv(indir / "lambda.csv", Yc.shape[0], int(meta["k"]))
    state, report, phat = pl.fit_stage(
        Yc, pbar, lle, load_matrix(indir / "x0.nlm"),
        gamma=args.gamma, max_iter=args.max_iter, tol=args.tol,
    )
    save_matrix(state.X, out / "xhat.nlm")
    save_matrix(state.U, out / "uhat.nlm")
    save_matrix(np.array([[state.s2]]), out / "s2.nlm")
    save_matrix(np.array([[state.sigma2]]), out / "sigma2.nlm")
    save_matrix(phat, out / "phat.nlm")
    with open(out / "trace.csv", "w") as fh:
        fh.write("iteration,neg_log_posterior\n")
        for i, v in enumerate(report.trace):
            fh.write(f"{i},{format(v, '.17g')}\n")
    _carry(indir, out, _CONTEXT_FILES)
    _write_kv(
        out / "meta.txt",
        dict(
            meta,
            gamma=format(args.gamma, ".17g"),
            converged=report.converged,
            iterations=report.iterations,
            grad_norm=format(report.grad_norm, ".17g"),
        ),
    )
    print(
        f"fit finished: {report.iterations} iterations, converged={report.converged}, "
        f"objective {report.trace[-1]:.6g}"
    )


def cmd_scale(args) -> None:
    indir, out = _dirs(args)
    meta = _read_kv(indir / "meta.txt")
    fit, cstate, v_r = pl.scale_stage(
        _load_state(indir, "xhat.nlm"), _load_pbar(indir, meta).basis, rigid=args.rigid
    )
    save_matrix(fit.abundances.values, out / "abundances.nlm")
    save_matrix(fit.vertices, out / "v_r_minus1.nlm")
    save_matrix(v_r, out / "v_r.nlm")
    save_matrix(cstate.X, out / "xc.nlm")
    _carry(indir, out, _CONTEXT_FILES + ("uhat.nlm", "s2.nlm", "sigma2.nlm", "phat.nlm"))
    _write_kv(out / "meta.txt", meta)
    print(f"wrote abundances and vertex maps (volume {fit.volume:.6g}) to {out}")


def cmd_endmembers(args) -> None:
    indir, out = _dirs(args)
    endm = pl.endmembers_stage(
        _load_state(indir, "xc.nlm"),
        load_matrix(indir / "v_r.nlm"),
        Yc=load_matrix(indir / "yc.nlm"),
        mean=load_matrix(indir / "mean.nlm").ravel(),
        basis=_load_pbar(indir, _read_kv(indir / "meta.txt")).basis,
        phat=load_matrix(indir / "phat.nlm"),
        mean_mode=args.mean_mode,
    )
    R = endm.n_endmembers
    lo, hi = confidence95(endm)
    save_matrix(endm.spectra, out / "endmembers.nlm")
    with open(out / "endmembers.csv", "w") as fh:
        cols = ["band"]
        for r in range(R):
            cols += [f"mean_{r + 1}", f"var_{r + 1}", f"lo95_{r + 1}", f"hi95_{r + 1}"]
        fh.write(",".join(cols) + "\n")
        for b in range(endm.spectra.shape[0]):
            cells = [str(b)]
            for r in range(R):
                cells += [
                    format(endm.spectra[b, r], ".17g"),
                    format(endm.band_variance[b, r], ".17g"),
                    format(lo[b, r], ".17g"),
                    format(hi[b, r], ".17g"),
                ]
            fh.write(",".join(cells) + "\n")
    print(f"wrote {R} endmember spectra with confidence bands to {out}")


def cmd_baseline(args) -> None:
    indir, out = _dirs(args)
    img = HyperImage(_load_readonly(indir / "image.nlm"))
    endm = vca(img, args.r, seed=args.seed)
    abund = fcls(img, endm)
    save_matrix(endm.spectra, out / "vca_endmembers.nlm")
    save_matrix(abund.values, out / "fcls_abundances.nlm")
    print(f"wrote VCA endmembers and FCLS abundances to {out}")


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
    p.add_argument("--gbm-gamma", default=",".join(str(g) for g in DEFAULT_GBM_GAMMA))
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

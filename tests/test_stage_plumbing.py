"""The plumbing around the stage functions: the files each CLI stage
directory holds, the ``recipe.txt`` codec, and what ``run_pipeline`` lets
through its stage tags."""
import numpy as np
import pytest

import nlunmix.pipeline as pl
from nlunmix.cli import main
from nlunmix.core import load_matrix
from nlunmix.gpregress import confidence95
from nlunmix.model import LatentState
from nlunmix.pipeline import ExperimentConfig, endmembers_stage, parse_config, run_pipeline
from nlunmix.scene import SceneRecipe, gamma_matrix


def run(argv):
    return main([str(a) for a in argv])


# README "Stage directories": what each stage writes, and what fit and
# scale copy forward unread
SCENE = {"image.nlm", "abundances.nlm", "endmembers.nlm", "recipe.txt"}
CONTEXT = {"yc.nlm", "pbar.nlm", "eigenvalues.nlm", "mean.nlm", "meta.txt"}
REDUCE = CONTEXT | {"lambda.csv", "x0.nlm"}
FIT = CONTEXT | {"xhat.nlm", "uhat.nlm", "s2.nlm", "sigma2.nlm", "phat.nlm", "trace.csv"}
SCALE = CONTEXT | {"uhat.nlm", "s2.nlm", "sigma2.nlm", "phat.nlm",
                   "abundances.nlm", "v_r_minus1.nlm", "v_r.nlm", "xc.nlm"}
ENDMEMBERS = {"endmembers.csv", "endmembers.nlm"}
BASELINE = {"vca_endmembers.nlm", "fcls_abundances.nlm"}


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """The scene and stage arguments of tests/test_cli.py; each output
    directory with the files README says it holds."""
    d = tmp_path_factory.mktemp("chain")
    steps = [
        ("scene", SCENE, ["gen", "--model", "gbm", "--n", 150, "--r", 3, "--l", 24,
                          "--sigma2", 1e-4, "--amax", 0.9, "--seed", 7]),
        ("reduce", REDUCE, ["reduce", "--in", d / "scene", "--k", 3]),
        ("fit", FIT, ["fit", "--in", d / "reduce", "--gamma", 1e3, "--max-iter", 500,
                      "--tol", 1e-9]),
        ("scale", SCALE, ["scale", "--in", d / "fit"]),
        ("scale_rigid", SCALE, ["scale", "--in", d / "fit", "--rigid"]),
        ("endm_pca", ENDMEMBERS, ["endmembers", "--in", d / "scale"]),
        ("endm_map", ENDMEMBERS, ["endmembers", "--in", d / "scale_rigid", "--mean-mode", "map"]),
        ("baseline", BASELINE, ["baseline", "--in", d / "scene", "--r", 3]),
    ]
    for name, _, argv in steps:
        assert run(argv + ["--out", d / name]) == 0, name
    return d, {name: files for name, files, _ in steps}


def test_stage_directories_hold_exactly_the_documented_files(chain):
    d, layout = chain
    for name, files in layout.items():
        assert {p.name for p in (d / name).iterdir()} == files, name


@pytest.mark.parametrize("scale, mode", [("scale", "pca"), ("scale_rigid", "map")])
def test_endmembers_csv_bytes(chain, scale, mode):
    # the per-cell writer the one-format-per-row writer replaced, as the
    # byte reference, fed by the stage function on the same inputs
    d = chain[0] / scale
    load = lambda name: load_matrix(d / f"{name}.nlm")  # noqa: E731
    state = LatentState(X=load("xc"), U=load("uhat"), s2=float(load("s2")[0, 0]),
                        sigma2=float(load("sigma2")[0, 0]))
    basis = np.asfortranarray(load("pbar"))
    endm = endmembers_stage(state, load("v_r"), load("yc"), load("mean").ravel(), basis,
                            load("phat"), mode)
    lo, hi = confidence95(endm)
    R = endm.n_endmembers
    cols = ["band"]
    for r in range(R):
        cols += [f"mean_{r + 1}", f"var_{r + 1}", f"lo95_{r + 1}", f"hi95_{r + 1}"]
    lines = [",".join(cols) + "\n"]
    for b in range(endm.spectra.shape[0]):
        cells = [str(b)]
        for r in range(R):
            cells += [format(m[b, r], ".17g") for m in (endm.spectra, endm.band_variance, lo, hi)]
        lines.append(",".join(cells) + "\n")
    written = chain[0] / f"endm_{mode}" / "endmembers.csv"
    assert written.read_text() == "".join(lines)


def test_fit_meta_extends_the_reduce_meta(tmp_path):
    d = tmp_path
    for argv in (
        ["gen", "--model", "lmm", "--n", 60, "--r", 3, "--l", 12, "--seed", 1, "--out", d / "scene"],
        ["reduce", "--in", d / "scene", "--out", d / "reduce"],
        ["fit", "--in", d / "reduce", "--max-iter", 5, "--out", d / "fit"],
        ["scale", "--in", d / "fit", "--out", d / "scale"],
    ):
        assert run(argv) == 0, argv[0]
    reduce_meta = (d / "reduce" / "meta.txt").read_text()
    fit_meta = (d / "fit" / "meta.txt").read_text()
    assert fit_meta.startswith(reduce_meta)
    added = [line.split("=")[0] for line in fit_meta[len(reduce_meta):].splitlines()]
    assert added == ["gamma", "converged", "iterations", "grad_norm"]
    assert (d / "scale" / "meta.txt").read_text() == fit_meta


def _same_recipe(a: SceneRecipe, b: SceneRecipe) -> bool:
    fields = ("model", "R", "L", "N", "sigma2", "seed", "amax")
    if any(getattr(a, f) != getattr(b, f) for f in fields):
        return False
    if a.gamma is None or b.gamma is None:
        return a.gamma is None and b.gamma is None
    return np.array_equal(a.gamma, b.gamma)


@pytest.mark.parametrize(
    "model, R, coeffs",
    [("lmm", 3, None), ("fm", 3, None), ("gbm", 3, None),
     ("gbm", 4, [0.1, 0.2, 0.3, 0.4, 0.5, 0.6])],
    ids=["lmm", "fm", "gbm", "gbm-r4"],
)
def test_gen_recipe_parses_back_to_the_same_recipe(tmp_path, model, R, coeffs):
    argv = ["gen", "--model", model, "--r", R, "--l", 12, "--n", 30, "--sigma2", 2.5e-4,
            "--amax", 0.8, "--seed", 9, "--out", tmp_path]
    if coeffs is not None:
        argv += ["--gbm-gamma", ",".join(map(str, coeffs))]
    assert run(argv) == 0
    gamma = None
    if model == "gbm":
        gamma = gamma_matrix(R, coeffs if coeffs is not None else [0.9, 0.5, 0.3])
    want = SceneRecipe(model=model, R=R, L=12, N=30, sigma2=2.5e-4, seed=9, amax=0.8,
                       gamma=gamma)
    config, _ = parse_config((tmp_path / "recipe.txt").read_text())
    assert _same_recipe(config.recipe, want)


def test_recipe_txt_bytes(tmp_path):
    # bench/run.py reads sigma2 back from this file
    assert run(["gen", "--model", "gbm", "--r", 4, "--l", 12, "--n", 30, "--sigma2", 1e-4,
                "--gbm-gamma", "0.1,0.2,0.3,0.4,0.5,0.6", "--seed", 2, "--out", tmp_path]) == 0
    assert (tmp_path / "recipe.txt").read_text() == (
        "model=gbm\nr=4\nl=12\nn=30\nsigma2=0.0001\namax=1\nseed=2\n"
        "gbm_gamma=0.10000000000000001,0.20000000000000001,0.29999999999999999,"
        "0.40000000000000002,0.5,0.59999999999999998\n"
    )


def test_gbm_gen_at_r4_needs_coefficients(tmp_path, capsys):
    assert run(["gen", "--model", "gbm", "--r", 4, "--l", 12, "--n", 30, "--seed", 2,
                "--out", tmp_path]) == 1
    assert "expected 6 coefficients, got 3" in capsys.readouterr().err


def test_keyboard_interrupt_is_not_a_stage_failure(monkeypatch, tmp_path):
    interrupt = KeyboardInterrupt()

    def interrupted(*args, **kwargs):
        raise interrupt

    monkeypatch.setattr(pl, "scg_optimize", interrupted)
    config = ExperimentConfig(
        recipe=SceneRecipe(model="lmm", R=3, L=12, N=40, sigma2=1e-4, seed=1), max_iter=5
    )
    with pytest.raises(KeyboardInterrupt) as exc:
        run_pipeline(config)
    assert exc.value is interrupt
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"model=lmm\nr=3\nl=12\nn=40\nsigma2=1e-4\nseed=1\nout={tmp_path}\n")
    with pytest.raises(KeyboardInterrupt) as exc:
        run(["pipeline", "--config", cfg])
    assert exc.value is interrupt

"""Each unmixing stage is written once in ``pipeline``: the CLI stage
commands and ``run_pipeline`` give the same results on the same scene, and
configs, recipes and stage metadata share one ``key=value`` reader."""
import re
import shutil

import numpy as np
import pytest

from nlunmix.cli import _load_lambda_csv, main
from nlunmix.core import load_matrix
from nlunmix.embed import lle_weights
from nlunmix.metrics import rnmse, sam
from nlunmix.pipeline import (
    ExperimentConfig,
    endmembers_stage,
    parse_config,
    parse_kv,
    run_pipeline,
)
from nlunmix.scene import SceneRecipe, gamma_matrix

N, L, R, SEED = 120, 20, 3, 4
GAMMA, MAX_ITER, TOL = 1e3, 300, 1e-9


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def cli_chain(tmp_path_factory):
    """gen -> reduce -> fit -> scale -> endmembers (both mean modes)."""
    d = tmp_path_factory.mktemp("chain")
    for argv in (
        ["gen", "--model", "gbm", "--n", N, "--r", R, "--l", L, "--sigma2", 1e-4,
         "--amax", 0.9, "--gbm-gamma", "0.9,0.5,0.3", "--seed", SEED, "--out", d / "scene"],
        ["reduce", "--in", d / "scene", "--k", R, "--out", d / "reduce"],
        ["fit", "--in", d / "reduce", "--gamma", GAMMA, "--max-iter", MAX_ITER,
         "--tol", TOL, "--out", d / "fit"],
        ["scale", "--in", d / "fit", "--out", d / "scale"],
        ["endmembers", "--in", d / "scale", "--mean-mode", "pca", "--out", d / "endm_pca"],
        ["endmembers", "--in", d / "scale", "--mean-mode", "map", "--out", d / "endm_map"],
    ):
        assert run(argv) == 0, argv[0]
    return d


@pytest.mark.parametrize("mean_mode", ["pca", "map"])
def test_cli_chain_matches_run_pipeline(cli_chain, mean_mode):
    recipe = SceneRecipe(model="gbm", R=R, L=L, N=N, sigma2=1e-4, seed=SEED, amax=0.9,
                         gamma=gamma_matrix(R, [0.9, 0.5, 0.3]))
    report = run_pipeline(ExperimentConfig(
        recipe=recipe, gamma=GAMMA, k=R, max_iter=MAX_ITER, tol=TOL,
        methods=("fcll_gplvm",), mean_mode=mean_mode,
    ))
    d = cli_chain
    assert np.array_equal(report.plot_data["latents"], load_matrix(d / "fit" / "xhat.nlm")[:, : R - 1])
    assert np.array_equal(report.plot_data["vertices"], load_matrix(d / "scale" / "v_r_minus1.nlm"))

    m = report.methods["fcll_gplvm"]
    perm = list(m.permutation)
    A_true = load_matrix(d / "scene" / "abundances.nlm")
    assert rnmse(A_true, load_matrix(d / "scale" / "abundances.nlm")[:, perm]) == m.rnmse
    # the stage commands load pbar.nlm in the in-memory (Fortran) layout, so
    # the GP's sums round exactly as in run_pipeline
    M_true = load_matrix(d / "scene" / "endmembers.nlm")
    M_cli = load_matrix(d / f"endm_{mean_mode}" / "endmembers.nlm")
    sams = [sam(M_true[:, r], M_cli[:, p]) for r, p in enumerate(perm)]
    assert sams == list(m.sam_per_endmember)


def test_bad_meta_line_fails_with_stage_and_line(cli_chain, tmp_path, capsys):
    bad = tmp_path / "reduce"
    shutil.copytree(cli_chain / "reduce", bad)
    meta = (bad / "meta.txt").read_text().splitlines()
    assert meta[1] == f"k={R}"
    meta[1] = f"k {R}"
    (bad / "meta.txt").write_text("\n".join(meta) + "\n")
    assert run(["fit", "--in", bad, "--max-iter", 5, "--out", tmp_path / "fit"]) == 1
    err = capsys.readouterr().err
    assert "[stage: fit]" in err and "line 2" in err


def test_lambda_csv_bytes_and_round_trip(cli_chain):
    # the per-weight writer the array codec replaced, as the byte reference
    lle = lle_weights(load_matrix(cli_chain / "reduce" / "yc.nlm"), K=R)
    lines = ["i,j,weight\n"]
    for i in range(lle.n_pixels):
        for j, w in zip(lle.neighbors[i], lle.weights[i]):
            lines.append(f"{i},{j},{format(w, '.17g')}\n")
    path = cli_chain / "reduce" / "lambda.csv"
    assert path.read_text() == "".join(lines)
    back = _load_lambda_csv(path, N, R)
    assert np.array_equal(back.neighbors, lle.neighbors)
    assert np.array_equal(back.weights, lle.weights)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda rows: rows + [f"{N},0,0.5"], f"pixel index {N} outside \\[0, {N}\\)"),
        (lambda rows: ["0,-1,0.5"] + rows[1:], f"neighbour index -1 outside \\[0, {N}\\)"),
        (lambda rows: rows[:-1], f"pixel {N - 1} has {R - 1} weights, expected exactly {R}"),
        (lambda rows: ["0,1"] + rows[1:], "columns"),
    ],
    ids=["pixel-index", "neighbour-index", "missing-row", "short-row"],
)
def test_bad_lambda_csv_fails_with_stage_and_file(cli_chain, tmp_path, capsys, edit, message):
    bad = tmp_path / "reduce"
    shutil.copytree(cli_chain / "reduce", bad)
    header, *rows = (bad / "lambda.csv").read_text().splitlines()
    (bad / "lambda.csv").write_text("\n".join([header] + edit(rows)) + "\n")
    assert run(["fit", "--in", bad, "--max-iter", 5, "--out", tmp_path / "fit"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"nlunmix: [stage: fit] {bad / 'lambda.csv'}: ")
    assert re.search(message, err), err


class TestParseKv:
    def test_comments_blanks_and_repeats(self):
        text = "# comment\n\n  a = 1 \nb=x=y\na=2\n"
        assert parse_kv(text) == {"a": "2", "b": "x=y"}

    def test_line_without_equals_names_its_line(self):
        with pytest.raises(ValueError, match="line 3: expected key=value, got 'k 3'"):
            parse_kv("r=3\n\nk 3\n")


class TestMeanMode:
    BASE = "model=lmm\nr=3\nl=12\nn=20\nsigma2=1e-4\nseed=1\n"

    def test_config_accepts_known_modes(self):
        for mode in ("pca", "map"):
            assert parse_config(self.BASE + f"mean_mode={mode}\n")[0].mean_mode == mode

    def test_config_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mean_mode"):
            parse_config(self.BASE + "mean_mode=mpa\n")

    def test_stage_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mean_mode"):
            endmembers_stage(None, None, None, None, None, None, mean_mode="bogus")


def test_gbm_config_without_gamma_gets_the_gen_default(tmp_path):
    # a config and `nlunmix gen` build the same GBM recipe when neither
    # names the interaction coefficients
    config, _ = parse_config("model=gbm\nr=3\nl=12\nn=20\nsigma2=1e-4\nseed=1")
    assert run(["gen", "--model", "gbm", "--r", 3, "--l", 12, "--n", 20,
                "--sigma2", 1e-4, "--seed", 1, "--out", tmp_path]) == 0
    written = parse_kv((tmp_path / "recipe.txt").read_text())["gbm_gamma"]
    want = gamma_matrix(3, [float(v) for v in written.split(",")])
    assert np.array_equal(config.recipe.gamma, want)
    assert np.any(want != 0.0)

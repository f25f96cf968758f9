"""The benchmark's output checks pass on real outputs and fail on corrupted
ones, at a scene small enough to fit in a second."""
import numpy as np
import pytest

import nlunmix as nx
import oracles as o
from nlunmix.cli import main as cli_main


@pytest.fixture(scope="module")
def fitted():
    recipe = nx.SceneRecipe(model="gbm", R=3, L=24, N=120, sigma2=1e-4, seed=7, amax=0.9,
                            gamma=nx.gamma_matrix(3, [0.9, 0.5, 0.3]))
    scene = nx.generate_scene(recipe)
    centered, _ = nx.center(scene.image)
    Yc = centered.pixels
    pbar = nx.pca_basis(Yc, nx.feature_dim(3))
    lle = nx.lle_weights(Yc, K=3)
    ctx = nx.ModelContext(Yc=Yc, pbar=pbar, lle=lle, gamma=1e3)
    x0 = nx.init_latents(Yc, pbar.basis[:, :2])
    state, report = nx.scg_optimize(nx.initial_state(ctx, x0), ctx, max_iter=60, tol=1e-12)
    endm = nx.vca(scene.image, 3, seed=0)
    abund = nx.fcls(scene.image, endm)
    return scene, ctx, state, report, endm, abund


def recompute(ctx, state):
    return o.neg_log_posterior(ctx.Yc, ctx.pbar.basis, ctx.lle.neighbors, ctx.lle.weights,
                               ctx.gamma, state.X, state.U, state.s2, state.sigma2)


def test_objective_oracle_matches_the_fit(fitted):
    _, ctx, state, report, _, _ = fitted
    assert o.objective_problems(float(report.trace[-1]), recompute(ctx, state)) == []


def test_objective_off_by_one_part_in_a_million_fails(fitted):
    _, ctx, state, report, _, _ = fitted
    assert o.objective_problems(float(report.trace[-1]) * (1 + 1e-6), recompute(ctx, state))


def test_trace_that_rises_once_fails(fitted):
    report = fitted[3]
    assert o.trace_problems(report.trace) == []
    trace = report.trace.copy()
    i = len(trace) // 2
    trace[i] = trace[i - 1] + 1e-9 * abs(trace[i - 1])
    problems = o.trace_problems(trace)
    assert len(problems) == 1 and "rises 1 time" in problems[0]


def test_abundance_row_off_the_simplex_fails(fitted):
    A = fitted[5].values.copy()
    assert o.simplex_problems("fcls", A) == []
    off_sum = A.copy()
    off_sum[3, 0] += 1e-6
    assert o.simplex_problems("fcls", off_sum)
    negative = A.copy()
    negative[5] = [1.2, -0.2, 0.0]
    assert o.simplex_problems("fcls", negative)


def test_swapped_neighbour_fails(fitted):
    _, ctx, _, _, _, _ = fitted
    Yc, lle = ctx.Yc, ctx.lle
    sample = np.arange(Yc.shape[0])
    assert o.lle_problems(Yc, lle.neighbors, lle.weights, sample) == []
    i = 11
    far = int(np.argmax(np.sum((Yc - Yc[i]) ** 2, axis=1)))
    nb = lle.neighbors.copy()
    nb[i, 0] = far
    assert o.lle_problems(Yc, nb, lle.weights, sample)
    # same set, two neighbours swapped in place: the weights no longer match
    nb = lle.neighbors.copy()
    nb[i, [0, 1]] = nb[i, [1, 0]]
    assert o.lle_problems(Yc, nb, lle.weights, sample)


def test_fcls_moved_along_the_simplex_fails(fitted):
    scene, _, _, _, endm, abund = fitted
    Y, M, A = scene.image.pixels, endm.spectra, abund.values.copy()
    assert o.fcls_problems(M, Y, A) == []
    i = int(np.argmax(A.min(axis=1)))  # an interior row, so the move stays feasible
    A[i] += [1e-4, -1e-4, 0.0]
    assert o.simplex_problems("moved", A) == []
    assert o.fcls_problems(M, Y, A)


def test_scores_agree_with_the_package_metrics(fitted):
    scene, _, _, _, endm, abund = fitted
    A_true, M_true = scene.abundances.values, scene.endmembers.spectra
    s = o.score(A_true, M_true, abund.values, endm.spectra)
    perm = nx.align_columns(M_true, endm.spectra)
    assert s["rnmse"] == pytest.approx(nx.rnmse(A_true, abund.values[:, perm]), rel=1e-12)
    want = [nx.sam(M_true[:, r], endm.spectra[:, perm[r]]) for r in range(3)]
    assert s["sam"] == pytest.approx(want, rel=1e-6)
    assert o.score(A_true, M_true, A_true, M_true)["rnmse"] == 0.0


def test_stage_files_read_back_for_the_oracles(tmp_path):
    def run(*argv):
        assert cli_main([str(a) for a in argv]) == 0

    scene, red, fit = tmp_path / "scene", tmp_path / "reduce", tmp_path / "fit"
    run("gen", "--model", "lmm", "--n", 80, "--r", 3, "--l", 16, "--seed", 3, "--out", scene)
    run("reduce", "--in", scene, "--out", red)
    run("fit", "--in", red, "--max-iter", 20, "--tol", 1e-12, "--out", fit)
    Yc = o.read_nlm(red / "yc.nlm")
    np.testing.assert_array_equal(Yc, nx.load_matrix(red / "yc.nlm"))
    nb, wt = o.read_lambda_csv(red / "lambda.csv", 80, int(o.read_kv(red / "meta.txt")["k"]))
    assert o.lle_problems(Yc, nb, wt, range(80)) == []
    trace = o.read_trace_csv(fit / "trace.csv")
    assert len(trace) > 1 and o.trace_problems(trace) == []
    nlp = o.neg_log_posterior(
        Yc, o.read_nlm(red / "pbar.nlm"), nb, wt, float(o.read_kv(fit / "meta.txt")["gamma"]),
        o.read_nlm(fit / "xhat.nlm"), o.read_nlm(fit / "uhat.nlm"),
        float(o.read_nlm(fit / "s2.nlm")[0, 0]), float(o.read_nlm(fit / "sigma2.nlm")[0, 0]),
    )
    assert o.objective_problems(float(trace[-1]), nlp) == []

"""The benchmark's probe (``bench/spans.py``) patches library names in
``nlunmix.pipeline`` and ``nlunmix.cli`` by ``setattr``.  It must still find
every name, and the calls the benchmark's output checks read must still go
through them, whether the chain runs in memory or through the CLI stages."""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import nlunmix.cli as cli  # noqa: E402
import nlunmix.model as model  # noqa: E402
import nlunmix.pipeline as pipeline  # noqa: E402
from nlunmix.scene import SceneRecipe  # noqa: E402
from spans import CAPTURED, STAGE_FUNCTIONS, Probe  # noqa: E402

N, L, R, ITERS = 60, 16, 3, 20


def run_in_memory(tmp_path):
    recipe = SceneRecipe(model="lmm", R=R, L=L, N=N, sigma2=1e-4, seed=2)
    pipeline.run_pipeline(pipeline.ExperimentConfig(recipe=recipe, k=R, max_iter=ITERS))


def run_cli_chain(tmp_path):
    for argv in (
        ["gen", "--model", "lmm", "--n", N, "--r", R, "--l", L, "--seed", 2, "--out", tmp_path / "scene"],
        ["reduce", "--in", tmp_path / "scene", "--out", tmp_path / "reduce"],
        ["fit", "--in", tmp_path / "reduce", "--max-iter", ITERS, "--out", tmp_path / "fit"],
        ["scale", "--in", tmp_path / "fit", "--out", tmp_path / "scale"],
        ["endmembers", "--in", tmp_path / "scale", "--out", tmp_path / "endmembers"],
        ["baseline", "--in", tmp_path / "scene", "--r", R, "--out", tmp_path / "baseline"],
    ):
        assert cli.main([str(a) for a in argv]) == 0, argv[0]


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("chain", [run_in_memory, run_cli_chain], ids=["pipeline", "cli"])
def test_probe_sees_the_chain(chain, traced, tmp_path):
    probe = Probe(traced=traced)
    try:
        probe.install()
        chain(tmp_path)
        assert set(CAPTURED) <= set(probe.captured)
        # the unpacking Outputs.from_probe and layer_metrics rely on
        (_, ctx), _, (state, report) = probe.captured["scg_optimize"]
        assert ctx.Yc.shape == (N, L)
        assert state.X.shape == (N, R)
        assert 1 <= report.iterations <= ITERS
        if traced:
            totals = probe.layer_totals((0, {}))
            assert {f"{layer}_s" for layer in STAGE_FUNCTIONS.values()} <= set(totals)
            assert totals["model.evals"] > 0 and totals["model.woodbury_s"] > 0
            if chain is run_cli_chain:
                stages = ("reduce", "fit", "scale", "endmembers", "baseline")
                assert {f"cli.{s}_s" for s in stages} | {"core.io_s"} <= set(totals)
            else:
                assert "pipeline_s" in totals
    finally:
        probe.uninstall()
    assert pipeline.scg_optimize is model.scg_optimize
    assert cli.scg_optimize is model.scg_optimize

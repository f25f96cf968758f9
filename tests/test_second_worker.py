"""When the objective's helper thread runs, checked in fresh processes.

The helper may run only with one BLAS thread, two usable CPUs and four row
blocks; importing the package, and fitting a one-block scene, start no
thread.  Whichever way it goes, the fitted bits equal those of a fit with
the helper forced off.  A forked child makes its own helper."""
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nlunmix.model as model

SRC = Path(__file__).resolve().parents[1] / "src"

FIT = """
import json, threading
import numpy as np
import nlunmix, nlunmix.cli, nlunmix.pipeline
import nlunmix.model as model
from nlunmix.core import center
from nlunmix.embed import init_latents, lle_weights, pca_basis
from nlunmix.scene import SceneRecipe, generate_scene

after_import = threading.active_count()

def fit(n):
    scene = generate_scene(SceneRecipe(model="lmm", R=3, L=160, N=n, sigma2=1e-4, seed=7))
    Yc, _ = center(scene.image)
    pb = pca_basis(Yc.pixels, 6)
    ctx = model.ModelContext(Yc=Yc.pixels, pbar=pb, lle=lle_weights(Yc.pixels, K=3))
    state0 = model.initial_state(ctx, init_latents(Yc.pixels, pb.basis[:, :2]))
    state, report = model.scg_optimize(state0, ctx, max_iter=60, tol=1e-12)
    return (state.X, state.U, state.s2, state.sigma2, report.trace,
            (report.iterations, report.evaluations, report.probes, report.rejected))

def same(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a, b))

one_block = fit(300)
after_one_block = threading.active_count()
blocks = len(model._Workspace(np.zeros((1600, 160)), 3).residual_blocks)
auto = fit(1600)
after_split = threading.active_count()
model._second_worker = lambda n_blocks: None
print(json.dumps({
    "after_import": after_import, "after_one_block": after_one_block,
    "after_split": after_split, "blocks": blocks, "same": same(auto, fit(1600)),
}))
"""


def run_fit(blas_threads: int) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("OMP_NUM_THREADS", "GOTO_NUM_THREADS")}
    env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")])
    done = subprocess.run([sys.executable, "-c", FIT], env=env, capture_output=True, text=True,
                          timeout=600)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_helper_follows_the_blas_thread_count():
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    got = {threads: run_fit(threads) for threads in (1, 2)}
    for threads, record in got.items():
        # the package starts no thread, nor does a fit of one row block
        assert record["after_import"] == 1 and record["after_one_block"] == 1, threads
        assert record["blocks"] >= 4
        assert record["same"], f"fit with the helper as found differs at {threads} BLAS threads"
    # two BLAS threads keep the helper off
    assert got[2]["after_split"] == 1
    if cpus < 2:
        assert got[1]["after_split"] == 1
        pytest.skip("one usable CPU: the helper stays off at one BLAS thread too, "
                    "so this host cannot tell the two settings apart")
    assert got[1]["after_split"] == 2


def _solve_in_child(wb, B, queue):
    queue.put(wb.solve(B))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_makes_its_own_helper(monkeypatch):
    # a forked child inherits the executor but not its thread; it must make
    # a new helper instead of waiting on the parent's forever
    monkeypatch.setattr(model, "_second_worker", lambda n_blocks: model._helper_thread())
    rng = np.random.default_rng(0)
    B = rng.normal(size=(3000, 166))
    wb = model.WoodburySolver(rng.normal(size=(3000, 6)), 0.7, 0.05)
    want = wb.solve(B)
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=_solve_in_child, args=(wb, B, queue))
    child.start()
    try:
        got = queue.get(timeout=60)
    finally:
        child.join(5)
        if child.is_alive():
            child.kill()
    assert np.array_equal(got, want)

"""Benchmark of the nlunmix unmixing chain.

    python3 bench/run.py --workload desk_gbm_star --seed 3 --seconds 10 --trace 0

Runs one workload from the root of a source checkout (the package is
imported from ``src/``), repeats whole rounds of it until ``--seconds``
have passed, checks the outputs of the last round against the scene's
ground truth and against oracles computed in ``oracles.py``, and prints one
JSON line: ``correct``, ``attempted`` and ``failed`` rounds, and the
end-to-end metrics (``--trace 0``) or the per-layer metrics of a traced run
(``--trace 1``).  One round is one scene unmixed by both methods.  See
README.md for the workloads and the meaning of every metric.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

# One BLAS thread unless the caller sets another count.  On a small shared
# machine a second thread makes every matrix product wait for the busier
# core, and the thread count changes rounding, which moves the latent fit's
# path: the wide scene's 100-iteration fit ended at fcll RNMSE 0.005 with two
# threads and 0.039 with one.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

import oracles as o  # noqa: E402
from spans import Probe  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
TRACES = HERE / "traces"

LLE_SAMPLE = 200

END_TO_END = {
    "unmix_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "fcll_rnmse": "fraction",
    "fcll_sam_max": "rad",
    "vca_rnmse": "fraction",
}
PER_LAYER = {
    "scene.generate_s": "s",
    "core.center_s": "s",
    "core.io_s": "s",
    "core.io_bytes": "bytes",
    "embed.pca_s": "s",
    "embed.lle_s": "s",
    "embed.init_s": "s",
    "model.fit_s": "s",
    "model.evals": "count",
    "model.ms_per_eval": "ms",
    "model.woodbury_s": "s",
    "scg.iterations": "count",
    "scg.accepted": "count",
    "scg.rejected": "count",
    "scg.accept_ratio": "ratio",
    "scg.converged": "flag",
    "scg.grad_norm": "1",
    "scg.objective_drop": "nats",
    "model.map_p_s": "s",
    "model.noise_scale_s": "s",
    "scaling.simplex_s": "s",
    "gpregress.endmembers_s": "s",
    "baselines.vca_s": "s",
    "baselines.fcls_s": "s",
    "pipeline.self_s": "s",
    "cli.reduce_s": "s",
    "cli.fit_s": "s",
    "cli.scale_s": "s",
    "cli.endmembers_s": "s",
    "cli.baseline_s": "s",
    "cli.self_s": "s",
    "trace.unmix_s": "s",
}


def process_age() -> float:
    """Seconds since this process started (kernel start time, 10 ms ticks)."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def steal_seconds() -> float:
    """CPU time the hypervisor gave to others, summed over all CPUs."""
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def blas_info(path: str) -> dict:
    """Build string and thread count of a loaded OpenBLAS library."""
    lib = ctypes.CDLL(path)
    for pattern in ("scipy_openblas_{}64_", "scipy_openblas_{}", "openblas_{}64_", "openblas_{}"):
        threads = getattr(lib, pattern.format("get_num_threads"), None)
        config = getattr(lib, pattern.format("get_config"), None)
        if threads is not None and config is not None:
            config.restype = ctypes.c_char_p
            return {"lib": Path(path).name, "config": config().decode().strip(), "threads": threads()}
    return {"lib": Path(path).name}


def platform_info() -> dict:
    import scipy

    with open("/proc/self/maps") as fh:
        libs = sorted(set(re.findall(r"/\S*openblas\S*\.so\S*", fh.read())))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpus": os.cpu_count(),
        "blas": [blas_info(path) for path in libs],
    }


# ------------------------------------------------------------ workloads


def config_text(name: str, **overrides) -> str:
    """A shipped config with some ``key=value`` lines replaced or added."""
    lines, seen = [], set()
    for line in (SRC / "nlunmix" / "configs" / f"{name}.cfg").read_text().splitlines():
        key = line.partition("=")[0].strip()
        if key in overrides:
            line = f"{key}={overrides[key]}"
            seen.add(key)
        lines.append(line)
    lines += [f"{k}={v}" for k, v in overrides.items() if k not in seen]
    return "\n".join(lines) + "\n"


def quiet_cli(argv) -> int:
    import nlunmix.cli

    with contextlib.redirect_stdout(io.StringIO()):
        return nlunmix.cli.main([str(a) for a in argv])


@dataclass
class Outputs:
    """What the checks read from one round: the scene's truth, the fit's
    context, trace and state, and both methods' estimates."""

    Y: np.ndarray  # N x L scene pixels
    A_true: np.ndarray
    M_true: np.ndarray
    sigma2: float  # the scene's noise variance
    trace: np.ndarray
    Yc: np.ndarray
    basis: np.ndarray
    neighbors: np.ndarray
    weights: np.ndarray
    gamma: float
    X: np.ndarray
    U: np.ndarray
    fit_s2: float
    fit_sigma2: float
    A_fcll: np.ndarray
    M_fcll: np.ndarray
    A_vca: np.ndarray
    M_vca: np.ndarray

    @classmethod
    def from_probe(cls, probe: Probe) -> "Outputs":
        """From the calls ``run_pipeline`` made in the last round."""
        cap = probe.captured
        scene = cap["generate_scene"][2]
        (_, ctx), _, (state, report) = cap["scg_optimize"]
        return cls(
            Y=scene.image.pixels, A_true=scene.abundances.values, M_true=scene.endmembers.spectra,
            sigma2=scene.recipe.sigma2, trace=report.trace, Yc=ctx.Yc, basis=ctx.pbar.basis,
            neighbors=ctx.lle.neighbors, weights=ctx.lle.weights, gamma=ctx.gamma,
            X=state.X, U=state.U, fit_s2=state.s2, fit_sigma2=state.sigma2,
            A_fcll=cap["fit_min_volume_simplex"][2].abundances.values,
            M_fcll=cap["extract_endmembers"][2].spectra,
            A_vca=cap["fcls"][2].values, M_vca=cap["vca"][2].spectra,
        )

    @classmethod
    def from_stage_dirs(cls, w: Path) -> "Outputs":
        """From the files the CLI stages wrote, read by ``oracles``' parsers."""
        Yc = o.read_nlm(w / "reduce" / "yc.nlm")
        k = int(o.read_kv(w / "reduce" / "meta.txt")["k"])
        neighbors, weights = o.read_lambda_csv(w / "reduce" / "lambda.csv", len(Yc), k)
        return cls(
            Y=o.read_nlm(w / "scene" / "image.nlm"), A_true=o.read_nlm(w / "scene" / "abundances.nlm"),
            M_true=o.read_nlm(w / "scene" / "endmembers.nlm"),
            sigma2=float(o.read_kv(w / "scene" / "recipe.txt")["sigma2"]),
            trace=o.read_trace_csv(w / "fit" / "trace.csv"), Yc=Yc,
            basis=o.read_nlm(w / "reduce" / "pbar.nlm"), neighbors=neighbors, weights=weights,
            gamma=float(o.read_kv(w / "fit" / "meta.txt")["gamma"]),
            X=o.read_nlm(w / "fit" / "xhat.nlm"), U=o.read_nlm(w / "fit" / "uhat.nlm"),
            fit_s2=float(o.read_nlm(w / "fit" / "s2.nlm")[0, 0]),
            fit_sigma2=float(o.read_nlm(w / "fit" / "sigma2.nlm")[0, 0]),
            A_fcll=o.read_nlm(w / "scale" / "abundances.nlm"),
            M_fcll=o.read_nlm(w / "endmembers" / "endmembers.nlm"),
            A_vca=o.read_nlm(w / "baseline" / "fcls_abundances.nlm"),
            M_vca=o.read_nlm(w / "baseline" / "vca_endmembers.nlm"),
        )


def chain_checks(out: Outputs, seed: int, limits: dict) -> tuple[dict, dict, list[str]]:
    """The checks every workload runs; returns both methods' scores (RNMSE
    and per-endmember SAM) and the problems found."""
    problems = o.trace_problems(out.trace)
    nlp = o.neg_log_posterior(out.Yc, out.basis, out.neighbors, out.weights, out.gamma,
                              out.X, out.U, out.fit_s2, out.fit_sigma2)
    problems += o.objective_problems(float(out.trace[-1]), nlp)
    sample = np.random.default_rng(seed).choice(len(out.Yc), size=min(LLE_SAMPLE, len(out.Yc)), replace=False)
    problems += o.lle_problems(out.Yc, out.neighbors, out.weights, sample)
    problems += o.fcls_problems(out.M_vca, out.Y, out.A_vca)
    problems += o.simplex_problems("fcll_gplvm abundances", out.A_fcll)
    problems += o.simplex_problems("vca_fcls abundances", out.A_vca)
    fcll = o.score(out.A_true, out.M_true, out.A_fcll, out.M_fcll)
    vca = o.score(out.A_true, out.M_true, out.A_vca, out.M_vca)
    for method, s in (("fcll_gplvm", fcll), ("vca_fcls", vca)):
        if f"{method}.rnmse" in limits:
            problems += o.upper_problems(f"{method} RNMSE", s["rnmse"], limits[f"{method}.rnmse"])
        if f"{method}.sam" in limits:
            for r, a in enumerate(s["sam"]):
                problems += o.upper_problems(f"{method} SAM of endmember {r + 1}", a, limits[f"{method}.sam"])
    return fcll, vca, problems


def quality(fcll: dict, vca: dict) -> dict:
    return {"fcll_rnmse": fcll["rnmse"], "fcll_sam_max": max(fcll["sam"]), "vca_rnmse": vca["rnmse"]}


def agreement_problems(name: str, ours: float, theirs: float, rtol: float = 1e-9) -> list[str]:
    if not abs(ours - theirs) <= rtol * abs(theirs):
        return [f"{name}: the program reports {theirs!r}, recomputed {ours!r}"]
    return []


def noise_band_problems(name: str, are: float, sigma2: float) -> list[str]:
    lo, hi = 0.9 * sigma2**0.5, 1.3 * sigma2**0.5
    if not lo <= are <= hi:
        return [f"{name} ARE {are:.6g} outside the noise band [{lo:.4g}, {hi:.4g}]"]
    return []


class DeskGbmStar:
    """Shipped i3star scene (GBM, no pure pixels, N=2500) via run_pipeline."""

    max_iter = 500
    limits = {"fcll_gplvm.rnmse": 2.5e-2, "fcll_gplvm.sam": 5e-2}

    def __init__(self, args, work: Path):
        import nlunmix.pipeline

        overrides = {"max_iter": self.max_iter}
        if args.scene_seed is not None:
            overrides["seed"] = args.scene_seed
        self.config, _ = nlunmix.pipeline.parse_config(config_text("i3star", **overrides))
        self.seed = args.seed
        self.stage_dirs = []

    def run(self) -> None:
        import nlunmix.pipeline

        self.report = nlunmix.pipeline.run_pipeline(self.config)

    def check(self, probe: Probe) -> tuple[dict, list[str]]:
        out = Outputs.from_probe(probe)
        fcll, vca, problems = chain_checks(out, self.seed, self.limits)
        for r, (a, b) in enumerate(zip(fcll["sam"], vca["sam"])):
            if not a < b:
                problems.append(f"endmember {r + 1}: fcll_gplvm SAM {a:.4g} is not below VCA's {b:.4g}")
        methods = self.report.methods
        problems += agreement_problems("fcll_gplvm RNMSE", fcll["rnmse"], methods["fcll_gplvm"].rnmse)
        problems += agreement_problems("vca_fcls RNMSE", vca["rnmse"], methods["vca_fcls"].rnmse)
        for r, (a, b) in enumerate(zip(fcll["sam"], methods["fcll_gplvm"].sam_per_endmember)):
            problems += agreement_problems(f"fcll_gplvm SAM of endmember {r + 1}", a, b, 1e-6)
        problems += noise_band_problems("fcll_gplvm", methods["fcll_gplvm"].are, out.sigma2)
        if not self.report.llgplvm_are < self.report.pca_are:
            problems.append(f"latent-model ARE {self.report.llgplvm_are:.6g} is not below "
                            f"PCA's {self.report.pca_are:.6g}")
        return quality(fcll, vca), problems


class DeskLmm:
    """Shipped i1 recipe (linear, pure pixels) at N=400 via ``nlunmix pipeline``."""

    n = 400
    limits = {"fcll_gplvm.rnmse": 2e-2}

    def __init__(self, args, work: Path):
        overrides = {"n": self.n, "out": work / "report"}
        if args.scene_seed is not None:
            overrides["seed"] = args.scene_seed
        self.cfg = work / "desk_lmm.cfg"
        self.cfg.write_text(config_text("i1", **overrides))
        self.out = work / "report"
        self.seed = args.seed
        self.stage_dirs = [self.out]

    def run(self) -> None:
        rc = quiet_cli(["pipeline", "--config", self.cfg])
        if rc != 0:
            raise RuntimeError(f"nlunmix pipeline exited with {rc}")

    def check(self, probe: Probe) -> tuple[dict, list[str]]:
        out = Outputs.from_probe(probe)
        fcll, vca, problems = chain_checks(out, self.seed, self.limits)
        rows = o.read_report_csv(self.out / "report.csv")
        problems += noise_band_problems("fcll_gplvm", rows["fcll_gplvm"]["are"], out.sigma2)
        problems += o.upper_problems("report.csv fcll_gplvm RNMSE", rows["fcll_gplvm"]["rnmse"], 2e-2)
        problems += agreement_problems("fcll_gplvm RNMSE", fcll["rnmse"], rows["fcll_gplvm"]["rnmse"])
        problems += agreement_problems("vca_fcls RNMSE", vca["rnmse"], rows["vca_fcls"]["rnmse"])
        return quality(fcll, vca), problems


class WideLmmCli:
    """Linear scene with pure pixels at N=10,000 through the CLI stages."""

    n, l, r, scene_seed = 10_000, 160, 3, 101
    # The first ~200 iterations on this scene trade abundance accuracy for
    # objective (RNMSE 0.0023 after 1, 0.0050 after 100, 0.038 after 200),
    # so a budget inside that slope makes the result hinge on rounding; at 50
    # it moves by ~10% between one and two BLAS threads.
    fit_iters = 50
    # several times the values measured on the default scene (VCA: over 40 seeds)
    limits = {
        "fcll_gplvm.rnmse": 2e-2,
        "fcll_gplvm.sam": 2e-2,
        "vca_fcls.rnmse": 3e-2,
        "vca_fcls.sam": 5e-2,
    }

    def __init__(self, args, work: Path):
        self.work = work
        self.seed = args.seed
        self.stage_dirs = [work / d for d in ("scene", "reduce", "fit", "scale", "endmembers", "baseline")]
        scene_seed = self.scene_seed if args.scene_seed is None else args.scene_seed
        rc = quiet_cli(["gen", "--model", "lmm", "--n", self.n, "--r", self.r, "--l", self.l,
                        "--sigma2", 1e-4, "--amax", 1.0, "--seed", scene_seed, "--out", work / "scene"])
        if rc != 0:
            raise RuntimeError(f"nlunmix gen exited with {rc}")

    def run(self) -> None:
        w = self.work
        for argv in (
            ["reduce", "--in", w / "scene", "--out", w / "reduce"],
            ["fit", "--in", w / "reduce", "--max-iter", self.fit_iters, "--tol", 1e-12, "--out", w / "fit"],
            ["scale", "--in", w / "fit", "--out", w / "scale"],
            ["endmembers", "--in", w / "scale", "--out", w / "endmembers"],
            ["baseline", "--in", w / "scene", "--r", self.r, "--out", w / "baseline"],
        ):
            rc = quiet_cli(argv)
            if rc != 0:
                raise RuntimeError(f"nlunmix {argv[0]} exited with {rc}")

    def check(self, probe: Probe) -> tuple[dict, list[str]]:
        fcll, vca, problems = chain_checks(Outputs.from_stage_dirs(self.work), self.seed, self.limits)
        return quality(fcll, vca), problems


WORKLOADS = {"desk_gbm_star": DeskGbmStar, "desk_lmm": DeskLmm, "wide_lmm_cli": WideLmmCli}


def dir_bytes(paths) -> int:
    return sum(f.stat().st_size for p in paths if p.exists() for f in p.rglob("*") if f.is_file())


def layer_metrics(probe, workload, setup: dict, rounds: list[dict]) -> dict:
    """Per-layer metrics: set-up totals plus the median round."""
    keys = set(setup).union(*rounds)
    out = {k: setup.get(k, 0.0) + statistics.median(r.get(k, 0.0) for r in rounds) for k in keys}
    evals = out.get("model.evals", 0.0)
    out["model.ms_per_eval"] = 1e3 * out.get("model.eval_s", 0.0) / evals if evals else 0.0
    out["core.io_bytes"] = float(dir_bytes(workload.stage_dirs))
    report = probe.captured["scg_optimize"][2][1]
    accepted = len(report.trace) - 1
    out.update({
        "scg.iterations": report.iterations,
        "scg.accepted": accepted,
        "scg.rejected": report.iterations - accepted,
        "scg.accept_ratio": accepted / report.iterations if report.iterations else 0.0,
        "scg.converged": int(report.converged),
        "scg.grad_norm": report.grad_norm,
        "scg.objective_drop": float(report.trace[0] - report.trace[-1]),
    })
    return {name: float(out.get(name, 0.0)) for name in PER_LAYER if name != "trace.unmix_s"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="seeds the pixel sample of the LLE check")
    parser.add_argument("--scene-seed", type=int, default=None,
                        help="scene seed (default: the shipped config's)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nlunmix" / "__init__.py").is_file():
        print(f"bench: no nlunmix package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import nlunmix

    if Path(nlunmix.__file__).resolve().parent != SRC / "nlunmix":
        print(f"bench: imported nlunmix from {nlunmix.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    probe = Probe(traced=bool(args.trace))
    probe.install()
    try:
        workload = WORKLOADS[args.workload](args, work)
        setup_mark = probe.mark()
        setup_s = process_age()
        times, steal, layers, failed = [], [], [], 0
        peak_rss_mb = None
        started = time.perf_counter()
        while True:
            mark = probe.mark()
            steal0 = steal_seconds()
            t0 = time.perf_counter()
            try:
                workload.run()
            except Exception:  # noqa: BLE001 - a failed round is counted, not fatal
                traceback.print_exc()
                failed += 1
            else:
                times.append(time.perf_counter() - t0)
                steal.append(steal_seconds() - steal0)
                layers.append(probe.layer_totals(mark))
            if peak_rss_mb is None:  # later rounds repeat the same work
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if time.perf_counter() - started >= args.seconds:
                break
        attempted = len(times) + failed
        if not times:
            print("bench: every round failed", file=sys.stderr)
            return 1
        quality, problems = workload.check(probe)
        if args.trace:
            metrics = layer_metrics(probe, workload, probe.layer_totals((0, {}), setup_mark), layers)
            metrics["trace.unmix_s"] = statistics.median(times)
            units = PER_LAYER
        else:
            metrics = dict(quality, unmix_s=statistics.median(times), setup_s=setup_s,
                           peak_rss_mb=peak_rss_mb)
            units = END_TO_END
    finally:
        probe.uninstall()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    info = platform_info()
    print(f"platform: {json.dumps(info)}", file=sys.stderr)
    print(f"rounds: {json.dumps(times)} steal: {json.dumps(steal)}", file=sys.stderr)
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    if args.trace:
        TRACES.mkdir(exist_ok=True)
        path = TRACES / f"{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"workload": args.workload, "seed": args.seed, "platform": info,
                                    "metrics": metrics, "counters": dict(probe.counters),
                                    "spans": probe.dump()}))
        print(f"trace: {path.relative_to(ROOT)} ({len(probe.spans)} spans)", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

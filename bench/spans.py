"""In-memory spans and counters around nlunmix's public functions.

The program is not changed: ``Probe.install`` replaces names in the modules
that look them up (``nlunmix.pipeline``, ``nlunmix.cli``, ``nlunmix.model``)
with wrappers, and ``Probe.uninstall`` puts the originals back.

Untraced, the wrappers only keep the last arguments and result of the few
calls the output checks need (``captured``); they read no clock.  Traced,
every wrapped call also records a span (name, start, end, parent), the
objective is counted and timed per evaluation, and ``WoodburySolver``
construction and ``solve`` are timed.
"""
from __future__ import annotations

import time
from collections import defaultdict

# attribute -> layer name.  Both the pipeline and the CLI import
# these names directly, so each is replaced in both namespaces.
STAGE_FUNCTIONS = {
    "generate_scene": "scene.generate",
    "center": "core.center",
    "pca_basis": "embed.pca",
    "lle_weights": "embed.lle",
    "init_latents": "embed.init",
    "scg_optimize": "model.fit",
    "map_P": "model.map_p",
    "latent_noise_scale": "model.noise_scale",
    "fit_min_volume_simplex": "scaling.simplex",
    "extract_endmembers": "gpregress.endmembers",
    "vca": "baselines.vca",
    "fcls": "baselines.fcls",
}
CLI_ONLY = {"save_matrix": "core.io", "load_matrix": "core.io"}
CLI_COMMANDS = ("gen", "reduce", "fit", "scale", "endmembers", "baseline", "pipeline")
# calls whose arguments and results the output checks read
CAPTURED = ("generate_scene", "scg_optimize", "fit_min_volume_simplex", "extract_endmembers",
            "vca", "fcls")


class Probe:
    def __init__(self, traced: bool):
        self.traced = traced
        self.captured: dict[str, tuple] = {}
        # (id, name, parent id or -1, start, end); ids index this list
        self.spans: list[tuple[int, str, int, float, float]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # --------------------------------------------------------------- spans

    def _enter(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((sid, name, parent, time.perf_counter(), float("nan")))
        self._stack.append(sid)
        return sid

    def _exit(self, sid: int) -> None:
        self._stack.pop()
        _, name, parent, start, _ = self.spans[sid]
        self.spans[sid] = (sid, name, parent, start, time.perf_counter())

    def _wrap(self, fn, layer: str, key: str | None):
        probe = self

        def wrapper(*args, **kwargs):
            sid = probe._enter(layer) if probe.traced else None
            try:
                result = fn(*args, **kwargs)
            finally:
                if sid is not None:
                    probe._exit(sid)
            if key is not None:
                probe.captured[key] = (args, kwargs, result)
            return result

        return wrapper

    # ------------------------------------------------------------ patching

    def _patch(self, module, attr: str, new) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def install(self) -> None:
        import nlunmix.cli as cli
        import nlunmix.model as model
        import nlunmix.pipeline as pipeline

        for module in (pipeline, cli):
            for attr, layer in STAGE_FUNCTIONS.items():
                key = attr if attr in CAPTURED else None
                if self.traced or key is not None:
                    self._patch(module, attr, self._wrap(getattr(module, attr), layer, key))
        if not self.traced:
            return
        for attr, layer in CLI_ONLY.items():
            self._patch(cli, attr, self._wrap(getattr(cli, attr), layer, None))
        for name in CLI_COMMANDS:
            attr = f"cmd_{name}"
            self._patch(cli, attr, self._wrap(getattr(cli, attr), f"cli.{name}", None))
        self._patch(pipeline, "run_pipeline", self._wrap(pipeline.run_pipeline, "pipeline", None))
        self._patch(pipeline, "GpPredictor", self._timed_gp(pipeline.GpPredictor))
        self._patch(cli, "GpPredictor", self._timed_gp(cli.GpPredictor))
        self._patch(model, "objective_function", self._counted_objective(model.objective_function))
        self._patch(model, "WoodburySolver", self._timed_woodbury(model.WoodburySolver))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _timed_gp(self, cls):
        probe = self

        class TracedGpPredictor(cls):
            def __post_init__(self):
                sid = probe._enter("gpregress.endmembers")
                try:
                    super().__post_init__()
                finally:
                    probe._exit(sid)

        return TracedGpPredictor

    def _counted_objective(self, factory):
        counters = self.counters

        def objective_function(*args, **kwargs):
            fg = factory(*args, **kwargs)

            def counted(w):
                t0 = time.perf_counter()
                try:
                    return fg(w)
                finally:
                    counters["model.eval_s"] += time.perf_counter() - t0
                    counters["model.evals"] += 1

            return counted

        return objective_function

    def _timed_woodbury(self, cls):
        counters = self.counters

        class TimedWoodburySolver(cls):
            def __init__(self, *args, **kwargs):
                t0 = time.perf_counter()
                try:
                    super().__init__(*args, **kwargs)
                finally:
                    counters["model.woodbury_s"] += time.perf_counter() - t0

            def solve(self, *args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return super().solve(*args, **kwargs)
                finally:
                    counters["model.woodbury_s"] += time.perf_counter() - t0

        return TimedWoodburySolver

    # ------------------------------------------------------------- summary

    def mark(self) -> tuple[int, dict]:
        """Position to summarise from: span count and counter snapshot."""
        return len(self.spans), dict(self.counters)

    def layer_totals(self, since: tuple[int, dict], until: tuple[int, dict] | None = None) -> dict:
        """Per-layer totals over the spans and counter increments between
        two marks.  ``<layer>_s`` sums the spans of a layer; ``pipeline.self_s``
        and ``cli.self_s`` are span time not covered by child spans."""
        first, before = since
        last, after = until if until is not None else self.mark()
        spans = self.spans[first:last]
        child_time: dict[int, float] = defaultdict(float)
        for _, _, parent, start, end in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, name, _, start, end in spans:
            out[f"{name}_s"] += end - start
            if name == "pipeline" or name.startswith("cli."):
                family = "pipeline" if name == "pipeline" else "cli"
                out[f"{family}.self_s"] += end - start - child_time[sid]
        for key in set(after) | set(before):
            out[key] += after.get(key, 0.0) - before.get(key, 0.0)
        return dict(out)

    def dump(self) -> list[dict]:
        return [
            {"id": sid, "name": name, "parent": parent, "start": start, "end": end}
            for sid, name, parent, start, end in self.spans
        ]

"""Tests for config parsing, the pipeline runner, and report rendering."""
import numpy as np
import pytest

from nlunmix.pipeline import (
    ExperimentConfig,
    PipelineError,
    parse_config,
    plot_data_csv,
    report_csv,
    run_pipeline,
    timing_csv,
)
from nlunmix.scene import SceneRecipe, gamma_matrix


def small_config(model="gbm", amax=1.0, n=120, l=24, seed=5, methods=("fcll_gplvm", "vca_fcls")):
    gamma = gamma_matrix(3, [0.9, 0.5, 0.3]) if model == "gbm" else None
    recipe = SceneRecipe(
        model=model, R=3, L=l, N=n, sigma2=1e-4, seed=seed, amax=amax, gamma=gamma
    )
    return ExperimentConfig(
        recipe=recipe, gamma=1e3, k=3, max_iter=600, tol=1e-9, methods=tuple(methods)
    )


class TestParseConfig:
    def test_full_round_trip(self):
        text = """
        # comment line
        model=gbm
        r=3
        l=24
        n=50
        sigma2=1e-4
        amax=0.9
        seed=7
        gbm_gamma=0.9,0.5,0.3
        gamma=1e3
        k=3
        max_iter=100
        tol=1e-8
        methods=fcll_gplvm
        out=somewhere
        """
        config, outdir = parse_config(text)
        assert outdir == "somewhere"
        assert config.recipe.model == "gbm"
        assert config.recipe.amax == 0.9
        assert config.recipe.gamma[0, 1] == 0.9
        assert config.methods == ("fcll_gplvm",)
        assert config.k == 3

    def test_defaults(self):
        config, outdir = parse_config(
            "model=lmm\nr=3\nl=12\nn=20\nsigma2=1e-4\nseed=1\n"
        )
        assert outdir == "."
        assert config.gamma == 1e3
        assert config.k == 3
        assert config.max_iter == 2000

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            parse_config("model=lmm\nr=3\nl=12\nn=20\nsigma2=1e-4\nseed=1\nbogus=1\n")

    def test_missing_key_rejected(self):
        with pytest.raises(ValueError):
            parse_config("model=lmm\nr=3\n")

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            parse_config(
                "model=lmm\nr=3\nl=12\nn=20\nsigma2=1e-4\nseed=1\nmethods=magic\n"
            )


class TestRunPipeline:
    def test_small_gbm_run(self):
        report = run_pipeline(small_config())
        assert set(report.methods) == {"fcll_gplvm", "vca_fcls"}
        m = report.methods["fcll_gplvm"]
        assert m.are > 0 and m.rnmse >= 0
        assert len(m.sam_per_endmember) == 3
        assert np.isfinite(report.pca_are) and np.isfinite(report.llgplvm_are)
        assert "latents" in report.plot_data and "vertices" in report.plot_data

    def test_baseline_only(self):
        report = run_pipeline(small_config(methods=("vca_fcls",)))
        assert set(report.methods) == {"vca_fcls"}
        assert not np.isfinite(report.llgplvm_are)

    def test_deterministic_report_bytes(self):
        cfg = small_config(n=80, l=16, seed=11)
        a = report_csv(run_pipeline(cfg))
        b = report_csv(run_pipeline(cfg))
        assert a == b

    def test_csv_shapes(self):
        report = run_pipeline(small_config(n=80, l=16))
        text = report_csv(report)
        lines = text.strip().split("\n")
        header = lines[0].split(",")
        assert header[:3] == ["method", "are", "rnmse"]
        assert "sam_3" in header and "permutation" in header
        for line in lines[1:]:
            assert len(line.split(",")) == len(header)
        assert "wall_clock_s" in timing_csv(report)
        plot = plot_data_csv(report).strip().split("\n")
        kinds = {line.split(",")[0] for line in plot[1:]}
        assert kinds == {"pca_scores", "latents", "vertices"}

    def test_timing_has_prep_row(self):
        report = run_pipeline(small_config(n=80, l=16))
        rows = [line.split(",") for line in timing_csv(report).strip().split("\n")]
        assert rows[0] == ["method", "wall_clock_s"]
        assert [r[0] for r in rows[1:]] == ["prep", "fcll_gplvm", "vca_fcls"]
        assert float(rows[1][1]) == round(report.prep_wall_clock, 3)
        assert report.prep_wall_clock > 0
        assert "prep" not in report_csv(report)

    def test_fit_report_kept(self):
        cfg = small_config(n=80, l=16)
        report = run_pipeline(cfg)
        assert 1 <= report.fit.iterations <= cfg.max_iter
        assert isinstance(report.fit.converged, bool)
        assert np.isfinite(report.fit.grad_norm)
        assert np.array_equal(report.fit.trace, report.plot_data["fit_trace"])
        assert run_pipeline(small_config(methods=("vca_fcls",))).fit is None

    def test_stage_tagged_errors(self):
        # an infeasible neighbor count breaks the reduce stage
        bad = ExperimentConfig(
            recipe=SceneRecipe(model="lmm", R=3, L=24, N=4, sigma2=1e-4, seed=1),
            k=10,
            max_iter=10,
        )
        with pytest.raises(PipelineError) as exc:
            run_pipeline(bad)
        assert exc.value.stage == "reduce"

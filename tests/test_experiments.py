"""Monte Carlo harness tests.

Statistical assertions use wide tolerances around fixed seeds, so every run
is deterministic; nothing here depends on luck. Full-scale table
reproduction lives in the acceptance suite.
"""

import math

import numpy as np
import pytest

from blurshift import experiments
from blurshift.engine import extract_clusters, majority_mode, run
from blurshift.experiments import (
    AUTO,
    DEFAULT_ROBUSTNESS_TRUNCATION,
    ConvergenceRateReport,
    ExperimentConfig,
    MixtureSpec,
    SummaryStat,
    contaminated_gaussian_mixture,
    replication_rng,
    run_convergence_rate,
    run_efficiency,
    run_robustness,
    sample_gaussian,
    sample_mixture,
    summarize,
)


class TestSummarize:
    def test_constant_values(self):
        s = summarize([1.0, 1.0, 1.0])
        assert s == SummaryStat(mean=1.0, std=0.0, count=3)

    def test_two_values(self):
        s = summarize([0.0, 2.0])
        assert s.mean == 1.0
        assert s.std == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert s.count == 2

    def test_unbiased_denominator(self):
        vals = [0.0, 1.0, 2.0, 3.0]
        s = summarize(vals)
        assert s.std == pytest.approx(np.std(vals, ddof=1), rel=1e-15)

    def test_large_sample_std_interval(self):
        # chi-square interval for the sample std of 10^4 N(0, 0.1^2) draws
        draws = np.random.default_rng(3).normal(0.0, 0.1, size=10_000)
        s = summarize(draws)
        assert 0.097 <= s.std <= 0.103

    @pytest.mark.parametrize("bad", [[], [1.0], np.ones((2, 2))])
    def test_needs_two_scalars(self, bad):
        with pytest.raises(ValueError):
            summarize(bad)


class TestSampleGaussian:
    def test_mean_near_zero_at_scale(self):
        pts = sample_gaussian(100_000, 0.0, 1.0, np.random.default_rng(0))
        assert abs(pts.positions.mean()) < 3.0 / math.sqrt(100_000)

    def test_same_seed_identical(self):
        a = sample_gaussian(50, 0.0, 1.0, np.random.default_rng(42))
        b = sample_gaussian(50, 0.0, 1.0, np.random.default_rng(42))
        assert np.array_equal(a.positions, b.positions)

    def test_diagonal_covariance_variances(self):
        pts = sample_gaussian(
            100_000, [0.0, 0.0], np.diag([1.0, 4.0]), np.random.default_rng(1)
        )
        var = pts.positions.var(axis=0, ddof=1)
        assert abs(var[0] - 1.0) < 0.05
        assert abs(var[1] - 4.0) < 0.2

    def test_correlated_covariance(self):
        cov = np.array([[2.0, 0.8], [0.8, 1.0]])
        pts = sample_gaussian(200_000, [1.0, -1.0], cov, np.random.default_rng(9))
        emp = np.cov(pts.positions.T)
        assert np.abs(emp - cov).max() < 0.05
        assert np.abs(pts.positions.mean(axis=0) - [1.0, -1.0]).max() < 0.02

    def test_unit_weights(self):
        pts = sample_gaussian(10, 0.0, 1.0, np.random.default_rng(0))
        assert np.array_equal(pts.weights, np.ones(10))

    def test_rejects_non_spd(self):
        with pytest.raises(ValueError):
            sample_gaussian(5, [0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]],
                            np.random.default_rng(0))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            sample_gaussian(5, [0.0, 0.0], [[1.0, 0.5], [0.1, 1.0]],
                            np.random.default_rng(0))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sample_gaussian(5, [0.0, 0.0, 0.0], np.eye(2), np.random.default_rng(0))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            sample_gaussian(0, 0.0, 1.0, np.random.default_rng(0))


class TestMixture:
    def test_canonical_contaminated_design(self):
        mix = contaminated_gaussian_mixture()
        assert mix.means == (0.0, 5.0)
        assert mix.proportions == (0.95, 0.05)
        assert mix.labels == ("core", "outlier")

    def test_exact_component_counts(self):
        mix = contaminated_gaussian_mixture()
        pts, labels = sample_mixture(mix, 100, replication_rng(0, 0))
        assert pts.n == 100
        assert int((labels == "outlier").sum()) == 5
        assert int((labels == "core").sum()) == 95

    def test_counts_deterministic_across_seeds(self):
        # the 95/5 split is fixed by design, not redrawn
        mix = contaminated_gaussian_mixture()
        for seed in range(5):
            _, labels = sample_mixture(mix, 100, replication_rng(seed, 0))
            assert int((labels == "outlier").sum()) == 5

    def test_fractional_counts_rejected(self):
        mix = contaminated_gaussian_mixture()
        with pytest.raises(ValueError):
            sample_mixture(mix, 101, replication_rng(0, 0))

    def test_single_component_matches_sample_gaussian(self):
        mix = MixtureSpec(means=(0.0,), stds=(1.0,), proportions=(1.0,))
        pts_mix, labels = sample_mixture(mix, 40, np.random.default_rng(13))
        pts_ref = sample_gaussian(40, 0.0, 1.0, np.random.default_rng(13))
        assert np.array_equal(pts_mix.positions, pts_ref.positions)
        assert set(labels) == {"component_0"}

    def test_mixture_mean_matches_design(self):
        # 0.95*0 + 0.05*5 = 0.25
        mix = contaminated_gaussian_mixture()
        pts, _ = sample_mixture(mix, 20_000, np.random.default_rng(2))
        assert abs(pts.positions.mean() - 0.25) < 0.05

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(means=(), stds=(), proportions=()),
            dict(means=(0.0, 1.0), stds=(1.0,), proportions=(0.5, 0.5)),
            dict(means=(0.0, 1.0), stds=(1.0, 1.0), proportions=(0.6, 0.6)),
            dict(means=(0.0,), stds=(0.0,), proportions=(1.0,)),
            dict(means=(0.0,), stds=(1.0,), proportions=(1.0,), labels=("a", "b")),
        ],
    )
    def test_invalid_specs(self, kwargs):
        with pytest.raises(ValueError):
            MixtureSpec(**kwargs)


class TestExperimentConfig:
    def test_truncation_resolves_by_kind(self):
        rob = ExperimentConfig(kind="robustness", tau=1.0)
        assert rob.truncation_multiple == DEFAULT_ROBUSTNESS_TRUNCATION
        assert rob.kernel().support_radius == pytest.approx(3.0)
        eff = ExperimentConfig(kind="efficiency", tau=1.0)
        assert eff.truncation_multiple is None
        assert math.isinf(eff.kernel().support_radius)

    def test_explicit_none_restores_pure_gaussian(self):
        rob = ExperimentConfig(kind="robustness", tau=2.0, truncation_multiple=None)
        assert math.isinf(rob.kernel().support_radius)

    def test_explicit_multiple_scales_with_tau(self):
        cfg = ExperimentConfig(kind="efficiency", tau=2.0, truncation_multiple=1.5)
        assert cfg.kernel().support_radius == pytest.approx(3.0)

    def test_auto_sentinel_exported(self):
        cfg = ExperimentConfig(kind="robustness", tau=1.0, truncation_multiple=AUTO)
        assert cfg.truncation_multiple == DEFAULT_ROBUSTNESS_TRUNCATION

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(kind="mystery", tau=1.0),
            dict(kind="efficiency", tau=0.0),
            dict(kind="efficiency", tau=1.0, n_points=0),
            dict(kind="efficiency", tau=1.0, replications=0),
            dict(kind="efficiency", tau=1.0, seed=-1),
            dict(kind="efficiency", tau=1.0, seed=2**64),
            dict(kind="efficiency", tau=1.0, truncation_multiple=-2.0),
            dict(kind="efficiency", tau=1.0, truncation_multiple="wide"),
            dict(kind="efficiency", tau=1.0, stop_displacement=0.0),
            dict(kind="efficiency", tau=1.0, max_iterations=0),
            dict(kind="efficiency", tau=1.0, merge_tolerance=-1e-9),
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentConfig(**kwargs)

    def test_wrong_kind_rejected_by_runners(self):
        cfg = ExperimentConfig(kind="efficiency", tau=1.0, replications=2)
        with pytest.raises(ValueError):
            run_robustness(cfg)
        with pytest.raises(ValueError):
            run_convergence_rate(cfg)
        cfg2 = ExperimentConfig(kind="robustness", tau=1.0, replications=2)
        with pytest.raises(ValueError):
            run_efficiency(cfg2)


class TestReplicationStreams:
    def test_substreams_differ(self):
        a = replication_rng(0, 0).standard_normal(4)
        b = replication_rng(0, 1).standard_normal(4)
        assert not np.array_equal(a, b)

    def test_substreams_reproducible(self):
        a = replication_rng(123, 77).standard_normal(4)
        b = replication_rng(123, 77).standard_normal(4)
        assert np.array_equal(a, b)


class TestRunEfficiency:
    def test_small_run_shape_and_ordering(self):
        cfg = ExperimentConfig(kind="efficiency", tau=1.0, replications=60, seed=21)
        rep = run_efficiency(cfg)
        assert rep.excluded_replications == 0
        assert rep.sample_mean.count == rep.blurring.count == rep.nonblurring.count == 60
        for key in ("sample_mean", "blurring", "nonblurring"):
            assert rep.values[key].shape == (60,)
        # the central comparison, already visible at 60 replications
        assert rep.sample_mean.std < rep.blurring.std < rep.nonblurring.std
        assert abs(rep.blurring.mean) < 0.05

    def test_bit_identical_reruns(self):
        cfg = ExperimentConfig(kind="efficiency", tau=1.0, replications=8, seed=11)
        r1 = run_efficiency(cfg)
        r2 = run_efficiency(cfg)
        for key in r1.values:
            assert np.array_equal(r1.values[key], r2.values[key])
        assert r1.blurring == r2.blurring

    def test_seed_changes_values(self):
        r1 = run_efficiency(
            ExperimentConfig(kind="efficiency", tau=1.0, replications=5, seed=1)
        )
        r2 = run_efficiency(
            ExperimentConfig(kind="efficiency", tau=1.0, replications=5, seed=2)
        )
        assert not np.array_equal(r1.values["blurring"], r2.values["blurring"])

    def test_exclusions_counted_not_fatal(self):
        # tau=0.5 stalls some blurring runs at the default budget; those
        # replications must be dropped from every statistic and counted
        cfg = ExperimentConfig(kind="efficiency", tau=0.5, replications=60, seed=7)
        rep = run_efficiency(cfg)
        assert rep.excluded_replications >= 1
        assert rep.blurring.count + rep.excluded_replications == 60
        assert rep.values["blurring"].size == rep.blurring.count

    def test_capped_blurring_skips_nonblurring(self, monkeypatch):
        # at this budget some replications cap in blurring, some only in
        # nonblurring, and some converge in both
        cfg = ExperimentConfig(
            kind="efficiency", tau=0.5, n_points=30, replications=12, seed=0,
            max_iterations=80,
        )
        calls = []

        def counted_run(points, config, data=None):
            final, trace = run(points, config, data)
            calls.append((config.mode, trace.converged))
            return final, trace

        monkeypatch.setattr(experiments, "run", counted_run)
        rep = run_efficiency(cfg)
        # reference: both modes on every replication, excluded unless both converge
        want_calls, kept = [], []
        values = {"sample_mean": [], "blurring": [], "nonblurring": []}
        for r in range(cfg.replications):
            points = sample_gaussian(cfg.n_points, 0.0, 1.0, replication_rng(cfg.seed, r))
            blur, blur_trace = run(points, cfg.engine_config("blurring"))
            fixed, fixed_trace = run(points, cfg.engine_config("nonblurring"))
            want_calls.append(("blurring", blur_trace.converged))
            if blur_trace.converged:
                want_calls.append(("nonblurring", fixed_trace.converged))
            if blur_trace.converged and fixed_trace.converged:
                kept.append(r)
                values["sample_mean"].append(float(points.positions[:, 0].mean()))
                for name, final in (("blurring", blur), ("nonblurring", fixed)):
                    centre = majority_mode(extract_clusters(final, cfg.merge_tolerance))
                    values[name].append(float(centre[0]))
        assert calls == want_calls
        assert ("blurring", False) in calls and ("nonblurring", False) in calls
        assert len(kept) >= 2
        assert rep.excluded_replications == cfg.replications - len(kept)
        assert rep.replication_indices.tolist() == kept
        for name, want in values.items():
            assert np.array_equal(rep.values[name], want), name

    def test_all_replications_failing_is_an_error(self):
        cfg = ExperimentConfig(
            kind="efficiency", tau=0.5, replications=3, seed=0, max_iterations=1
        )
        with pytest.raises(RuntimeError):
            run_efficiency(cfg)


class TestRunRobustness:
    def test_contaminated_mean_bias_pattern(self):
        cfg = ExperimentConfig(kind="robustness", tau=0.5, replications=40, seed=5)
        rep = run_robustness(cfg)
        # sample mean inherits the 0.25 contamination bias; the majority
        # mode of either iteration does not
        assert abs(rep.sample_mean.mean - 0.25) < 0.07
        assert abs(rep.blurring.mean) < 0.08
        assert abs(rep.nonblurring.mean) < 0.08
        assert rep.blurring.std < rep.sample_mean.mean

    def test_default_mixture_is_contaminated(self):
        cfg = ExperimentConfig(kind="robustness", tau=1.0, replications=2, seed=0)
        assert cfg.mixture is None
        rep = run_robustness(cfg)  # falls back to the 95/5 design
        assert rep.blurring.count == 2

    def test_custom_mixture_used(self):
        clean = MixtureSpec(means=(0.0,), stds=(1.0,), proportions=(1.0,))
        cfg = ExperimentConfig(
            kind="robustness", tau=1.0, replications=10, seed=3, mixture=clean
        )
        rep = run_robustness(cfg)
        assert abs(rep.sample_mean.mean) < 0.15  # no contamination bias


class TestRunConvergenceRate:
    def test_series_shapes_and_decay(self):
        cfg = ExperimentConfig(kind="convergence_rate", tau=2.0, seed=3,
                               replications=1)
        rep = run_convergence_rate(cfg)
        assert isinstance(rep, ConvergenceRateReport)
        for series in (rep.blurring, rep.nonblurring):
            assert series.means.shape == series.stds.shape
            assert series.stds[0] == pytest.approx(1.0, abs=0.3)
            assert abs(series.means[-1]) < 0.3
        # both modes start from the same sample
        assert rep.blurring.means[0] == rep.nonblurring.means[0]
        assert rep.blurring.stds[0] == rep.nonblurring.stds[0]

    def test_first_step_shrinkage_ratio(self):
        # with tau=2 on unit-variance data the one-step std ratio is near
        # 1/(1+4) = 0.2 for both modes
        cfg = ExperimentConfig(kind="convergence_rate", tau=2.0, seed=3,
                               replications=1)
        rep = run_convergence_rate(cfg)
        for series in (rep.blurring, rep.nonblurring):
            ratio = series.stds[1] / series.stds[0]
            assert 0.15 < ratio < 0.30

    def test_blurring_collapses_cubically_faster(self):
        cfg = ExperimentConfig(kind="convergence_rate", tau=2.0, seed=3,
                               replications=1)
        rep = run_convergence_rate(cfg)
        # after three steps the blurring cloud is many orders tighter
        assert rep.blurring.stds[3] < 1e-6
        assert rep.nonblurring.stds[3] > 1e-3
        # nonblurring keeps a near-constant geometric ratio instead
        ratios = rep.nonblurring.stds[2:5] / rep.nonblurring.stds[1:4]
        assert np.all((ratios > 0.15) & (ratios < 0.30))

    def test_log_series_matches_stds(self):
        cfg = ExperimentConfig(kind="convergence_rate", tau=2.0, seed=3,
                               replications=1)
        rep = run_convergence_rate(cfg)
        logs = rep.nonblurring.log10_stds
        assert np.allclose(10.0 ** logs, rep.nonblurring.stds, rtol=1e-12)

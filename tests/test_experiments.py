"""Monte Carlo harness tests.

Statistical assertions use wide tolerances around fixed seeds, so every run
is deterministic; nothing here depends on luck. Full-scale table
reproduction lives in the acceptance suite.
"""

import json
import math

import numpy as np
import pytest

from blurshift import cli, engine, fileio
from blurshift.engine import (
    DEFAULT_MERGE_TOLERANCE,
    PointSet,
    extract_clusters,
    majority_mode,
    run,
)
from blurshift.experiments import (
    _contaminated_sample,
    _standard_sample,
    AUTO,
    DEFAULT_ROBUSTNESS_TRUNCATION,
    ConvergenceRateReport,
    ExperimentConfig,
    OUTLIER_MEAN,
    SummaryStat,
    replication_rng,
    run_convergence_rate,
    run_efficiency,
    run_robustness,
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
    """The efficiency and convergence-rate sample: n draws from N(0, 1)."""

    # recorded from the general Gaussian sampler this draw replaced
    RECORDED = (
        8.109669349071558,
        [0.1257302210933933, -0.1321048632913019, 0.6404226504432821,
         0.10490011715303971, -0.535669373161111],
        [1.0314530848694723, 0.16100957671534466, -0.5855288241233366,
         -1.341219714076669, -1.401520214917428],
    )

    def test_canonical_efficiency_draw(self):
        total, first, last = self.RECORDED
        pts = _standard_sample(100, replication_rng(0, 0))
        x = pts.positions[:, 0]
        assert pts.positions.shape == (100, 1)
        assert float(x.sum()) == total
        assert x[:5].tolist() == first
        assert x[-5:].tolist() == last

    def test_mean_near_zero_at_scale(self):
        pts = _standard_sample(100_000, np.random.default_rng(0))
        assert abs(pts.positions.mean()) < 3.0 / math.sqrt(100_000)

    def test_same_seed_identical(self):
        a = _standard_sample(50, np.random.default_rng(42))
        b = _standard_sample(50, np.random.default_rng(42))
        assert np.array_equal(a.positions, b.positions)

    def test_unit_weights(self):
        pts = _standard_sample(10, np.random.default_rng(0))
        assert np.array_equal(pts.weights, np.ones(10))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            _standard_sample(0, np.random.default_rng(0))


class TestMixture:
    """The robustness sample: the fixed 95/5 design of N(0, 1) and N(5, 1)."""

    # recorded from the general mixture sampler this draw replaced
    RECORDED = {
        (0, 0): (
            33.10966934907156,
            [0.1257302210933933, -0.1321048632913019, 0.6404226504432821,
             0.10490011715303971, -0.535669373161111],
            [6.031453084869472, 5.161009576715345, 4.414471175876663,
             3.658780285923331, 3.598479785082572],
        ),
        (7, 3): (
            23.007851039670193,
            [-1.667279001670178, 0.06387511169027424, 1.4946322078314938,
             -1.128395246104112, -0.41154969128643465],
            [4.975233253858126, 4.636932259533157, 4.891030535624182,
             4.734141210554679, 5.8810998736483775],
        ),
    }

    def test_canonical_contaminated_design(self):
        for stream, (total, first, last) in self.RECORDED.items():
            pts = _contaminated_sample(100, replication_rng(*stream))
            x = pts.positions[:, 0]
            assert pts.positions.shape == (100, 1)
            assert float(x.sum()) == total
            assert x[:5].tolist() == first
            assert x[-5:].tolist() == last

    @staticmethod
    def _assert_fixed_split(n, seed):
        # the first n - n // 20 draws are the core, the rest the outliers
        twin = replication_rng(seed, 0)
        core = twin.standard_normal(n - n // 20)
        outliers = twin.standard_normal(n // 20) + OUTLIER_MEAN
        x = _contaminated_sample(n, replication_rng(seed, 0)).positions[:, 0]
        assert x.shape == (n,)
        assert np.array_equal(x[: n - n // 20], core)
        assert np.array_equal(x[n - n // 20 :], outliers)

    def test_exact_component_counts(self):
        for n in (20, 40, 100):
            self._assert_fixed_split(n, 0)

    def test_counts_deterministic_across_seeds(self):
        # the 95/5 split is fixed by design, not redrawn: 5 outliers in 100
        # whatever the stream
        for seed in range(5):
            self._assert_fixed_split(100, seed)

    def test_fractional_counts_rejected(self, capsys, tmp_path):
        with pytest.raises(ValueError, match="n_points"):
            ExperimentConfig(kind="robustness", tau=1.0, n_points=101)
        ExperimentConfig(kind="efficiency", tau=1.0, n_points=101)
        ExperimentConfig(kind="convergence_rate", tau=1.0, n_points=101)
        code = cli.main(
            ["experiment", "--kind", "robustness", "--tau", "1", "--reps", "2",
             "--n-points", "101", "--out", str(tmp_path / "r.json")]
        )
        err = json.loads(capsys.readouterr().err)
        assert code == 1
        assert err["error"]["code"] == "invalid-argument"
        assert "n_points" in err["error"]["message"]

    def test_mixture_mean_matches_design(self):
        # 0.95*0 + 0.05*5 = 0.25
        pts = _contaminated_sample(20_000, np.random.default_rng(2))
        assert abs(pts.positions.mean() - 0.25) < 0.05


class TestExperimentConfig:
    def test_truncation_resolves_by_kind(self):
        rob = ExperimentConfig(kind="robustness", tau=1.0)
        assert rob.truncation_multiple == DEFAULT_ROBUSTNESS_TRUNCATION
        assert rob.kernel().support_radius == pytest.approx(3.0)
        eff = ExperimentConfig(kind="efficiency", tau=1.0)
        assert eff.truncation_multiple is None
        assert math.isinf(eff.kernel().support_radius)

    @pytest.mark.parametrize(
        "kind, replications, merge_tolerance, truncation_multiple",
        [
            ("efficiency", 2000, DEFAULT_MERGE_TOLERANCE, None),
            ("robustness", 2000, DEFAULT_MERGE_TOLERANCE, DEFAULT_ROBUSTNESS_TRUNCATION),
            ("convergence_rate", 1, None, None),
        ],
    )
    def test_defaults_resolve_by_kind(self, kind, replications, merge_tolerance,
                                      truncation_multiple):
        resolved = (replications, merge_tolerance, truncation_multiple)
        cfg = ExperimentConfig(kind=kind, tau=1.0)
        assert (cfg.replications, cfg.merge_tolerance, cfg.truncation_multiple) == resolved
        auto = ExperimentConfig(
            kind=kind, tau=1.0, replications=AUTO, merge_tolerance=AUTO,
            truncation_multiple=AUTO,
        )
        assert auto == cfg

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            (dict(kind="convergence_rate", replications=5), "replications"),
            (dict(kind="convergence_rate", merge_tolerance=0.5), "merge_tolerance"),
            (dict(kind="efficiency", replications=1), "replications"),
            (dict(kind="robustness", replications=1), "replications"),
        ],
    )
    def test_settings_the_kind_cannot_use_named(self, kwargs, field):
        with pytest.raises(ValueError, match=field) as info:
            ExperimentConfig(tau=2.0, **kwargs)
        assert kwargs["kind"] in str(info.value)

    COUNTS = dict(replications=3, n_points=20, max_iterations=100, seed=4)

    @pytest.mark.parametrize("field", list(COUNTS))
    @pytest.mark.parametrize("value", [2.5, True])
    def test_count_must_be_an_integer(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            ExperimentConfig(kind="efficiency", tau=1.0, **{field: value})

    @pytest.mark.parametrize("field", list(COUNTS))
    def test_numpy_integer_count_stored_as_int(self, field):
        cfg = ExperimentConfig(kind="efficiency", tau=1.0, **{field: np.int64(self.COUNTS[field])})
        assert type(getattr(cfg, field)) is int
        assert cfg == ExperimentConfig(kind="efficiency", tau=1.0, **{field: self.COUNTS[field]})

    def test_numpy_integer_counts_write_their_report(self, tmp_path):
        counts = {name: np.int64(value) for name, value in self.COUNTS.items()}
        numpy_path, plain_path = tmp_path / "numpy.json", tmp_path / "plain.json"
        report = run_efficiency(ExperimentConfig(kind="efficiency", tau=1.0, **counts))
        fileio.write_experiment_report_json(str(numpy_path), report)
        report = run_efficiency(ExperimentConfig(kind="efficiency", tau=1.0, **self.COUNTS))
        fileio.write_experiment_report_json(str(plain_path), report)
        assert numpy_path.read_bytes() == plain_path.read_bytes()

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
            dict(kind="efficiency", tau=1.0, merge_tolerance=math.inf),
            dict(kind="efficiency", tau=1.0, stop_displacement=math.inf),
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentConfig(**kwargs)

    @pytest.mark.parametrize("kind", ["robustness", "efficiency"])
    @pytest.mark.parametrize("multiple", [-2.0, 0.0, math.nan])
    def test_bad_truncation_multiple_named(self, kind, multiple):
        # the kernel would reject it too, but name its own support_radius
        with pytest.raises(ValueError, match="truncation_multiple"):
            ExperimentConfig(kind=kind, tau=1.0, truncation_multiple=multiple)

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

    def test_capped_blurring_skips_nonblurring(self):
        # at this budget some replications cap in blurring, some only in
        # nonblurring, and some converge in both
        cfg = ExperimentConfig(
            kind="efficiency", tau=0.5, n_points=30, replications=12, seed=0,
            max_iterations=80,
        )
        rep = run_efficiency(cfg)
        # the runs each replication made, read from its per-mode record: a
        # nonblurring run that did not happen has 0 iterations
        calls = []
        for r in range(cfg.replications):
            for mode in ("blurring", "nonblurring"):
                if rep.iterations[mode][r]:
                    calls.append((mode, bool(rep.converged[mode][r])))
        # reference: both modes on every replication, excluded unless both converge
        want_calls, kept = [], []
        values = {"sample_mean": [], "blurring": [], "nonblurring": []}
        for r in range(cfg.replications):
            points = PointSet(replication_rng(cfg.seed, r).standard_normal(cfg.n_points))
            blur, blur_trace = run(points, cfg.engine_config("blurring"))
            fixed, fixed_trace = run(points, cfg.engine_config("nonblurring"))
            want_calls.append(("blurring", blur_trace.converged))
            assert rep.iterations["blurring"][r] == blur_trace.iterations
            if blur_trace.converged:
                want_calls.append(("nonblurring", fixed_trace.converged))
                assert rep.iterations["nonblurring"][r] == fixed_trace.iterations
            else:
                assert rep.iterations["nonblurring"][r] == 0
                assert not rep.converged["nonblurring"][r]
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


class TestBatches:
    """Replications step through the engine in batches; a report is the
    same bit for bit whatever the batch size."""

    @pytest.mark.parametrize("kind", ["efficiency", "robustness"])
    def test_reports_do_not_depend_on_the_batch_size(self, kind, monkeypatch):
        # tau 0.5 at this budget caps some blurring and some nonblurring runs
        cfg = ExperimentConfig(
            kind=kind, tau=0.5, n_points=40, replications=20, seed=3, max_iterations=150,
        )
        runner = run_efficiency if kind == "efficiency" else run_robustness
        reports = {}
        for size in (1, 7, 64):
            monkeypatch.setattr(engine, "_BATCH", size)
            reports[size] = runner(cfg)
        one = reports[1]
        for rep in reports.values():
            assert rep.excluded_replications == one.excluded_replications
            assert rep.replication_indices.tolist() == one.replication_indices.tolist()
            for name in ("sample_mean", "blurring", "nonblurring"):
                assert rep.values[name].tobytes() == one.values[name].tobytes(), name
                assert getattr(rep, name) == getattr(one, name)
            for mode in ("blurring", "nonblurring"):
                assert rep.iterations[mode].tolist() == one.iterations[mode].tolist()
                assert rep.converged[mode].tolist() == one.converged[mode].tolist()
        # and every replication's runs are the runs it gets alone
        sample = _standard_sample if kind == "efficiency" else _contaminated_sample
        capped = 0
        for r in range(cfg.replications):
            points = sample(cfg.n_points, replication_rng(cfg.seed, r))
            for mode in ("blurring", "nonblurring"):
                if one.iterations[mode][r]:
                    final, trace = run(points, cfg.engine_config(mode))
                    assert one.iterations[mode][r] == trace.iterations
                    assert one.converged[mode][r] == trace.converged
                    capped += not trace.converged
                    if r in one.replication_indices:
                        k = one.replication_indices.tolist().index(r)
                        centre = majority_mode(extract_clusters(final, cfg.merge_tolerance))
                        assert one.values[mode][k] == centre[0]
        assert capped and one.excluded_replications < cfg.replications - 2


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
        rep = run_robustness(cfg)  # the 95/5 design
        assert rep.blurring.count == 2


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

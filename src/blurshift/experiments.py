"""Monte Carlo harnesses for mode-estimation studies.

Three experiment kinds over 1-d Gaussian data:

* efficiency: compare the spread of three location statistics over many
  replications: the sample mean, the blurring limit point, and the majority
  mode of nonblurring centers started on the data.
* robustness: same comparison under 5% contamination by a far cluster, where
  the majority mode should ignore the outliers but the sample mean cannot.
* convergence_rate: per-iteration mean and spread of the cloud for both
  modes on one sample, showing the collapse speed difference.

Every replication draws from its own RNG substream derived from the master
seed and the replication index, and the engine steps a batch of
replications exactly as it steps each alone, so reports are bit-identical
regardless of how replications are scheduled or batched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from .engine import (
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_MERGE_TOLERANCE,
    DEFAULT_STOP_DISPLACEMENT,
    PointSet,
    RunConfig,
    extract_clusters,
    majority_mode,
    run,
)
from .engine import _as_count, _batch_size, _iterate, _raise_first, _scaled_weights
from .kernels import GaussianKernel

__all__ = [
    "ExperimentConfig",
    "SummaryStat",
    "ExperimentReport",
    "ConvergenceSeries",
    "ConvergenceRateReport",
    "summarize",
    "replication_rng",
    "run_efficiency",
    "run_robustness",
    "run_convergence_rate",
    "TooFewConvergedError",
]


class TooFewConvergedError(RuntimeError):
    """Fewer than two replications converged in both modes, so there is no
    spread to summarize."""

    def __init__(self, converged: int, replications: int):
        self.converged = int(converged)
        self.replications = int(replications)
        super().__init__(
            f"{converged} of {replications} replications converged in both modes; "
            "at least two are needed to summarize"
        )


# the modes of a comparison, in the order a replication runs them
_MODES = ("blurring", "nonblurring")

# Sentinel: resolve a setting per experiment kind (see ExperimentConfig).
AUTO = "auto"
DEFAULT_ROBUSTNESS_TRUNCATION = 3.0

# The robustness sample is a fixed design: one point in OUTLIER_ONE_IN is
# an outlier, drawn from N(OUTLIER_MEAN, 1) after the N(0, 1) core.
OUTLIER_ONE_IN = 20
OUTLIER_MEAN = 5.0


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings for one experiment run.

    replications, merge_tolerance and truncation_multiple default to AUTO,
    which resolves per kind:

    ================  ============  ===============  ===================
    kind              replications  merge_tolerance  truncation_multiple
    ================  ============  ===============  ===================
    efficiency        2000          1e-6             None
    robustness        2000          1e-6             3.0
    convergence_rate  1             None             None
    ================  ============  ===============  ===================

    A value set by hand must suit the kind: the efficiency and robustness
    tables need at least 2 replications; convergence_rate runs exactly 1
    and, labelling no clusters, takes no merge_tolerance.

    truncation_multiple: a number cuts the Gaussian influence to exactly
    zero beyond that multiple of tau, in BOTH modes. None keeps the
    everywhere-positive profile, under which a single cluster is guaranteed
    and outlier separation would hinge on float underflow; robustness cuts
    by default so that the outlier cluster decouples deterministically.

    n_points: for robustness a multiple of OUTLIER_ONE_IN, so the outlier
    count is exact.
    """

    kind: str
    tau: float
    n_points: int = 100
    replications: int = AUTO
    seed: int = 0
    truncation_multiple: object = AUTO
    stop_displacement: float = DEFAULT_STOP_DISPLACEMENT
    max_iterations: int = DEFAULT_MAX_ITERATIONS
    merge_tolerance: object = AUTO

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown experiment kind: {self.kind!r}")
        kind = _KINDS[self.kind]
        for name in ("replications", "merge_tolerance", "truncation_multiple"):
            if getattr(self, name) == AUTO:
                object.__setattr__(self, name, getattr(kind, name))
        for name in ("n_points", "replications", "seed", "max_iterations"):
            object.__setattr__(self, name, _as_count(name, getattr(self, name)))
        multiple = self.truncation_multiple
        if multiple is not None and not (isinstance(multiple, (int, float)) and multiple > 0):
            raise ValueError(
                f"truncation_multiple must be a positive number, None, or 'auto', "
                f"got {multiple!r}"
            )
        if self.n_points < 1:
            raise ValueError("n_points must be at least 1")
        if self.kind == "robustness" and self.n_points % OUTLIER_ONE_IN:
            raise ValueError(
                f"n_points must be a multiple of {OUTLIER_ONE_IN} for robustness "
                f"(one outlier in {OUTLIER_ONE_IN}), got {self.n_points}"
            )
        if kind.replications == 1 and self.replications != 1:
            raise ValueError(
                f"replications must be 1 for {self.kind}, which runs one sample; "
                f"got {self.replications}"
            )
        if kind.replications > 1 and not self.replications >= 2:
            raise ValueError(
                f"replications must be at least 2 for {self.kind}, whose table "
                f"summarizes a spread; got {self.replications}"
            )
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit an unsigned 64-bit integer")
        if kind.merge_tolerance is None and self.merge_tolerance is not None:
            raise ValueError(
                f"merge_tolerance does not apply to {self.kind}, which labels no "
                f"clusters; got {self.merge_tolerance}"
            )
        # extract_clusters would only see a bad tolerance after a whole run
        if kind.merge_tolerance is not None and not 0 <= self.merge_tolerance < math.inf:
            raise ValueError(f"merge_tolerance must be nonnegative and finite for {self.kind}")
        # the kernel and the run settings reject bad values themselves
        self.engine_config("blurring")

    def kernel(self) -> GaussianKernel:
        if self.truncation_multiple is None:
            return GaussianKernel(tau=self.tau)
        return GaussianKernel(
            tau=self.tau, support_radius=self.truncation_multiple * self.tau
        )

    def engine_config(self, mode: str) -> RunConfig:
        return RunConfig(
            kernel=self.kernel(),
            mode=mode,
            stop_displacement=self.stop_displacement,
            max_iterations=self.max_iterations,
            trace_level="none",
        )


@dataclass(frozen=True)
class SummaryStat:
    mean: float
    std: float
    count: int


def summarize(values) -> SummaryStat:
    """Arithmetic mean and unbiased (count - 1) standard deviation."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("need at least two values to summarize")
    return SummaryStat(
        mean=float(arr.mean()), std=float(arr.std(ddof=1)), count=int(arr.size)
    )


@dataclass
class ExperimentReport:
    """Aggregated statistics plus the raw per-replication values behind them.

    values maps statistic name -> array over the replications that
    converged; replication_indices holds their original indices, so raw
    values stay attributable after exclusions; excluded_replications counts
    the ones that did not converge and were left out of every aggregate.

    iterations and converged map each mode to an array over every
    replication: the iterations its run of that mode took, and whether it
    converged. Nonblurring does not run after a blurring run that did not
    converge; there its iterations read 0 and converged False.
    """

    config: ExperimentConfig
    sample_mean: SummaryStat
    blurring: SummaryStat
    nonblurring: SummaryStat
    excluded_replications: int
    values: dict = field(default_factory=dict)
    replication_indices: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=int)
    )
    iterations: dict = field(default_factory=dict)
    converged: dict = field(default_factory=dict)


@dataclass
class ConvergenceSeries:
    """Per-iteration cloud statistics for one mode, index 0 the raw sample."""

    mode: str
    means: np.ndarray
    stds: np.ndarray

    @property
    def log10_stds(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log10(self.stds)


@dataclass
class ConvergenceRateReport:
    config: ExperimentConfig
    blurring: ConvergenceSeries
    nonblurring: ConvergenceSeries


def replication_rng(seed: int, replication: int) -> np.random.Generator:
    """The RNG substream for one replication: seeded by (master seed,
    replication index), so any scheduling order reproduces the same draws."""
    return np.random.default_rng([int(seed), int(replication)])


def _standard_sample(n: int, rng: np.random.Generator) -> PointSet:
    """The efficiency and convergence-rate design: n points from N(0, 1)."""
    return PointSet(rng.standard_normal(n))


def _contaminated_sample(n: int, rng: np.random.Generator) -> PointSet:
    """The robustness design: n - n // OUTLIER_ONE_IN core points, then the
    outliers, exact counts and never a multinomial draw."""
    outliers = n // OUTLIER_ONE_IN
    core = rng.standard_normal(n - outliers)
    return PointSet(np.concatenate([core, rng.standard_normal(outliers) + OUTLIER_MEAN]))


class _Kind(NamedTuple):
    """What one experiment kind draws, and what AUTO resolves to for it."""

    sample: Callable[[int, np.random.Generator], PointSet]
    replications: int
    merge_tolerance: Optional[float]
    truncation_multiple: Optional[float]


# The tables summarize a spread over many replications; the series runs one
# sample and labels no clusters, so it has no merge tolerance.
_KINDS = {
    "efficiency": _Kind(_standard_sample, 2000, DEFAULT_MERGE_TOLERANCE, None),
    "robustness": _Kind(
        _contaminated_sample, 2000, DEFAULT_MERGE_TOLERANCE, DEFAULT_ROBUSTNESS_TRUNCATION
    ),
    "convergence_rate": _Kind(_standard_sample, 1, None, None),
}


def _run_comparison(config: ExperimentConfig) -> ExperimentReport:
    """Shared replication loop: draw the kind's sample, run both modes on
    that sample, record the three location statistics. A replication whose
    engine run exhausts the iteration budget is counted and excluded; the
    modes run in order and stop at the first that does.

    Replications run in batches: blurring on every replication of the
    batch, then nonblurring on those whose blurring converged. Each gets
    bitwise what it gets run alone, and a failure raises the error that
    running the replications one at a time would meet first."""
    kind = _KINDS[config.kind]
    kernel = config.kernel()
    reps = config.replications
    iterations = {mode: np.zeros(reps, dtype=int) for mode in _MODES}
    converged = {mode: np.zeros(reps, dtype=bool) for mode in _MODES}
    values = {"sample_mean": [], "blurring": [], "nonblurring": []}
    kept = []
    size = _batch_size(config.n_points)
    for start in range(0, reps, size):
        batch = np.arange(start, min(start + size, reps))
        samples = [kind.sample(config.n_points, replication_rng(config.seed, r)) for r in batch]
        x = np.stack([s.positions for s in samples])
        w = np.stack([_scaled_weights(s.weights) for s in samples])
        finals, errors = {}, {}
        go = np.arange(batch.size)
        for mode in _MODES:
            final, its, conv, failed = _iterate(
                x[go], w[go], kernel, None if mode == "blurring" else x[go],
                config.stop_displacement, config.max_iterations,
            )
            iterations[mode][batch[go]] = its
            converged[mode][batch[go]] = conv
            finals[mode] = dict(zip(go.tolist(), final))
            errors.update((int(go[b]), exc) for b, exc in failed.items())
            # nonblurring runs where blurring converged
            go = go[conv]
        _raise_first(errors)
        for b, r in enumerate(batch.tolist()):
            if converged["blurring"][r] and converged["nonblurring"][r]:
                kept.append(r)
                values["sample_mean"].append(float(samples[b].positions[:, 0].mean()))
                for mode in _MODES:
                    final = PointSet(finals[mode][b], samples[b].weights)
                    centre = majority_mode(extract_clusters(final, config.merge_tolerance))
                    values[mode].append(float(centre[0]))
    if len(kept) < 2:
        raise TooFewConvergedError(len(kept), config.replications)
    values = {name: np.array(v) for name, v in values.items()}
    return ExperimentReport(
        config=config,
        sample_mean=summarize(values["sample_mean"]),
        blurring=summarize(values["blurring"]),
        nonblurring=summarize(values["nonblurring"]),
        excluded_replications=config.replications - len(kept),
        values=values,
        replication_indices=np.array(kept, dtype=int),
        iterations=iterations,
        converged=converged,
    )


def run_efficiency(config: ExperimentConfig) -> ExperimentReport:
    """Spread of the three location statistics on clean standard-normal
    samples. The blurring statistic is the center of the largest cluster,
    which under an everywhere-positive kernel is the single common limit."""
    if config.kind != "efficiency":
        raise ValueError("config.kind must be 'efficiency'")
    return _run_comparison(config)


def run_robustness(config: ExperimentConfig) -> ExperimentReport:
    """Same comparison on the 95/5 far-outlier design; the majority mode
    discards the outlier cluster whenever the kernel truncation keeps it
    decoupled."""
    if config.kind != "robustness":
        raise ValueError("config.kind must be 'robustness'")
    return _run_comparison(config)


def run_convergence_rate(config: ExperimentConfig) -> ConvergenceRateReport:
    """Single-sample run of both modes with full traces, reduced to
    per-iteration mean and std of the cloud."""
    if config.kind != "convergence_rate":
        raise ValueError("config.kind must be 'convergence_rate'")
    points = _KINDS[config.kind].sample(config.n_points, replication_rng(config.seed, 0))

    def series(mode: str) -> ConvergenceSeries:
        _, trace = run(points, replace(config.engine_config(mode), trace_level="full"))
        means = np.array([float(x[:, 0].mean()) for x in trace.positions])
        return ConvergenceSeries(mode=mode, means=means, stds=trace.stds[:, 0])

    return ConvergenceRateReport(
        config=config,
        blurring=series("blurring"),
        nonblurring=series("nonblurring"),
    )

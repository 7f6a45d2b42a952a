import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blurshift.kernels import (
    GaussianKernel,
    TabulatedKernel,
    TruncatedFlatKernel,
    kernel_to_config,
)

from oracles import gaussian_profile, influence_sq, stepped_profile, tabulated_profile


# one kernel of each family, with and without a cutoff, including a flat
# kernel whose first threshold is above 0 and one cut below its last threshold
EVERY_FAMILY = (
    GaussianKernel(tau=0.7),
    GaussianKernel(tau=0.7, support_radius=2.0),
    TruncatedFlatKernel(levels=((0.0, 1.0), (1.0, 0.5))),
    TruncatedFlatKernel(levels=((1.0, 0.5), (2.0, 0.25))),
    TruncatedFlatKernel(levels=((1.0, 0.5), (2.0, 0.25), (3.0, 0.1)), support_radius=1.5),
    TabulatedKernel(knots=((0.0, 1.0), (1.0, 0.5), (2.5, 0.1))),
    TabulatedKernel(knots=((0.0, 1.0), (1.0, 0.5), (2.5, 0.1)), support_radius=1.7),
)


# the smallest tau whose square is a normal double, and the largest one
# whose square doubled is finite
TAU_RANGE = (1.4916681462400413e-154, 9.480751908109176e153)


class TestGaussian:
    def test_frozen_values(self):
        k = GaussianKernel(tau=2.0)
        assert k.evaluate_sq(0.0) == 1.0
        assert k.evaluate_sq(2.0 * 2.0) == pytest.approx(math.exp(-0.5), rel=1e-15)
        assert k.evaluate_sq(4.0 * 4.0) == pytest.approx(math.exp(-2.0), rel=1e-15)

    def test_scalar_returns_float(self):
        v = GaussianKernel(1.0).evaluate_sq(1.5 * 1.5)
        assert isinstance(v, float)

    def test_array_shape_preserved(self):
        k = GaussianKernel(1.0)
        d = np.array([[0.0, 1.0], [2.0, 3.0]])
        assert k.evaluate_sq(d * d).shape == (2, 2)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            GaussianKernel(1.0).evaluate_sq(-0.01)

    # the last four square to 0 or a subnormal, or twice their square
    # overflows
    @pytest.mark.parametrize(
        "tau",
        [0.0, -1.0, math.nan, math.inf, 1e-170, 1e154,
         math.nextafter(TAU_RANGE[0], 0.0), math.nextafter(TAU_RANGE[1], math.inf)],
    )
    def test_bad_bandwidth_rejected(self, tau):
        with pytest.raises(ValueError, match="tau"):
            GaussianKernel(tau=tau)

    @pytest.mark.parametrize("tau", TAU_RANGE)
    def test_bandwidth_range_ends_accepted(self, tau):
        k = GaussianKernel(tau=tau)
        assert k.evaluate_sq(0.0) == 1.0 and k.evaluate_sq(tau * tau) == math.exp(-0.5)

    def test_bad_support_rejected(self):
        with pytest.raises(ValueError):
            GaussianKernel(1.0, support_radius=0.0)

    def test_cutoff_boundary_inclusive(self):
        k = GaussianKernel(tau=1.0, support_radius=3.0)
        assert k.evaluate_sq(3.0 * 3.0) == pytest.approx(math.exp(-4.5), rel=1e-15)
        assert k.evaluate_sq(3.0000001 * 3.0000001) == 0.0
        assert k.evaluate_sq(10.0 * 10.0) == 0.0

    @given(
        tau=st.floats(0.05, 50),
        d=st.lists(st.floats(0, 1e3), min_size=1, max_size=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_bounds_and_monotonicity(self, tau, d):
        k = GaussianKernel(tau=tau)
        d = np.sort(np.asarray(d))
        vals = k.evaluate_sq(d * d)
        assert np.all(vals >= 0) and np.all(vals <= 1)
        assert np.all(np.diff(vals) <= 1e-15)


class TestTruncatedFlat:
    def test_halving_band_semantics(self):
        # 1 at the origin, 1/2 out to distance 1 inclusive, dead beyond
        k = TruncatedFlatKernel(levels=((0.0, 1.0), (1.0, 0.5)))
        d = np.array([0.0, 0.25, 0.5, 1.0, 1.0000001, 1.5])
        got = k.evaluate_sq(d * d)
        assert got.tolist() == [1.0, 0.5, 0.5, 0.5, 0.0, 0.0]
        assert k.support_radius == 1.0

    def test_multi_band(self):
        k = TruncatedFlatKernel(levels=((0.5, 0.9), (2.0, 0.4), (3.0, 0.1)))
        d = np.array([0.0, 0.5, 0.6, 2.0, 2.5, 3.0, 3.1])
        got = k.evaluate_sq(d * d)
        assert got.tolist() == [1.0, 0.9, 0.4, 0.4, 0.1, 0.1, 0.0]
        assert k.support_radius == 3.0

    def test_trailing_zero_band_shrinks_support(self):
        k = TruncatedFlatKernel(levels=((1.0, 0.5), (2.0, 0.0)))
        assert k.support_radius == 1.0
        assert k.evaluate_sq(1.5 * 1.5) == 0.0

    def test_explicit_support_tightens(self):
        k = TruncatedFlatKernel(levels=((2.0, 0.5),), support_radius=1.0)
        assert k.evaluate_sq(0.5 * 0.5) == 0.5
        assert k.evaluate_sq(1.5 * 1.5) == 0.0
        assert k.support_radius == 1.0

    def test_zero_threshold_level_must_be_unit(self):
        with pytest.raises(ValueError):
            TruncatedFlatKernel(levels=((0.0, 0.9), (1.0, 0.5)))

    @pytest.mark.parametrize(
        "levels",
        [
            (),
            ((1.0, 0.5), (1.0, 0.4)),  # thresholds not strictly increasing
            ((2.0, 0.5), (1.0, 0.4)),
            ((1.0, 0.4), (2.0, 0.5)),  # values increase outward
            ((1.0, 1.5),),  # value above 1
            ((1.0, -0.1),),
            ((-1.0, 0.5),),  # negative threshold
        ],
    )
    def test_bad_levels_rejected(self, levels):
        with pytest.raises(ValueError):
            TruncatedFlatKernel(levels=levels)

    # the largest threshold whose square is finite is sqrt(max), 1.3407807929942596e154
    @pytest.mark.parametrize("t", [math.nan, math.inf, 1e200, 1.3407807929942597e154])
    def test_threshold_without_finite_square_rejected(self, t):
        with pytest.raises(ValueError, match="thresholds"):
            TruncatedFlatKernel(levels=((1.0, 0.5), (t, 0.25)))

    def test_largest_threshold_with_finite_square_accepted(self):
        k = TruncatedFlatKernel(levels=((1.3407807929942596e154, 0.5),))
        assert k.evaluate_sq(1.7e308) == 0.5

    def test_support_below_last_threshold_matches_scalar_reference(self):
        # the cut at 1.5 falls inside the (1, 2] level and drops the levels
        # beyond it
        levels = ((1.0, 0.5), (2.0, 0.25), (3.0, 0.1))
        k = TruncatedFlatKernel(levels=levels, support_radius=1.5)
        ref = stepped_profile(((1.0, 0.5), (1.5, 0.25)))
        d = np.r_[np.linspace(0, 3.5, 141), np.nextafter(1.5, 2.0), np.nextafter(1.0, 2.0)]
        want = np.array([ref(float(v)) for v in d])
        assert np.array_equal(k.evaluate_sq(d * d), want)
        assert k.evaluate_sq(2.25) == 0.25 and k.evaluate_sq(np.nextafter(2.25, 3.0)) == 0.0

    def test_matches_scalar_reference(self):
        levels = ((0.5, 0.8), (1.5, 0.3), (4.0, 0.05))
        k = TruncatedFlatKernel(levels=levels)
        ref = stepped_profile(levels)
        d = np.linspace(0, 5, 101)
        want = np.array([ref(float(v)) for v in d])
        assert np.array_equal(k.evaluate_sq(d * d), want)


class TestTabulated:
    def test_linear_interpolation(self):
        k = TabulatedKernel(knots=((0.0, 1.0), (2.0, 0.5)))
        assert k.evaluate_sq(1.0 * 1.0) == pytest.approx(0.75, abs=1e-15)
        assert k.evaluate_sq(2.0 * 2.0) == 0.5
        # last value holds beyond the final knot
        assert k.evaluate_sq(5.0 * 5.0) == 0.5
        assert math.isinf(k.support_radius)

    def test_cutoff_matches_scalar_reference(self):
        knots = ((0.0, 1.0), (1.0, 0.5), (2.5, 0.1))
        k = TabulatedKernel(knots=knots, support_radius=1.7)
        ref = tabulated_profile(knots)
        d = np.r_[np.linspace(0, 4, 81), 1.7, np.nextafter(1.7, 2.0)]
        want = np.array([ref(float(v)) if v * v <= 1.7 * 1.7 else 0.0 for v in d])
        np.testing.assert_allclose(k.evaluate_sq(d * d), want, rtol=1e-15, atol=0)
        past = np.nextafter(1.7, 2.0)
        assert k.evaluate_sq(past * past) == 0.0 and k.evaluate_sq(1.7 * 1.7) > 0.0

    def test_terminal_zero_sets_support(self):
        k = TabulatedKernel(knots=((0.0, 1.0), (1.0, 0.25), (2.0, 0.0)))
        assert k.support_radius == 2.0
        assert k.evaluate_sq(3.0 * 3.0) == 0.0

    def test_first_knot_must_be_unit_at_zero(self):
        with pytest.raises(ValueError):
            TabulatedKernel(knots=((0.0, 0.9), (1.0, 0.5)))
        with pytest.raises(ValueError):
            TabulatedKernel(knots=((0.5, 1.0), (1.0, 0.5)))

    @pytest.mark.parametrize("d", [math.nan, math.inf, 1e200, 1.3407807929942597e154])
    def test_knot_without_finite_square_rejected(self, d):
        with pytest.raises(ValueError, match="knot distances"):
            TabulatedKernel(knots=((0.0, 1.0), (d, 0.5)))

    def test_non_monotone_table_constructs(self):
        # construction does not check monotonicity: the knots are
        # interpolated as given
        k = TabulatedKernel(knots=((0.0, 1.0), (1.0, 0.6), (2.0, 0.7)))
        assert k.evaluate_sq(2.0 * 2.0) == 0.7


# one kernel of each family from its support radius, and the profile's own
# support, which a radius of None stands for
WITH_SUPPORT = (
    (lambda r: TruncatedFlatKernel(levels=((1.0, 0.5),), support_radius=r), 1.0),
    (lambda r: TabulatedKernel(knots=((0.0, 1.0), (1.0, 0.5)), support_radius=r), math.inf),
    (lambda r: GaussianKernel(1.0, support_radius=r), math.inf),
)


@pytest.mark.parametrize("make", [make for make, _ in WITH_SUPPORT])
@pytest.mark.parametrize("radius", [math.nan, 0.0, -1.0])
def test_bad_support_radius_rejected(make, radius):
    # nan is a bad radius like any other, not a request for the default
    with pytest.raises(ValueError, match="support_radius"):
        make(radius)


@pytest.mark.parametrize("make, own", WITH_SUPPORT, ids=["flat", "tabulated", "gaussian"])
def test_unset_support_radius_is_the_profiles_own(make, own):
    k = make(None)
    assert k.support_radius == own
    assert k == make(own)
    assert kernel_to_config(k) == kernel_to_config(make(own))


def test_gaussian_agrees_with_scalar_reference():
    tau = 1.3
    k = GaussianKernel(tau=tau, support_radius=2.5)
    ref = gaussian_profile(tau, cutoff=2.5)
    d = np.linspace(0, 4, 81)
    want = np.array([ref(float(v)) for v in d])
    assert np.allclose(k.evaluate_sq(d * d), want, rtol=1e-14, atol=0)


def test_evaluate_sq_matches_definition():
    sq = np.r_[np.linspace(0, 16, 321), 2.25, 4.41, np.nextafter(4.0, 5.0), 1e-300, 1e300]
    for k in EVERY_FAMILY:
        assert k.evaluate_sq(sq).tobytes() == influence_sq(k, sq).tobytes()


# (kernel, its squared zero radius): sqrt(1500) tau = 38.73 tau, so the
# Gaussian cut at 38.7 tau zeroes past its cutoff, the one cut at 38.8 tau
# past 1500 tau^2, where exp(-750) is already 0
ZERO_RADII = (
    (GaussianKernel(0.7), 1500 * 0.7 * 0.7),
    (GaussianKernel(0.7, support_radius=38.7 * 0.7), (38.7 * 0.7) ** 2),
    (GaussianKernel(0.7, support_radius=38.8 * 0.7), 1500 * 0.7 * 0.7),
    (TruncatedFlatKernel(levels=((1.0, 0.5), (2.0, 0.25))), 4.0),
    # cut inside the (1, 2] level
    (TruncatedFlatKernel(levels=((1.0, 0.5), (2.0, 0.25), (3.0, 0.1)), support_radius=1.5), 2.25),
    # its own support, where the profile reaches 0
    (TabulatedKernel(knots=((0.0, 1.0), (1.0, 0.5), (2.5, 0.0))), 6.25),
    (TabulatedKernel(knots=((0.0, 1.0), (1.0, 0.5), (2.5, 0.1)), support_radius=1.7), 1.7 * 1.7),
)


@pytest.mark.parametrize("kernel, zero_sq", ZERO_RADII)
def test_influence_past_the_zero_radius_is_exactly_zero(kernel, zero_sq):
    assert kernel._zero_sq == zero_sq
    past = np.array([np.nextafter(zero_sq, math.inf), 2.0 * zero_sq, 1e300])
    # +0.0 bit for bit, as the engine's zeroed tile entries are
    assert kernel.evaluate_sq(past).tobytes() == np.zeros(3).tobytes()


def test_unbounded_profile_has_no_zero_radius():
    k = TabulatedKernel(knots=((0.0, 1.0), (1.0, 0.5), (2.5, 0.1)))
    assert k._zero_sq == math.inf and k.evaluate_sq(1e300) == 0.1


@pytest.mark.parametrize("kernel", EVERY_FAMILY)
def test_nan_rejected_like_a_negative(kernel):
    # NaN is not below 0 either: unchecked, it came out as nan, or as 0 for
    # the flat kernel
    for sq in (math.nan, np.array([[0.0, 1.0], [math.nan, 4.0]])):
        with pytest.raises(ValueError, match="nonnegative"):
            kernel.evaluate_sq(sq)


@st.composite
def flat_kernels(draw):
    """A flat kernel of 1 to 300 levels, so of squared bounds on both sides
    of the 255 that a one-byte count holds, with or without a leading (0, 1)
    level, and sometimes cut inside one of its levels."""
    # half the draws near the limit, which the sizes of 1 to 300 rarely reach
    n = draw(st.one_of(st.integers(1, 300), st.integers(245, 260)))
    gaps = draw(st.lists(st.floats(1e-3, 10.0), min_size=n, max_size=n))
    thresholds = np.cumsum(gaps).tolist()
    values = sorted(
        draw(st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=n, max_size=n)),
        reverse=True,
    )
    # a zero level ends the support at the level before it; only the last
    # may be one, or the support would rarely reach past 255 bounds
    if draw(st.booleans()):
        values[-1] = 0.0
    levels = list(zip(thresholds, values))
    if draw(st.booleans()):
        levels.insert(0, (0.0, 1.0))
    radius = None
    if draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        radius = draw(st.floats(thresholds[i - 1] if i else 0.0, thresholds[i], exclude_min=True))
    return TruncatedFlatKernel(levels=tuple(levels), support_radius=radius)


@given(kernel=flat_kernels())
@settings(max_examples=100, deadline=None)
def test_flat_kernel_matches_definition_at_every_bound(kernel):
    # every squared threshold and the squared radius, each with both of its
    # float neighbours, and the ends of the domain
    r = kernel.support_radius
    bounds = np.array([t * t for t, _ in kernel.levels] + [r * r])
    sq = np.r_[
        bounds,
        np.nextafter(bounds, -math.inf),
        np.nextafter(bounds, math.inf),
        0.0, -0.0, 1e-300, 1.7e308, math.inf,
    ]
    sq = sq[~(sq < 0)]
    assert kernel.evaluate_sq(sq).tobytes() == influence_sq(kernel, sq).tobytes()
    # NaN, which evaluate_sq rejects and the engine never forms, lands past
    # every bound, as a binary search puts it
    z = np.r_[sq, math.nan]
    kernel._fill_sq(z)
    assert z.tobytes() == np.r_[influence_sq(kernel, sq), 0.0].tobytes()

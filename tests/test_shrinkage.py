import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blurshift.shrinkage import (
    ShrinkState,
    blurring_std_sequence,
    covariance_step,
    eigenvalue_sequence,
    nonblurring_std_sequence,
    shrink_map,
)

# unit variance, bandwidth 2: the worked reference case
UNIT_STATE = ShrinkState(covariance=np.eye(1), bandwidth=2.0)


# the smallest length whose square is a normal double, and the largest one
# whose square doubled is finite
SCALE_RANGE = (1.4916681462400413e-154, 9.480751908109176e153)


class TestShrinkState:
    def test_scalar_covariance_promoted(self):
        s = ShrinkState(covariance=np.array(4.0), bandwidth=1.0)
        assert s.covariance.shape == (1, 1)
        assert s.dimension == 1

    def test_eigenvalues_ascending(self):
        s = ShrinkState(covariance=np.diag([4.0, 1.0]), bandwidth=1.0)
        np.testing.assert_allclose(s.eigenvalues, [1.0, 4.0])

    @pytest.mark.parametrize(
        "cov",
        [
            np.array([[1.0, 0.5], [0.0, 1.0]]),  # not symmetric
            np.array([[1.0, 2.0], [2.0, 1.0]]),  # indefinite
            np.zeros((2, 2)),  # singular
            np.array([[np.nan]]),
        ],
    )
    def test_bad_covariance(self, cov):
        with pytest.raises(ValueError):
            ShrinkState(covariance=cov, bandwidth=1.0)

    @pytest.mark.parametrize("tau", [0.0, -1.0, np.inf])
    def test_bad_bandwidth(self, tau):
        with pytest.raises(ValueError):
            ShrinkState(covariance=np.eye(2), bandwidth=tau)

    def test_tiny_asymmetry_tolerated(self):
        cov = np.array([[1.0, 0.3], [0.3 + 1e-14, 1.0]])
        s = ShrinkState(covariance=cov, bandwidth=1.0)
        assert np.array_equal(s.covariance, s.covariance.T)


class TestShrinkMap:
    def test_zero_maps_to_zero(self):
        np.testing.assert_array_equal(shrink_map(np.zeros(1), UNIT_STATE), [0.0])

    def test_unit_variance_bandwidth_two(self):
        # contraction factor 1 / (1 + 4) = 0.2, so 5 -> 1
        np.testing.assert_allclose(shrink_map(np.array([5.0]), UNIT_STATE), [1.0])

    def test_axis_aligned_factors(self):
        s = ShrinkState(covariance=np.diag([1.0, 4.0]), bandwidth=1.0)
        got = shrink_map(np.array([1.0, 1.0]), s)
        np.testing.assert_allclose(got, [0.5, 0.8], rtol=1e-14)

    def test_batch_rows(self):
        s = ShrinkState(covariance=np.diag([1.0, 4.0]), bandwidth=1.0)
        got = shrink_map(np.array([[1.0, 1.0], [2.0, 0.0]]), s)
        np.testing.assert_allclose(got, [[0.5, 0.8], [1.0, 0.0]], rtol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            shrink_map(np.zeros(3), UNIT_STATE)

    @given(
        a=st.floats(-5, 5),
        b=st.floats(-5, 5),
        x0=st.floats(-10, 10),
        y0=st.floats(-10, 10),
    )
    @settings(max_examples=40, deadline=None)
    def test_linear_and_odd(self, a, b, x0, y0):
        s = ShrinkState(
            covariance=np.array([[2.0, 0.7], [0.7, 1.0]]), bandwidth=1.3
        )
        x = np.array([x0, y0])
        y = np.array([y0, -x0])
        lhs = shrink_map(a * x + b * y, s)
        rhs = a * shrink_map(x, s) + b * shrink_map(y, s)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(shrink_map(-x, s), -shrink_map(x, s), rtol=1e-14)


class TestCovarianceStep:
    def test_unit_case_first_step(self):
        nxt = covariance_step(UNIT_STATE)
        np.testing.assert_allclose(nxt.covariance, [[0.04]], rtol=1e-15)
        assert nxt.step_index == 1
        assert nxt.bandwidth == 2.0

    def test_unit_case_three_steps(self):
        s = UNIT_STATE
        seen = [float(s.covariance[0, 0])]
        for _ in range(3):
            s = covariance_step(s)
            seen.append(float(s.covariance[0, 0]))
        np.testing.assert_allclose(
            seen,
            [1.0, 0.04, 3.9211841976276844e-06, 3.768173553161913e-18],
            rtol=1e-12,
        )

    def test_eigenvectors_preserved(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 4))
        cov = a @ a.T + 0.5 * np.eye(4)
        s = ShrinkState(covariance=cov, bandwidth=1.1)
        v = s._eigenvectors
        nxt = covariance_step(s)
        rotated = v.T @ nxt.covariance @ v
        off = rotated - np.diag(np.diag(rotated))
        assert np.linalg.norm(off) < 1e-10

    def test_eigenvalues_strictly_decrease(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(3, 3))
        s = ShrinkState(covariance=a @ a.T + np.eye(3), bandwidth=0.8)
        for _ in range(5):
            nxt = covariance_step(s)
            assert np.all(nxt.eigenvalues < s.eigenvalues)
            s = nxt

    def test_underflow_reported(self):
        s = ShrinkState(covariance=np.eye(1) * 1e-200, bandwidth=10.0)
        with pytest.raises(ValueError):
            covariance_step(s)


class TestEigenvalueSequence:
    def test_reference_sequence(self):
        got = eigenvalue_sequence(1.0, 2.0, 3)
        np.testing.assert_allclose(
            got,
            [1.0, 0.04, 3.9211841976276844e-06, 3.768173553161913e-18],
            rtol=1e-12,
        )

    def test_length_and_start(self):
        got = eigenvalue_sequence(2.5, 1.0, 0)
        assert got.tolist() == [2.5]

    def test_tiny_bandwidth_barely_moves(self):
        got = eigenvalue_sequence(1.0, 1e-6, 1)
        assert got[1] == pytest.approx(1.0, rel=1e-5)
        assert got[1] < 1.0

    @given(
        lam0=st.floats(1e-3, 1e3),
        tau=st.floats(1e-2, 1e2),
        steps=st.integers(1, 8),
    )
    @settings(max_examples=60, deadline=None)
    def test_decreasing_and_geometric_bound(self, lam0, tau, steps):
        seq = eigenvalue_sequence(lam0, tau, steps)
        assert np.all(seq >= 0)
        # strictly decreasing until float underflow pins the tail at 0
        positive = seq > 0
        assert np.all(np.diff(seq[positive]) < 0)
        assert not np.any(positive[1:] & ~positive[:-1])
        ratio = lam0 * lam0 / (lam0 + tau * tau) ** 2
        bound = lam0 * ratio ** np.arange(steps + 1)
        assert np.all(seq <= bound * (1 + 1e-12))

    @pytest.mark.parametrize(
        "bad", [(0.0, 1.0, 2), (1.0, 0.0, 2), (1.0, 1.0, -1), (math.inf, 1.0, 2), (1e308, 1.0, 2)]
    )
    def test_bad_arguments(self, bad):
        lam0, tau, steps = bad
        with pytest.raises(ValueError):
            eigenvalue_sequence(lam0, tau, steps)


class TestStdSequences:
    def test_nonblurring_reference(self):
        got = nonblurring_std_sequence(1.0, 2.0, 3)
        np.testing.assert_allclose(got, [1.0, 0.2, 0.04, 0.008], rtol=1e-14)

    def test_blurring_reference(self):
        got = blurring_std_sequence(1.0, 2.0, 3)
        np.testing.assert_allclose(
            got,
            [1.0, 0.2, 0.0019801980198019802, 1.9411783929257798e-09],
            rtol=1e-12,
        )

    def test_equal_bandwidth_halves_each_step(self):
        got = nonblurring_std_sequence(3.0, 3.0, 4)
        np.testing.assert_allclose(got, 3.0 * 0.5 ** np.arange(5), rtol=1e-14)

    @given(sigma0=st.floats(1e-2, 1e2), tau=st.floats(1e-2, 1e2))
    @settings(max_examples=60, deadline=None)
    def test_blurring_dominates_nonblurring(self, sigma0, tau):
        steps = 6
        blur = blurring_std_sequence(sigma0, tau, steps)
        fixed = nonblurring_std_sequence(sigma0, tau, steps)
        np.testing.assert_allclose(blur[:2], fixed[:2], rtol=1e-12)
        assert np.all(blur[2:] < fixed[2:])

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            nonblurring_std_sequence(-1.0, 1.0, 2)
        with pytest.raises(ValueError):
            blurring_std_sequence(1.0, 1.0, -3)

    # sigma0^2 underflows to 0 or to a subnormal, or 2 sigma0^2 overflows
    @pytest.mark.parametrize(
        "sigma0",
        [1e-200, math.nextafter(SCALE_RANGE[0], 0.0), math.nextafter(SCALE_RANGE[1], math.inf),
         1e200, math.nan],
    )
    @pytest.mark.parametrize("sequence", [blurring_std_sequence, nonblurring_std_sequence])
    def test_sigma0_out_of_range_named(self, sequence, sigma0):
        with pytest.raises(ValueError, match="sigma0"):
            sequence(sigma0, 1.0, 3)

    @pytest.mark.parametrize("tau", [1e-200, 1e200, math.nextafter(SCALE_RANGE[1], math.inf)])
    @pytest.mark.parametrize("sequence", [blurring_std_sequence, nonblurring_std_sequence])
    def test_tau_out_of_range_named(self, sequence, tau):
        with pytest.raises(ValueError, match="tau"):
            sequence(1.0, tau, 3)

    # the range ends, against either end of tau, and a sigma0 whose variance
    # cubed overflows
    @pytest.mark.parametrize("sigma0", [*SCALE_RANGE, 1e60])
    @pytest.mark.parametrize("tau", [*SCALE_RANGE, 1.0])
    def test_range_is_finite(self, sigma0, tau):
        blur = blurring_std_sequence(sigma0, tau, 5)
        fixed = nonblurring_std_sequence(sigma0, tau, 5)
        assert np.all(np.isfinite(blur)) and np.all(np.isfinite(fixed))
        assert blur[0] == fixed[0] == sigma0
        assert np.all(np.diff(blur) <= 0) and np.all(np.diff(fixed) <= 0)

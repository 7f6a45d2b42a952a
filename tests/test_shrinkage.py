import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blurshift.shrinkage import (
    _variance_sequence,
    blurring_std_sequence,
    covariance_step,
    nonblurring_std_sequence,
    shrink_map,
)

# unit variance, bandwidth 2: the worked reference case
UNIT = (np.eye(1), 2.0)


# the smallest length whose square is a normal double, and the largest one
# whose square doubled is finite
SCALE_RANGE = (1.4916681462400413e-154, 9.480751908109176e153)


def assert_both_reject(cov, tau, match=None):
    """covariance_step and shrink_map both reject the covariance or tau."""
    with pytest.raises(ValueError, match=match):
        covariance_step(cov, tau)
    with pytest.raises(ValueError, match=match):
        shrink_map(np.zeros(len(cov)), cov, tau)


class TestShrinkState:
    """Checks on the state every closed-form entry point takes: a covariance
    matrix and a bandwidth tau, as plain values."""

    def test_scalar_covariance_promoted(self):
        assert covariance_step(np.array(4.0), 1.0).shape == (1, 1)
        assert shrink_map(np.ones(1), np.array(4.0), 1.0).shape == (1,)

    def test_eigenvalues_ascending(self):
        nxt = covariance_step(np.diag([4.0, 1.0]), 1.0)
        np.testing.assert_allclose(nxt, np.diag([2.56, 0.25]), rtol=1e-15)
        np.testing.assert_allclose(np.linalg.eigvalsh(nxt), [0.25, 2.56], rtol=1e-15)

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
        assert_both_reject(cov, 1.0)

    @pytest.mark.parametrize("tau", [0.0, -1.0, np.inf])
    def test_bad_bandwidth(self, tau):
        assert_both_reject(np.eye(2), tau, match="tau")

    # tau^2 overflows, or underflows so that the step would be the identity
    @pytest.mark.parametrize("tau", [1e200, 1e-170])
    def test_tau_out_of_range_named(self, tau):
        assert_both_reject(np.eye(1), tau, match="tau")

    def test_tiny_asymmetry_tolerated(self):
        cov = np.array([[1.0, 0.3], [0.3 + 1e-14, 1.0]])
        nxt = covariance_step(cov, 1.0)
        assert np.array_equal(nxt, nxt.T)
        assert shrink_map(np.ones(2), cov, 1.0).shape == (2,)

    # the verdict is relative to the largest entry, at any scale
    @pytest.mark.parametrize("scale", [1.0, 1e-6, 1e-12, 1e-100])
    def test_symmetry_verdict_scale_free(self, scale):
        assert_both_reject(np.array([[1.0, 0.3], [0.2, 1.0]]) * scale, 1.0, match="symmetric")
        sym = np.array([[1.0, 0.3], [0.3, 1.0]]) * scale
        assert np.all(np.isfinite(covariance_step(sym, 1.0)))
        assert np.all(np.isfinite(shrink_map(np.ones(2), sym, 1.0)))


class TestShrinkMap:
    def test_zero_maps_to_zero(self):
        np.testing.assert_array_equal(shrink_map(np.zeros(1), *UNIT), [0.0])

    def test_unit_variance_bandwidth_two(self):
        # contraction factor 1 / (1 + 4) = 0.2, so 5 -> 1
        np.testing.assert_allclose(shrink_map(np.array([5.0]), *UNIT), [1.0])

    def test_axis_aligned_factors(self):
        got = shrink_map(np.array([1.0, 1.0]), np.diag([1.0, 4.0]), 1.0)
        np.testing.assert_allclose(got, [0.5, 0.8], rtol=1e-14)

    def test_batch_rows(self):
        got = shrink_map(np.array([[1.0, 1.0], [2.0, 0.0]]), np.diag([1.0, 4.0]), 1.0)
        np.testing.assert_allclose(got, [[0.5, 0.8], [1.0, 0.0]], rtol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            shrink_map(np.zeros(3), *UNIT)

    @given(
        a=st.floats(-5, 5),
        b=st.floats(-5, 5),
        x0=st.floats(-10, 10),
        y0=st.floats(-10, 10),
    )
    @settings(max_examples=40, deadline=None)
    def test_linear_and_odd(self, a, b, x0, y0):
        s = (np.array([[2.0, 0.7], [0.7, 1.0]]), 1.3)
        x = np.array([x0, y0])
        y = np.array([y0, -x0])
        lhs = shrink_map(a * x + b * y, *s)
        rhs = a * shrink_map(x, *s) + b * shrink_map(y, *s)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(shrink_map(-x, *s), -shrink_map(x, *s), rtol=1e-14)


class TestCovarianceStep:
    def test_unit_case_first_step(self):
        np.testing.assert_allclose(covariance_step(*UNIT), [[0.04]], rtol=1e-15)

    def test_unit_case_three_steps(self):
        cov, tau = UNIT
        seen = [float(cov[0, 0])]
        for _ in range(3):
            cov = covariance_step(cov, tau)
            seen.append(float(cov[0, 0]))
        np.testing.assert_allclose(
            seen,
            [1.0, 0.04, 3.9211841976276844e-06, 3.768173553161913e-18],
            rtol=1e-12,
        )

    def test_eigenvectors_preserved(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 4))
        cov = a @ a.T + 0.5 * np.eye(4)
        v = np.linalg.eigh(cov)[1]
        rotated = v.T @ covariance_step(cov, 1.1) @ v
        off = rotated - np.diag(np.diag(rotated))
        assert np.linalg.norm(off) < 1e-10

    def test_eigenvalues_strictly_decrease(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(3, 3))
        cov = a @ a.T + np.eye(3)
        for _ in range(5):
            nxt = covariance_step(cov, 0.8)
            assert np.all(np.linalg.eigvalsh(nxt) < np.linalg.eigvalsh(cov))
            cov = nxt

    def test_underflow_reported(self):
        with pytest.raises(ValueError, match="underflowed"):
            covariance_step(np.eye(1) * 1e-200, 10.0)

    def test_ill_conditioned_output_not_rechecked(self):
        # the acceptance test's covariance: after three steps the eigenvalues
        # are 2.3e-25 and 1.7e-6, a condition number doubles cannot resolve,
        # yet each step's input was positive-definite
        cov = np.array([[2.0, 0.6], [0.6, 0.5]])
        lam = np.linalg.eigvalsh(cov)
        for _ in range(3):
            cov = covariance_step(cov, 1.5)
        assert np.all(np.isfinite(cov)) and np.array_equal(cov, cov.T)
        top = _variance_sequence(lam[1], 1.5, 3)[-1]
        assert np.linalg.eigvalsh(cov)[1] == pytest.approx(top, rel=1e-9)
        # as the next step's input it is rightly rejected
        with pytest.raises(ValueError, match="positive-definite"):
            covariance_step(cov, 1.5)


class TestEigenvalueSequence:
    def test_reference_sequence(self):
        got = _variance_sequence(1.0, 2.0, 3)
        np.testing.assert_allclose(
            got,
            [1.0, 0.04, 3.9211841976276844e-06, 3.768173553161913e-18],
            rtol=1e-12,
        )

    def test_length_and_start(self):
        got = _variance_sequence(2.5, 1.0, 0)
        assert got.tolist() == [2.5]

    def test_tiny_bandwidth_barely_moves(self):
        got = _variance_sequence(1.0, 1e-6, 1)
        assert got[1] == pytest.approx(1.0, rel=1e-5)
        assert got[1] < 1.0

    @given(
        lam0=st.floats(1e-3, 1e3),
        tau=st.floats(1e-2, 1e2),
        steps=st.integers(1, 8),
    )
    @settings(max_examples=60, deadline=None)
    def test_decreasing_and_geometric_bound(self, lam0, tau, steps):
        seq = _variance_sequence(lam0, tau, steps)
        assert np.all(seq >= 0)
        # strictly decreasing until float underflow pins the tail at 0
        positive = seq > 0
        assert np.all(np.diff(seq[positive]) < 0)
        assert not np.any(positive[1:] & ~positive[:-1])
        ratio = lam0 * lam0 / (lam0 + tau * tau) ** 2
        bound = lam0 * ratio ** np.arange(steps + 1)
        assert np.all(seq <= bound * (1 + 1e-12))


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

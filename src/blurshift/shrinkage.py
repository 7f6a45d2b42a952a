"""Closed-form shrinkage calculus for Gaussian clouds under blurring updates.

In the large-sample limit a Gaussian cloud stays Gaussian under one blurring
update with a Gaussian kernel; only its covariance changes, by a fixed
sandwich formula. This module computes that population-level recursion
exactly, along with the per-axis eigenvalue decay and the matching geometric
sequence for the nonblurring variant, where the reference cloud never
shrinks so the ratio stays constant.

Everything here is closed-form linear algebra on tiny matrices; the
Monte Carlo experiments cross-check these predictions against the engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import _MAX_TAU_SQ, _check_scale

__all__ = [
    "ShrinkState",
    "shrink_map",
    "covariance_step",
    "eigenvalue_sequence",
    "blurring_std_sequence",
    "nonblurring_std_sequence",
]

_SYM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class ShrinkState:
    """Population covariance of a Gaussian cloud after some blurring steps.

    covariance: p x p symmetric positive-definite matrix.
    bandwidth: kernel width tau.
    step_index: how many updates produced this covariance.
    """

    covariance: np.ndarray
    bandwidth: float
    step_index: int = 0
    # eigendecomposition cached at construction; eigenvectors are reused by
    # covariance_step so preservation holds by construction
    _eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)
    _eigenvectors: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cov = np.asarray(self.covariance, dtype=float)
        if cov.ndim == 0:
            cov = cov.reshape(1, 1)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or cov.shape[0] < 1:
            raise ValueError("covariance must be a square matrix")
        if not np.all(np.isfinite(cov)):
            raise ValueError("covariance must be finite")
        scale = max(1.0, float(np.abs(cov).max()))
        if float(np.abs(cov - cov.T).max()) > _SYM_TOL * scale:
            raise ValueError("covariance must be symmetric")
        cov = 0.5 * (cov + cov.T)
        lam, vec = np.linalg.eigh(cov)
        if lam.min() <= 0.0:
            raise ValueError("covariance must be positive-definite")
        if not (self.bandwidth > 0 and math.isfinite(self.bandwidth)):
            raise ValueError("bandwidth must be positive and finite")
        if self.step_index < 0:
            raise ValueError("step_index must be nonnegative")
        object.__setattr__(self, "covariance", cov)
        object.__setattr__(self, "bandwidth", float(self.bandwidth))
        object.__setattr__(self, "step_index", int(self.step_index))
        object.__setattr__(self, "_eigenvalues", lam)
        object.__setattr__(self, "_eigenvectors", vec)

    @property
    def dimension(self) -> int:
        return self.covariance.shape[0]

    @property
    def eigenvalues(self) -> np.ndarray:
        """Covariance eigenvalues, ascending."""
        return self._eigenvalues.copy()


def shrink_map(x, state: ShrinkState) -> np.ndarray:
    """Apply the population update map to a point: contract each covariance
    eigendirection by eigenvalue / (eigenvalue + bandwidth^2).

    Equals (I + tau^2 Sigma^{-1})^{-1} x, evaluated through the
    eigendecomposition so no general inverse is formed. Accepts a single
    p-vector or an (m, p) batch of rows. Linear in x.
    """
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 1
    rows = arr[None, :] if single else arr
    if rows.ndim != 2 or rows.shape[1] != state.dimension:
        raise ValueError("x must be a p-vector or an (m, p) array")
    lam = state._eigenvalues
    factors = lam / (lam + state.bandwidth**2)
    v = state._eigenvectors
    out = ((rows @ v) * factors) @ v.T
    return out[0] if single else out


def covariance_step(state: ShrinkState) -> ShrinkState:
    """One population blurring update of the covariance.

    Sandwiches the covariance between two copies of the shrink map, which
    keeps the eigenvectors fixed and sends each eigenvalue lam to
    lam^3 / (lam + tau^2)^2.
    """
    lam = state._eigenvalues
    v = state._eigenvectors
    new_lam = _shrink_eigenvalue(lam, state.bandwidth**2)
    if new_lam.min() <= 0.0:
        raise ValueError(
            "covariance update underflowed to a singular matrix; "
            "the cloud has shrunk below float resolution"
        )
    new_cov = (v * new_lam) @ v.T
    new_cov = 0.5 * (new_cov + new_cov.T)
    return ShrinkState(
        covariance=new_cov,
        bandwidth=state.bandwidth,
        step_index=state.step_index + 1,
    )


def _shrink_eigenvalue(lam, tau_sq):
    """lam^3 / (lam + tau^2)^2, as lam r^2 with r = lam / (lam + tau^2) in
    [0, 1], so no intermediate exceeds lam and none overflows."""
    r = lam / (lam + tau_sq)
    return lam * r * r


def _check_sequence_args(tau, steps):
    # each step adds a variance to tau^2, and both stay within half the
    # largest double, so the sum is finite
    _check_scale("tau", tau)
    if steps < 0:
        raise ValueError("steps must be nonnegative")


def eigenvalue_sequence(lam0: float, tau: float, steps: int) -> np.ndarray:
    """Iterate the per-axis variance map lam -> lam^3 / (lam + tau^2)^2.

    Returns steps + 1 values starting at lam0. The sequence is strictly
    decreasing, positive in exact arithmetic, and bounded by the geometric
    envelope lam0 * (lam0^2 / (lam0 + tau^2)^2)^s; in floats a long enough
    run underflows to 0.
    """
    if not 0 < lam0 <= _MAX_TAU_SQ:
        raise ValueError(f"lam0 must be positive and at most about 9e307, got {lam0!r}")
    _check_sequence_args(tau, steps)
    out = np.empty(int(steps) + 1)
    out[0] = lam0
    t2 = tau * tau
    for s in range(1, int(steps) + 1):
        out[s] = _shrink_eigenvalue(out[s - 1], t2)
    return out


def blurring_std_sequence(sigma0: float, tau: float, steps: int) -> np.ndarray:
    """Per-step standard deviation of an isotropic Gaussian cloud under
    blurring updates: the square root of the variance recursion."""
    _check_scale("sigma0", sigma0)
    return np.sqrt(eigenvalue_sequence(sigma0 * sigma0, tau, steps))


def nonblurring_std_sequence(sigma0: float, tau: float, steps: int) -> np.ndarray:
    """Per-step standard deviation of centers averaged against a fixed
    Gaussian cloud: geometric decay with constant ratio
    sigma0^2 / (sigma0^2 + tau^2), since the reference never tightens."""
    _check_scale("sigma0", sigma0)
    _check_sequence_args(tau, steps)
    ratio = sigma0 * sigma0 / (sigma0 * sigma0 + tau * tau)
    return sigma0 * ratio ** np.arange(int(steps) + 1)

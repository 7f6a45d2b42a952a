"""Closed-form shrinkage calculus for Gaussian clouds under blurring updates.

In the large-sample limit a Gaussian cloud stays Gaussian under one blurring
update with a Gaussian kernel; only its covariance changes, by a fixed
sandwich formula. This module computes that population-level recursion
exactly, along with the per-axis variance decay and the matching geometric
sequence for the nonblurring variant, where the reference cloud never
shrinks so the ratio stays constant.

Everything here is closed-form linear algebra on tiny matrices; the
Monte Carlo experiments cross-check these predictions against the engine.
Every entry point takes its kernel width tau in the range of
``kernels._check_scale``.
"""

from __future__ import annotations

import numpy as np

from .kernels import _check_scale

__all__ = [
    "shrink_map",
    "covariance_step",
    "blurring_std_sequence",
    "nonblurring_std_sequence",
]

_SYM_TOL = 1e-12


def _eigen(covariance, tau):
    """Ascending eigenvalues and the eigenvectors of a p x p symmetric
    positive-definite covariance (a scalar is a 1 x 1 one), after checking
    it and tau."""
    cov = np.asarray(covariance, dtype=float)
    if cov.ndim == 0:
        cov = cov.reshape(1, 1)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or cov.shape[0] < 1:
        raise ValueError("covariance must be a square matrix")
    if not np.all(np.isfinite(cov)):
        raise ValueError("covariance must be finite")
    # relative to the largest entry, so the verdict does not depend on scale
    if float(np.abs(cov - cov.T).max()) > _SYM_TOL * float(np.abs(cov).max()):
        raise ValueError("covariance must be symmetric")
    lam, vec = np.linalg.eigh(0.5 * (cov + cov.T))
    if lam.min() <= 0.0:
        raise ValueError("covariance must be positive-definite")
    _check_scale("tau", tau)
    return lam, vec


def shrink_map(x, covariance, tau: float) -> np.ndarray:
    """Apply the population update map to a point: contract each covariance
    eigendirection by eigenvalue / (eigenvalue + tau^2).

    Equals (I + tau^2 Sigma^{-1})^{-1} x, evaluated through the
    eigendecomposition so no general inverse is formed. Accepts a single
    p-vector or an (m, p) batch of rows. Linear in x.
    """
    lam, v = _eigen(covariance, tau)
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 1
    rows = arr[None, :] if single else arr
    if rows.ndim != 2 or rows.shape[1] != lam.size:
        raise ValueError("x must be a p-vector or an (m, p) array")
    out = ((rows @ v) * (lam / (lam + tau * tau))) @ v.T
    return out[0] if single else out


def covariance_step(covariance, tau: float) -> np.ndarray:
    """One population blurring update of the covariance.

    Sandwiches the covariance between two copies of the shrink map, which
    keeps the eigenvectors fixed and sends each eigenvalue lam to
    lam^3 / (lam + tau^2)^2. The result is not checked again: after a few
    steps its condition number can exceed what doubles resolve, so only the
    next step's input check rejects it.
    """
    lam, v = _eigen(covariance, tau)
    new_lam = _shrink_eigenvalue(lam, tau * tau)
    if new_lam.min() <= 0.0:
        raise ValueError(
            "covariance update underflowed to a singular matrix; "
            "the cloud has shrunk below float resolution"
        )
    new_cov = (v * new_lam) @ v.T
    return 0.5 * (new_cov + new_cov.T)


def _shrink_eigenvalue(lam, tau_sq):
    """lam^3 / (lam + tau^2)^2, as lam r^2 with r = lam / (lam + tau^2) in
    [0, 1], so no intermediate exceeds lam and none overflows."""
    r = lam / (lam + tau_sq)
    return lam * r * r


def _check_sequence_args(sigma0, tau, steps):
    # each step adds a variance to tau^2, and both stay within half the
    # largest double, so the sum is finite
    _check_scale("sigma0", sigma0)
    _check_scale("tau", tau)
    if steps < 0:
        raise ValueError("steps must be nonnegative")


def _variance_sequence(lam0: float, tau: float, steps: int) -> np.ndarray:
    """Iterate the per-axis variance map lam -> lam^3 / (lam + tau^2)^2.

    Returns steps + 1 values starting at lam0. The sequence is strictly
    decreasing, positive in exact arithmetic, and bounded by the geometric
    envelope lam0 * (lam0^2 / (lam0 + tau^2)^2)^s; in floats a long enough
    run underflows to 0.
    """
    out = np.empty(int(steps) + 1)
    out[0] = lam0
    t2 = tau * tau
    for s in range(1, int(steps) + 1):
        out[s] = _shrink_eigenvalue(out[s - 1], t2)
    return out


def blurring_std_sequence(sigma0: float, tau: float, steps: int) -> np.ndarray:
    """Per-step standard deviation of an isotropic Gaussian cloud under
    blurring updates: the square root of the variance recursion."""
    _check_sequence_args(sigma0, tau, steps)
    return np.sqrt(_variance_sequence(sigma0 * sigma0, tau, steps))


def nonblurring_std_sequence(sigma0: float, tau: float, steps: int) -> np.ndarray:
    """Per-step standard deviation of centers averaged against a fixed
    Gaussian cloud: geometric decay with constant ratio
    sigma0^2 / (sigma0^2 + tau^2), since the reference never tightens."""
    _check_sequence_args(sigma0, tau, steps)
    ratio = sigma0 * sigma0 / (sigma0 * sigma0 + tau * tau)
    return sigma0 * ratio ** np.arange(int(steps) + 1)

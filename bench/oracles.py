"""Independent references for the benchmark's correctness checks.

Both work on direct coordinate differences, never on the expanded form
|a|^2 + |b|^2 - 2 a.b the engine uses, and share no code with the package.
"""

from __future__ import annotations

import numpy as np


def influence(kernel_spec: dict, sq: np.ndarray) -> np.ndarray:
    """Kernel profile on squared distances, from the benchmark's own spec:
    {"family": "gaussian", "tau", "support"} or {"family": "flat", "levels"}."""
    if kernel_spec["family"] == "gaussian":
        tau = kernel_spec["tau"]
        f = np.exp(-sq / (2.0 * tau * tau))
        support = kernel_spec.get("support")
        if support is not None:
            f[sq > support * support] = 0.0
        return f
    f = np.zeros_like(sq)
    for threshold, value in reversed(kernel_spec["levels"]):
        f[sq <= threshold * threshold] = value
    f[sq == 0.0] = 1.0
    return f


def step_rows(targets: np.ndarray, x: np.ndarray, kernel_spec: dict) -> np.ndarray:
    """Influence-weighted mean of the unit-weight cloud ``x`` at each target
    row. With targets drawn from ``x`` the self pair differs by exactly 0,
    so this is both the blurring and the nonblurring update."""
    sq = ((targets[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)
    f = influence(kernel_spec, sq)
    return (f @ x) / f.sum(axis=1)[:, None]


def single_linkage_labels(x: np.ndarray, tol: float, block: int = 256) -> np.ndarray:
    """Components of the 'within tol' graph, labelled in order of each
    component's first point, by union-find over direct-difference pairs."""
    n = x.shape[0]
    root = list(range(n))

    def find(i):
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for i0 in range(0, n, block):
        i1 = min(i0 + block, n)
        sq = ((x[i0:i1, None, :] - x[None, i0:, :]) ** 2).sum(axis=2)
        rows, cols = np.nonzero(sq <= tol * tol)
        for i, j in zip((rows + i0).tolist(), (cols + i0).tolist()):
            if i < j:
                a, b = find(i), find(j)
                if a != b:
                    root[max(a, b)] = min(a, b)
    labels = np.empty(n, dtype=int)
    first = {}
    for i in range(n):
        labels[i] = first.setdefault(find(i), len(first))
    return labels

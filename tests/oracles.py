"""Independent reference implementations used to cross-check the engine.

Everything here shares no code path with the package. The naive references
are deliberately plain python double loops over scalar math, slow on
purpose. The dense references are numpy instead: they check the engine's
tiling on clouds of thousands of points and their tile edges, millions of
pairs per step that scalar loops would take minutes over. They materialise
the whole influence matrix from the uncentred expanded form, so they share
neither the engine's tiling, its centring nor its factorised Gaussian.
"""

import math

import numpy as np


def euclid(a, b):
    return math.sqrt(sum((ai - bi) ** 2 for ai, bi in zip(a, b)))


def naive_blurring_step(x, w, f):
    """x: list of coordinate tuples, w: list of weights, f: scalar distance
    -> influence. Returns the synchronously updated list of tuples."""
    n = len(x)
    p = len(x[0])
    out = []
    for i in range(n):
        num = [0.0] * p
        den = 0.0
        for j in range(n):
            fij = f(euclid(x[i], x[j])) * w[j]
            den += fij
            for d in range(p):
                num[d] += fij * x[j][d]
        out.append(tuple(v / den for v in num))
    return out


def naive_nonblurring_step(centers, x, w, f):
    """Averages each center against the fixed cloud x. Returns updated
    centers; a center with zero total influence comes back as None."""
    p = len(x[0])
    out = []
    for c in centers:
        num = [0.0] * p
        den = 0.0
        for j in range(len(x)):
            fcj = f(euclid(c, x[j])) * w[j]
            den += fcj
            for d in range(p):
                num[d] += fcj * x[j][d]
        out.append(tuple(v / den for v in num) if den > 0 else None)
    return out


def gaussian_profile(tau, cutoff=None):
    def f(d):
        if cutoff is not None and d > cutoff:
            return 0.0
        return math.exp(-(d * d) / (2.0 * tau * tau))

    return f


def stepped_profile(levels):
    """levels: ((t1, v1), ..., (tk, vk)) meaning value vi on (t_{i-1}, t_i],
    1 at distance 0, and 0 beyond t_k."""

    def f(d):
        if d == 0.0:
            return 1.0
        for t, v in levels:
            if d <= t:
                return v
        return 0.0

    return f


def tabulated_profile(knots):
    """Manual piecewise-linear interpolation through (distance, value) knots,
    holding the last value beyond the final knot."""

    def f(d):
        if d <= knots[0][0]:
            return knots[0][1]
        for (d0, v0), (d1, v1) in zip(knots, knots[1:]):
            if d <= d1:
                return v0 + (v1 - v0) * (d - d0) / (d1 - d0)
        return knots[-1][1]

    return f


def as_tuples(arr):
    return [tuple(float(v) for v in row) for row in arr]


def sq_dist(a, b):
    """Squared distance summed left to right over direct differences."""
    s = 0.0
    for ai, bi in zip(a, b):
        d = ai - bi
        s += d * d
    return s


def single_linkage_labels(x, tol):
    """Components of the 'within tol of each other' graph over the list of
    coordinate tuples x, labelled in order of each component's first point.
    Pairs are compared exactly as sq_dist(a, b) <= tol * tol."""
    n = len(x)
    tol_sq = tol * tol
    labels = [-1] * n
    k = 0
    for seed in range(n):
        if labels[seed] >= 0:
            continue
        labels[seed] = k
        stack = [seed]
        while stack:
            i = stack.pop()
            for j in range(n):
                if labels[j] < 0 and sq_dist(x[i], x[j]) <= tol_sq:
                    labels[j] = k
                    stack.append(j)
        k += 1
    return labels


def dense_sq_dists(a, b):
    """(len(a), len(b)) squared distances, expanded form, clamped at 0."""
    aa = np.einsum("ij,ij->i", a, a)
    bb = np.einsum("ij,ij->i", b, b)
    s = aa[:, None] + bb[None, :] - 2.0 * (a @ b.T)
    np.maximum(s, 0.0, out=s)
    return s


def dense_blurring_step(x, w, kernel):
    """Blurring step from the full influence matrix, self pair pinned at 1."""
    s = dense_sq_dists(x, x)
    np.fill_diagonal(s, 0.0)
    F = kernel.evaluate_sq(s)
    return (F @ (w[:, None] * x)) / (F @ w)[:, None]


def dense_nonblurring_step(centers, x, w, kernel):
    """Nonblurring step of centers against x from the full influence matrix."""
    F = kernel.evaluate_sq(dense_sq_dists(centers, x))
    return (F @ (w[:, None] * x)) / (F @ w)[:, None]


def influence_sq(kernel, sq):
    """Influence at each squared distance, from the family's definition:
    one elementwise formula and one np.where per level and per cutoff, on
    the kernel's parameters alone. Same floating-point operations as the
    definition, so the package should agree bit for bit."""
    if hasattr(kernel, "tau"):
        f = np.exp(sq / (-2.0 * kernel.tau * kernel.tau))
    elif hasattr(kernel, "levels"):
        f = np.zeros_like(sq)
        for t, v in reversed(kernel.levels):
            f = np.where(sq <= t * t, v, f)
        f = np.where(sq == 0.0, 1.0, f)
    else:
        ds, vs = zip(*kernel.knots)
        f = np.interp(np.sqrt(sq), ds, vs)
    r = kernel.support_radius
    return np.where(sq > r * r, 0.0, f)

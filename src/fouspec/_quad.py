"""Shared quadrature rules: Gauss-Legendre / Gauss-Jacobi on [0,1] and panel builders."""

from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi, roots_legendre


@lru_cache(maxsize=128)
def gauss_legendre_01(n):
    """Nodes/weights for int_0^1 f(x) dx, weights summing to 1."""
    x, w = roots_legendre(n)
    return 0.5 * (x + 1.0), 0.5 * w


@lru_cache(maxsize=256)
def jacobi_01(n, c):
    """Nodes/weights absorbing an algebraic endpoint factor:

        int_0^1 f(z) z^c dz  ~=  sum_k w_k f(z_k),   c > -1.

    Exact for f polynomial of degree <= 2n-1; the z^c factor must NOT be
    included in the evaluated f.
    """
    x, w = roots_jacobi(n, 0.0, float(c))
    return 0.5 * (x + 1.0), w * 0.5 ** (c + 1.0)


def graded_nodes(a, b, toward, n_panels, m, ratio=0.5, cover_sliver=False):
    """Composite GL nodes/weights on [a,b], panels graded toward `toward` (= a or b).

    By default the innermost sliver of relative size ratio^n_panels next to
    `toward` is NOT covered, for callers that treat a genuine algebraic
    singularity there themselves.  With cover_sliver=True a final GL panel
    closes the gap (enough for kinks where the integrand stays finite).
    """
    xg, wg = gauss_legendre_01(m)
    # distances from `toward`: (b - a) ratio^k for k = 0..n_panels
    edges = (b - a) * ratio ** np.arange(n_panels + 1)
    if cover_sliver:
        edges = np.concatenate([edges, [0.0]])
    nodes, weights = [], []
    for far, near in zip(edges[:-1], edges[1:]):
        h = far - near
        dist = near + h * xg
        if toward == a:
            nodes.append(a + dist)
        else:
            nodes.append(b - dist)
        weights.append(h * wg)
    return np.concatenate(nodes), np.concatenate(weights)


def doubling_nodes(a, n_panels, m):
    """Composite GL nodes/weights on [a, a*2^n_panels]: panel k is [a 2^k, a 2^(k+1)].

    Covers a semi-infinite range with geometrically growing panels; the caller
    adds an analytic tail correction beyond the last edge when needed.
    """
    xg, wg = gauss_legendre_01(m)
    lo = a
    h = a
    nodes, weights = [], []
    for _ in range(n_panels):
        nodes.append(lo + h * xg)
        weights.append(h * wg)
        lo += h
        h *= 2.0
    return np.concatenate(nodes), np.concatenate(weights), lo

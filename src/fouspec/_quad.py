"""Shared quadrature rules: Gauss-Legendre / Gauss-Jacobi on [0,1] and the panel builder.

Both Gauss rules are built here with numpy alone, so no route loads
`scipy.special`.  Each node is found by Newton's method on the three-term
recurrence of its Jacobi polynomial, evaluated in the distance y = 1 - x
from the nearer end of [-1, 1] (`_pinned`): y keeps full relative accuracy
next to the end, where x = cos(theta) does not, so the outermost nodes and
weights are as accurate as the central ones.  The Legendre rule starts from
Olver's uniform asymptotic formula, which is within 2e-15 of the zeros at
n = 3000, so one recurrence sweep over half the nodes finishes it (0.03 s
at n = 3000, one thread); the Jacobi rule starts from the eigenvalues of
its Jacobi matrix (Golub-Welsch, n <= 64).  Weights come from the angle
form 1 / ((1 - x^2) p'(x)^2).

`gl_panels` is the one composite builder: the Gauss-Legendre rule on a list
of panels, in the order given, as one array operation.  `graded_nodes` and
`doubling_nodes` only choose its panel edges.  Every cached rule of the
package, here and in the modules that build on these, is made read-only by
`frozen`: every caller shares it.
"""

import math
from functools import lru_cache

import numpy as np

# first 20 zeros of the Bessel function J_0; McMahon's expansion is within
# 2e-15 of the later ones
_J0_ZEROS = np.array([
    2.404825557695773, 5.520078110286311, 8.653727912911013, 11.791534439014281,
    14.930917708487787, 18.071063967910924, 21.21163662987926, 24.352471530749302,
    27.493479132040253, 30.634606468431976, 33.77582021357357, 36.917098353664045,
    40.05842576462824, 43.19979171317673, 46.341188371661815, 49.482609897397815,
    52.624051841115, 55.76551075501998, 58.90698392608094, 62.048469190227166])

_MAX_NEWTON = 8  # the starts are close: Legendre needs 1-2 steps, Jacobi 1


def _bessel_j0_zeros(m):
    """The first m positive zeros of J_0."""
    b = (np.arange(1, m + 1) - 0.25) * np.pi
    r2 = (1.0 / (8.0 * b)) ** 2
    j = b + (1.0 + r2 * (-124.0 / 3.0 + r2 * (120928.0 / 15.0 + r2 * (
        -401743168.0 / 105.0 + r2 * (1071187749376.0 / 315.0))))) / (8.0 * b)
    j[:len(_J0_ZEROS)] = _J0_ZEROS[:m]
    return j


def _pinned(n, a, b, y):
    """p = P_n(1 - y) / P_n(1) for the Jacobi polynomial P_n^(a,b), and
    g = -y (2 - y) dp/dy, at each y in (0, 2).

    The recurrence runs on p_k and D_k = p_k - p_{k-1}: with p_k(1) = 1 for
    every k, D_{k+1} = C_k D_k - A_k y p_k, which never forms 1 - y, so p
    carries the relative accuracy of y.  g comes from the derivative
    identity of the Jacobi polynomials without a second recurrence.
    """
    p = 1.0 - 0.5 * (a + b + 2.0) / (a + 1.0) * y
    D = p - 1.0
    t = np.empty_like(y)
    for k in range(1, n):
        s = 2.0 * k + a + b
        m = (k + a + 1.0) * (k + a + b + 1.0)
        np.multiply(y, p, out=t)
        t *= 0.5 * (s + 1.0) * (s + 2.0) / m
        D *= k * (k + b) * (s + 2.0) / (m * s)
        D -= t
        p += D
    s = 2.0 * n + a + b
    return p, n * (s * y * p - 2.0 * (n + b) * D) / s


def _newton(n, a, b, y):
    """Zeros y of p_n^(a,b)(y) from starts y close to them, and the Gauss
    weights w = 1 / (y (2 - y) (dp/dy)^2) of the [0,1] rule at the zeros, up
    to the constant of the family (1 when a = 0).

    Stops once n * |dtheta| < 1e-9 for the angle theta = arccos(1 - y): the
    error left in y is then below rounding, and the weights, taken at the
    last start, are carried to the zero to first order.
    """
    for _ in range(_MAX_NEWTON):
        p, g = _pinned(n, a, b, y)
        sin2 = y * (2.0 - y)
        step = p * sin2 / g
        y = y + step
        if n * np.max(np.abs(step) / np.sqrt(sin2), initial=0.0) < 1e-9:
            break
    else:  # pragma: no cover - the starts converge in 1-2 steps
        raise ArithmeticError(f"Gauss rule of order {n}: Newton did not converge")
    # d ln w / dx = 2 ((b - a) - (a + b + 1) x) / (1 - x^2), x = 1 - y
    dlogw = 2.0 * ((b - a) - (a + b + 1.0) * (1.0 - y)) / (y * (2.0 - y))
    return y, sin2 * (1.0 - dlogw * step) / g ** 2


def frozen(*arrays):
    """The arrays, made read-only in place: every cached rule goes through
    here, since its arrays are shared by every caller of the cache."""
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


@lru_cache(maxsize=128)
def gauss_legendre_01(n):
    """Nodes/weights for int_0^1 f(x) dx, weights summing to 1 (read-only).

    The nodes of the upper half x = cos(theta) >= 0 start from Olver's
    theta = a + (a cot a - 1) / (8 a nu^2), a = j_{0,k} / nu, nu = n + 1/2;
    the lower half is their mirror.
    """
    m = (n + 1) // 2
    nu = n + 0.5
    a = _bessel_j0_zeros(m) / nu
    theta = a + (a / np.tan(a) - 1.0) / (8.0 * a * nu * nu)
    y, w = _newton(n, 0.0, 0.0, 2.0 * np.sin(0.5 * theta) ** 2)
    mid = n % 2
    if mid:
        y[-1] = 1.0  # the middle node x = 0
    half = 0.5 * y  # distance of node k from 1, and of its mirror from 0
    z = np.concatenate([half, 1.0 - half[::-1][mid:]])
    w = np.concatenate([w, w[::-1][mid:]])
    return frozen(z, w)


@lru_cache(maxsize=256)
def jacobi_01(n, c):
    """Nodes/weights absorbing an algebraic endpoint factor (read-only):

        int_0^1 f(z) z^c dz  ~=  sum_k w_k f(z_k),   c > -1.

    Exact for f polynomial of degree <= 2n-1; the z^c factor must NOT be
    included in the evaluated f.  The starts are the eigenvalues of the
    Jacobi matrix of z^c on [0,1]; nodes below 1/2 are polished on
    P_n^(c,0) in y = 2z, the others on P_n^(0,c) in y = 2(1 - z).
    """
    c = float(c)
    k = np.arange(1.0, n)
    s = 2.0 * k + c
    diag = np.concatenate([[0.5 + 0.5 * c / (c + 2.0)], 0.5 + 0.5 * c * c / (s * (s + 2.0))])
    off = k * (k + c) / (s * np.sqrt(s * s - 1.0))
    z0 = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    low = z0 < 0.5
    y_lo, w_lo = _newton(n, c, 0.0, 2.0 * z0[low])
    y_hi, w_hi = _newton(n, 0.0, c, 2.0 * (1.0 - z0[~low]))
    # the family constant of the lower end: 1 / binom(n + c, n)^2
    w_lo *= math.prod(j / (j + c) for j in range(1, n + 1)) ** 2
    z = np.concatenate([0.5 * y_lo, 1.0 - 0.5 * y_hi])  # increasing, as z0
    return frozen(z, np.concatenate([w_lo, w_hi]))


def gl_panels(lo, hi, m):
    """Composite m-node Gauss-Legendre rule on the panels [lo_k, hi_k], in the
    order given: nodes lo_k + (hi_k - lo_k) x_j, weights (hi_k - lo_k) w_j,
    panel by panel.  Every composite rule of the package is built here."""
    xg, wg = gauss_legendre_01(m)
    lo = np.asarray(lo, dtype=float)[:, None]
    h = np.asarray(hi, dtype=float)[:, None] - lo
    return (lo + h * xg).ravel(), (h * wg).ravel()


def graded_nodes(a, b, toward, n_panels, m, ratio=0.5, cover_sliver=False):
    """Composite GL nodes/weights on [a,b], panels graded toward `toward` (= a or b).

    By default the innermost sliver of relative size ratio^n_panels next to
    `toward` is NOT covered, for callers that treat a genuine algebraic
    singularity there themselves.  With cover_sliver=True a final GL panel
    closes the gap (enough for kinks where the integrand stays finite).
    The panels run from the far end toward `toward`.
    """
    # distances from `toward`: (b - a) ratio^k for k = 0..n_panels
    edges = (b - a) * ratio ** np.arange(n_panels + 1)
    if cover_sliver:
        edges = np.concatenate([edges, [0.0]])
    dist, weights = gl_panels(edges[1:], edges[:-1], m)
    return (a + dist if toward == a else b - dist), weights


def doubling_nodes(a, n_panels, m):
    """Composite GL nodes/weights on [a, a*2^n_panels]: panel k is [a 2^k, a 2^(k+1)].

    Covers a semi-infinite range with geometrically growing panels; the caller
    adds an analytic tail correction beyond the last edge when needed.
    Returns (nodes, weights, a 2^n_panels).
    """
    lo = a * 2.0 ** np.arange(n_panels)
    return (*gl_panels(lo, 2.0 * lo, m), a * 2.0 ** n_panels)

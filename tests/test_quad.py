import numpy as np
import pytest
from numpy.testing import assert_allclose

from fouspec import asymptotics, ia_refine
from fouspec.model import ModelParams, QuadGrid, fou_cov
from fouspec._quad import doubling_nodes, gauss_legendre_01, gl_panels, graded_nodes, jacobi_01


def _legendre_reference(mpmath, n, z):
    """The zero of P_n(2z - 1) next to z and its [0,1] Gauss weight, in mpmath.

    One Newton step from a double node lands within 1e-30 of the zero; the
    derivative there follows from the Legendre equation.
    """
    x = 2 * mpmath.mpf(z) - 1
    p, pm = mpmath.legendre(n, x), mpmath.legendre(n - 1, x)
    dp = n * (x * p - pm) / (x * x - 1)        # P_n'(x)
    ddp = (2 * x * dp - n * (n + 1) * p) / (1 - x * x)
    step = -p / dp
    x, dp = x + step, dp + ddp * step
    return (x + 1) / 2, 1 / ((1 - x * x) * dp * dp)


@pytest.mark.parametrize("n", [64, 2000, 3000])
def test_legendre_against_mpmath(n):
    # the 3 outermost and 3 central nodes (scipy's roots_legendre had its end
    # weights 2-4e-8 off at n = 3000)
    mpmath = pytest.importorskip("mpmath")
    z, w = gauss_legendre_01(n)
    with mpmath.workdps(34):
        for k in (0, 1, 2, n // 2 - 1, n // 2, n // 2 + 1):
            zr, wr = _legendre_reference(mpmath, n, z[k])
            assert abs(z[k] - zr) <= 2.3e-16
            assert abs(w[k] / wr - 1) <= 1e-13


@pytest.mark.parametrize("n", [1, 2, 3, 12, 16, 64])
def test_legendre_exact_for_polynomials(n):
    z, w = gauss_legendre_01(n)
    k = np.arange(2 * n)
    assert_allclose((w * z ** k[:, None]).sum(axis=1), 1.0 / (k + 1), rtol=1e-14)
    assert np.all(np.diff(z) > 0) and np.all(w > 0)
    assert_allclose(z + z[::-1], 1.0, rtol=0, atol=1e-16)  # symmetric about 1/2


@pytest.mark.parametrize("c", [-0.8, -0.3, 0.2, 1.4, 1.9])
@pytest.mark.parametrize("n", [12, 16, 64])
def test_jacobi_exact_for_polynomials(n, c):
    # int_0^1 z^(c+k) dz = 1 / (c + k + 1), k <= 2n - 1
    z, w = jacobi_01(n, c)
    k = np.arange(2 * n)
    assert_allclose((w * z ** k[:, None]).sum(axis=1), 1.0 / (c + k + 1), rtol=1e-14)
    assert np.all(np.diff(z) > 0) and np.all(w > 0)
    assert 0.0 < z[0] and z[-1] < 1.0


def test_cached_rules_are_read_only():
    # the rules are cached and shared: writing into one would change every
    # later grid (a weight doubled made gauss_legendre_unit(5) refuse its own
    # rule), every later kernel value, h weight or first-order eigenfunction
    with pytest.raises(ValueError, match="read-only"):
        QuadGrid.gauss_legendre_unit(5).weights[0] *= 2.0
    assert QuadGrid.gauss_legendre_unit(5).weights.sum() == pytest.approx(1.0, abs=1e-15)
    p = ModelParams(H=0.7, beta=-1.0)
    before = fou_cov(0.3, 0.8, p)
    with pytest.raises(ValueError, match="read-only"):
        jacobi_01(64, 1.4)[1][:] *= 1.0 + 1e-6
    assert fou_cov(0.3, 0.8, p) == before
    cached = {"gauss_legendre_01": gauss_legendre_01(5), "jacobi_01": jacobi_01(64, 1.4),
              "_master_rule": asymptotics._master_rule()[:2],
              "_h_pattern": asymptotics._h_pattern()[:2],
              "_layer_rule": asymptotics._layer_rule(0.6),
              "_auxiliary_rule": ia_refine._auxiliary_rule(),
              "_cauchy_inverse": (ia_refine._cauchy_inverse(),)}
    for name, arrays in cached.items():
        for arr in arrays:
            assert not arr.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0


# reference panel loops, one panel at a time: the composite rules must keep
# their panel order and the rounding of every node and weight

def _graded_loop(a, b, toward, n_panels, m, ratio=0.5, cover_sliver=False):
    xg, wg = gauss_legendre_01(m)
    edges = (b - a) * ratio ** np.arange(n_panels + 1)
    if cover_sliver:
        edges = np.concatenate([edges, [0.0]])
    nodes, weights = [], []
    for far, near in zip(edges[:-1], edges[1:]):
        h = far - near
        dist = near + h * xg
        nodes.append(a + dist if toward == a else b - dist)
        weights.append(h * wg)
    return np.concatenate(nodes), np.concatenate(weights)


def _doubling_loop(a, n_panels, m):
    xg, wg = gauss_legendre_01(m)
    lo = h = a
    nodes, weights = [], []
    for _ in range(n_panels):
        nodes.append(lo + h * xg)
        weights.append(h * wg)
        lo += h
        h *= 2.0
    return np.concatenate(nodes), np.concatenate(weights), lo


def _auxiliary_loop():
    edges = ia_refine.U_MAX * np.linspace(0.0, 1.0, 13) ** 2
    xg, wg = gauss_legendre_01(12)
    nodes = np.concatenate([a + (b - a) * xg for a, b in zip(edges[:-1], edges[1:])])
    weights = np.concatenate([(b - a) * wg for a, b in zip(edges[:-1], edges[1:])])
    return nodes, weights


def _assert_same(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w) and np.shape(g) == np.shape(w)


@pytest.mark.parametrize("width", [1.0, 0.7, 1e-3, 1e-300])
@pytest.mark.parametrize("n_panels", [16, 24])
def test_graded_nodes_match_panel_loop(n_panels, width):
    for a in (0.0, 0.5, -2.0):
        b = a + width
        for toward in (a, b):
            for cover_sliver in (False, True):
                args = (a, b, toward, n_panels, 16, 0.5, cover_sliver)
                _assert_same(graded_nodes(*args), _graded_loop(*args))
    _assert_same(graded_nodes(0.0, 0.3, 0.0, n_panels, 12, 0.25),
                 _graded_loop(0.0, 0.3, 0.0, n_panels, 12, 0.25))


def test_doubling_nodes_match_panel_loop():
    for e in range(-20, 30):
        for n_panels in (1, 25, 40):
            got, want = doubling_nodes(2.0 ** e, n_panels, 16), _doubling_loop(2.0 ** e, n_panels, 16)
            _assert_same(got, want)
        _assert_same(doubling_nodes(3.0 * 2.0 ** e, 7, 12), _doubling_loop(3.0 * 2.0 ** e, 7, 12))


def test_cached_rules_match_panel_loops():
    _assert_same(ia_refine._auxiliary_rule(), _auxiliary_loop())
    head = asymptotics._HEAD
    nodes, weights, end = asymptotics._master_rule()
    _assert_same((nodes, weights, end), _doubling_loop(head, 52, 16))
    m = 16
    parts = [_doubling_loop(head, 25, m)[:2], _graded_loop(0.5, 1.0, 1.0, 28, m),
             _graded_loop(1.0, 2.0, 1.0, 29, m), _doubling_loop(2.0, 29, m)[:2]]
    s, w = (np.concatenate(c) for c in zip(*parts))
    assert s[:25 * m].max() < 0.5  # the head panels end at 2^-26 2^25 = 1/2
    got_s, got_wk, _ = asymptotics._h_pattern()
    _assert_same((got_s, got_wk), (s, w * np.log(np.abs((1.0 + s) / (1.0 - s)))))
    _assert_same(asymptotics._layer_rule(0.6)[:2], _doubling_loop(2.0 ** -16, 40, 16)[:2])


@pytest.mark.parametrize("m", [1, 2, 5, 12, 16])
def test_gl_panels_exact_on_each_panel(m):
    # panels of any sign, width and order; on each, int_lo^hi ((x - lo)/h)^k dx
    # = h / (k + 1) for k <= 2m - 1
    lo = np.array([3.0, -1.0, 0.0, 1e-6, 250.0])
    hi = np.array([4.5, -0.25, 1e-9, 2e-6, 1000.0])
    nodes, weights = gl_panels(lo, hi, m)
    assert nodes.shape == weights.shape == (len(lo) * m,)
    x, w = nodes.reshape(-1, m), weights.reshape(-1, m)
    h = (hi - lo)[:, None]
    assert np.all((x > lo[:, None]) & (x < hi[:, None]))
    k = np.arange(2 * m)
    got = np.einsum("pj,pjk->pk", w, ((x - lo[:, None]) / h)[..., None] ** k)
    assert_allclose(got, h / (k + 1), rtol=1e-13)


@pytest.mark.parametrize("cover_sliver", [False, True])
@pytest.mark.parametrize("ratio", [0.5, 0.25])
def test_graded_panels_exact_and_weights_sum(ratio, cover_sliver):
    # `toward` at 0 keeps the node distances exact, so the check reads the
    # panel rules and not the rounding of a +- dist
    n_panels, m = 16, 12
    k = np.arange(2 * m)
    for a, b, toward in ((0.0, 2.0, 0.0), (-2.0, 0.0, 0.0)):
        edges = (b - a) * ratio ** np.arange(n_panels + 1)
        if cover_sliver:
            edges = np.append(edges, 0.0)
        nodes, weights = graded_nodes(a, b, toward, n_panels, m, ratio, cover_sliver)
        # panel p lies between the distances edges[p + 1] < edges[p] from `toward`
        x, w = np.abs(nodes).reshape(-1, m), weights.reshape(-1, m)
        h = (edges[:-1] - edges[1:])[:, None]
        y = (x - edges[1:, None]) / h
        assert np.all((y > 0) & (y < 1))
        assert_allclose(np.einsum("pj,pjk->pk", w, y[..., None] ** k), h / (k + 1), rtol=1e-13)
        want = (b - a) if cover_sliver else (b - a) * (1.0 - ratio ** n_panels)
        assert weights.sum() == pytest.approx(want, rel=1e-14)


def test_doubling_panels_exact():
    a, n_panels, m = 2.0 ** -16, 40, 16
    nodes, weights, end = doubling_nodes(a, n_panels, m)
    assert end == a * 2.0 ** n_panels
    lo = a * 2.0 ** np.arange(n_panels)
    x, w = nodes.reshape(-1, m), weights.reshape(-1, m)
    k = np.arange(2 * m)
    y = (x - lo[:, None]) / lo[:, None]
    assert np.all((y > 0) & (y < 1))
    assert_allclose(np.einsum("pj,pjk->pk", w, y[..., None] ** k), lo[:, None] / (k + 1),
                    rtol=1e-13)
    assert weights.sum() == pytest.approx(end - a, rel=1e-14)

import numpy as np
from numpy.polynomial import polynomial as P
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wronski import poly
from wronski.errors import InvalidInput


def coeff_arrays(min_deg=1, max_deg=5):
    return st.integers(min_deg, max_deg).flatmap(
        lambda n: st.lists(
            st.floats(-5, 5, allow_nan=False).filter(lambda x: abs(x) > 1e-3),
            min_size=n + 1, max_size=n + 1))


def test_wronskian_closed_form():
    # W(z, z^2+1) = z*2z - 1*(z^2+1) = z^2 - 1
    w = poly.wronskian([0.0, 1.0], [1.0, 0.0, 1.0])
    assert np.allclose(w, [-1.0, 0.0, 1.0])


def test_wronskian_antisymmetric():
    f, g = np.array([1.0, 2.0, 3.0]), np.array([0.5, -1.0, 0.0, 2.0])
    assert np.allclose(poly.wronskian(f, g), -poly.wronskian(g, f))


@given(coeff_arrays())
@settings(max_examples=50)
def test_wronskian_vanishes_on_dependent(f):
    f = np.asarray(f)
    w = poly.wronskian(f, 2.5 * f)
    scale = (np.abs(f).max() ** 2) * f.size ** 2
    assert np.abs(w).max(initial=0.0) <= 1e-10 * scale


def test_from_roots_round_trip():
    r = np.array([-2.0, -0.5, 1.0, 3.0])
    c = P.polyfromroots(r)
    back = np.sort(poly.roots(c).real)
    assert np.allclose(back, r, atol=1e-10)


def test_roots_of_zero_poly_raises():
    with pytest.raises(InvalidInput):
        poly.roots([0.0, 0.0])


def test_deflate_exact():
    c = P.polyfromroots([1.0, 2.0, 3.0])
    q = poly.deflate(c, 2.0)
    assert np.allclose(np.sort(poly.roots(q).real), [1.0, 3.0])


@given(coeff_arrays(2, 4), st.floats(0.3, 2.0), st.floats(-2, 2))
@settings(max_examples=50)
def test_compose_affine_evaluation(c, alpha, beta):
    c = np.asarray(c)
    shifted = poly.compose_affine(c, alpha, beta)
    for z in (-1.3, 0.0, 0.7):
        assert P.polyval(z, shifted) == pytest.approx(
            P.polyval(alpha * z + beta, c), rel=1e-9, abs=1e-9)


def test_span_equivalent_recombination():
    f, g = np.array([0.0, 1.0]), np.array([1.0, 0.0, 1.0])
    f2 = 2.0 * f
    g2 = P.polyadd(g, -3.0 * f)
    assert poly.span_equivalent((f, g), (f2, g2))
    assert not poly.span_equivalent((f, g), (f, np.array([1.0, 0.0, 0.0, 1.0])))


def test_span_equivalent_rejects_degenerate():
    f = np.array([0.0, 1.0])
    with pytest.raises(InvalidInput):
        poly.span_equivalent((f, 2 * f), (f, np.array([1.0, 1.0])))


def test_pair_independent():
    assert poly.pair_independent([0.0, 1.0], [1.0, 0.0, 1.0])
    assert not poly.pair_independent([0.0, 2.0], [0.0, 1.0])


@given(coeff_arrays(1, 3), coeff_arrays(1, 3), coeff_arrays(1, 3))
@settings(max_examples=50)
def test_wronskian_bilinear(f, g, h):
    f, g, h = map(np.asarray, (f, g, h))
    lhs = poly.wronskian(f, P.polyadd(g, h))
    rhs = P.polyadd(poly.wronskian(f, g), poly.wronskian(f, h))
    n = max(lhs.size, rhs.size)
    pad = lambda c: np.pad(c, (0, n - c.size))
    assert np.allclose(pad(lhs), pad(rhs), atol=1e-8)

"""Dense polynomial arithmetic with exact-degree normalization.

Polynomials are numpy arrays of coefficients in ascending degree order
(real or complex).  Every public function returns a normalized array:
trailing coefficients below DROP_TOL times the max magnitude are stripped,
so the last entry is the structurally nonzero leading coefficient.
"""

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import DegeneratePair, ZeroPolynomial

# Relative magnitude below which a trailing coefficient counts as zero.
DROP_TOL = 1e-12


def as_poly(c):
    """Coerce input to a 1-d coefficient array (ascending degree)."""
    a = np.atleast_1d(np.asarray(c))
    if a.ndim != 1:
        raise ValueError("coefficients must be one-dimensional")
    if not np.issubdtype(a.dtype, np.complexfloating):
        a = a.astype(float)
    return a


def normalize(c, tol=DROP_TOL):
    """Strip trailing near-zero coefficients."""
    a = as_poly(c)
    mags = np.abs(a)
    scale = mags.max() if a.size else 0.0
    if scale == 0.0:
        return a[:1] * 0.0
    keep = np.nonzero(mags > tol * scale)[0]
    return a[: keep[-1] + 1].copy()


def degree(c):
    """Degree after normalization; -1 for the zero polynomial."""
    a = normalize(c)
    if a.size == 1 and a[0] == 0:
        return -1
    return a.size - 1


def is_zero(c, tol=DROP_TOL):
    return degree(normalize(c, tol)) == -1


def polyval(c, z):
    return P.polyval(z, as_poly(c))


def polyadd(f, g):
    return normalize(P.polyadd(as_poly(f), as_poly(g)))


def polysub(f, g):
    return normalize(P.polysub(as_poly(f), as_poly(g)))


def polymul(f, g):
    return normalize(P.polymul(as_poly(f), as_poly(g)))


def derivative(c):
    a = as_poly(c)
    if a.size == 1:
        return a * 0.0
    return P.polyder(a)


def wronskian(f, g):
    """f * g' - f' * g."""
    f = as_poly(f)
    g = as_poly(g)
    return normalize(P.polysub(P.polymul(f, derivative(g)),
                               P.polymul(derivative(f), g)))


def from_roots(roots):
    """Monic polynomial with the given roots (empty list gives 1)."""
    r = np.atleast_1d(np.asarray(roots))
    if r.size == 0:
        return np.array([1.0])
    return P.polyfromroots(r)


def roots(c, tol=1e-10):
    """All deg(c) roots with multiplicity, via the companion matrix.

    Raises ZeroPolynomial on the identically-zero input.
    """
    a = normalize(c, tol=min(tol, DROP_TOL))
    if degree(a) == -1:
        raise ZeroPolynomial("cannot extract roots of the zero polynomial")
    if a.size == 1:
        return np.array([], dtype=complex)
    return np.sort_complex(P.polyroots(a))


def real_roots(c, imag_tol=1e-8):
    """Roots of a real polynomial asserted to be real; sorted ascending."""
    r = roots(c)
    scale = 1.0 + np.abs(r).max() if r.size else 1.0
    if r.size and np.abs(r.imag).max() > imag_tol * scale:
        raise ZeroPolynomial(
            "polynomial has roots with non-negligible imaginary part")
    return np.sort(r.real)


def compose_affine(c, alpha, beta):
    """Coefficients of p(alpha*z + beta), by Horner's rule: each step
    multiplies the partial result by alpha*z + beta in place."""
    a = as_poly(c)
    out = np.zeros(a.size, dtype=a.dtype)
    for ck in a[::-1]:
        out[1:] = beta * out[1:] + alpha * out[:-1]
        out[0] = beta * out[0] + ck
    return normalize(out)


def deflate(c, r):
    """Divide out a (near-)root r by synthetic division; remainder dropped."""
    a = as_poly(c)
    n = a.size - 1
    q = np.zeros(n, dtype=np.result_type(a.dtype, type(r)))
    acc = a[n]
    for j in range(n - 1, -1, -1):
        q[j] = acc
        acc = a[j] + r * acc
    return q


def _stack_coeffs(polys):
    polys = [as_poly(p) for p in polys]
    m = np.zeros((len(polys), max(p.size for p in polys)),
                 dtype=np.result_type(*polys))
    for i, p in enumerate(polys):
        m[i, : p.size] = p
    return m


def pair_independent(f, g, tol=1e-10):
    """True iff (f, g) are linearly independent."""
    m = _stack_coeffs([f, g])
    norms = np.linalg.norm(m, axis=1)
    if np.any(norms == 0):
        return False
    s = np.linalg.svd(m / norms[:, None], compute_uv=False)
    return s[-1] > tol * s[0]


def span_equivalent(pair1, pair2, tol=1e-8):
    """True iff both pairs span the same 2-dimensional space.

    Decided by the numerical rank of the stacked 4-row coefficient matrix.
    Raises DegeneratePair if either pair is linearly dependent.
    """
    for pair in (pair1, pair2):
        if not pair_independent(pair[0], pair[1]):
            raise DegeneratePair("pair is linearly dependent")
    m = _stack_coeffs([pair1[0], pair1[1], pair2[0], pair2[1]])
    norms = np.linalg.norm(m, axis=1)
    s = np.linalg.svd(m / norms[:, None], compute_uv=False)
    return s[2] <= tol * s[0]

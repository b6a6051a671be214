"""Polynomial helpers that numpy.polynomial.polynomial lacks.

Polynomials are numpy arrays of coefficients in ascending degree order
(real or complex).  Arithmetic is numpy.polynomial.polynomial's, which
drops only exact trailing zeros, so where the structure fixes a degree the
array's length is that degree plus one, however the points are scaled.
A coefficient is dropped for being small only through trim, at a tolerance
its caller chooses.
"""

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import InvalidInput


def as_poly(c):
    """Coerce input to a 1-d coefficient array (ascending degree)."""
    a = np.atleast_1d(np.asarray(c))
    if a.ndim != 1:
        raise InvalidInput("coefficients must be one-dimensional")
    if not np.issubdtype(a.dtype, np.complexfloating):
        a = a.astype(float)
    return a


def trim(c, tol):
    """c without its trailing coefficients of magnitude at most tol times
    its largest one."""
    a = as_poly(c)
    return P.polytrim(a, tol * np.abs(a).max())


def wronskian(f, g):
    """f * g' - f' * g."""
    f = as_poly(f)
    g = as_poly(g)
    return P.polysub(P.polymul(f, P.polyder(g)), P.polymul(P.polyder(f), g))


def roots(c):
    """All roots with multiplicity, via the companion matrix, as a sorted
    complex array; the degree is that of the last nonzero coefficient.

    Raises InvalidInput on the identically-zero input.
    """
    a = as_poly(c)
    if not a.any():
        raise InvalidInput("cannot extract roots of the zero polynomial")
    return np.sort_complex(P.polyroots(a))


def compose_affine(c, alpha, beta):
    """Coefficients of p(alpha*z + beta), by Horner's rule: each step
    multiplies the partial result by alpha*z + beta in place."""
    a = as_poly(c)
    out = np.zeros(a.size, dtype=a.dtype)
    for ck in a[::-1]:
        out[1:] = beta * out[1:] + alpha * out[:-1]
        out[0] = beta * out[0] + ck
    return out


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


def pair_independent(f, g):
    """True iff (f, g) are linearly independent."""
    m = _stack_coeffs([f, g])
    norms = np.linalg.norm(m, axis=1)
    if np.any(norms == 0):
        return False
    s = np.linalg.svd(m / norms[:, None], compute_uv=False)
    return s[-1] > 1e-10 * s[0]


def span_equivalent(pair1, pair2, tol=1e-8):
    """True iff both pairs span the same 2-dimensional space.

    Decided by the numerical rank of the stacked 4-row coefficient matrix.
    Raises InvalidInput if either pair is linearly dependent.
    """
    for pair in (pair1, pair2):
        if not pair_independent(pair[0], pair[1]):
            raise InvalidInput("pair is linearly dependent")
    m = _stack_coeffs([pair1[0], pair1[1], pair2[0], pair2[1]])
    norms = np.linalg.norm(m, axis=1)
    s = np.linalg.svd(m / norms[:, None], compute_uv=False)
    return s[2] <= tol * s[0]

"""Nets: the arc diagram cut out by g^{-1}(real axis) above the real line.

For a real rational function g = q1/q2 with 2d-2 distinct real critical
points, the preimage of the extended real axis meets the upper half-plane
in d-1 disjoint arcs, each joining two critical points.  The arcs form a
non-crossing perfect matching on the critical points; together with the
distinguished rightmost vertex this matching determines the class.

Tracing works on the real function phi(z) = Im(q1(z) * conj(q2(z))),
whose zero set away from the real axis is exactly Im g = 0 -- this avoids
any special handling of poles of g along the curve.  Steps shrink near
the vertices, and an arc lands on a vertex within 0.05 times the smallest
gap between vertices, so that a pair of critical points closer together
than the step still gets two arcs of its own.
"""

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as P

from . import poly
from .combinat import ballot_to_matching, is_noncrossing
from .errors import InvalidInput, TraceLost

# Largest step, per unit of 1 + max|vertex|; factor of a step that the
# corrector threw off the curve; steps per arc.
STEP = 1e-2
SHRINK = 0.5
MAX_STEPS = 100000
# An arc lands on a vertex within CAPTURE times the smallest gap between
# vertices, once it has been ten times that far from its start.
CAPTURE = 0.05


@dataclass(frozen=True)
class Net:
    vertices: tuple
    matching: frozenset
    distinguished: int
    arcs: dict = field(default_factory=dict, compare=False)


def _horner(c, z):
    """c[0] + c[1] z + ... by Horner's rule; c is a tuple of floats and z a
    Python complex, so that every operation stays a scalar one."""
    acc = c[-1] + z * 0
    for ck in c[-2::-1]:
        acc = ck + acc * z
    return acc


def _phi_and_gradient(polys, z):
    """phi = Im(q1 conj(q2)) and its real gradient as a complex number;
    polys = (q1, q2, q1', q2') as float tuples."""
    v1, v2, d1, d2 = (_horner(c, z) for c in polys)
    phi = (v1 * v2.conjugate()).imag
    u = d1 * v2.conjugate()
    w = v1 * d2.conjugate()
    gx = (u + w).imag
    gy = (u - w).real
    return phi, gx + 1j * gy


def _correct(polys, z, scale):
    """Newton steps transverse to the level curve phi = 0."""
    for _ in range(12):
        phi, grad = _phi_and_gradient(polys, z)
        g2 = grad.real ** 2 + grad.imag ** 2
        if g2 == 0.0:
            break
        # Complex by real as NumPy divides: times the reciprocal, which
        # the traced polylines are reproducible against.
        dz = phi * grad * (1.0 / g2)
        z = z - dz
        if abs(dz) < 1e-14 * scale:
            break
    return z


def _trace_arc(q1, q2, start, vertices, upward=True):
    """Follow the level curve leaving `start` vertically, return
    (endpoint vertex index, polyline)."""
    polys = tuple(tuple(float(c) for c in p) for p in
                  (q1, q2, P.polyder(q1), P.polyder(q2)))
    scale = float(1 + np.abs(vertices).max())
    R = 10.0 * scale
    sign = 1.0 if upward else -1.0
    delta = 1e-7 * scale
    start = float(start)
    z = start + sign * 1j * delta
    pts = [complex(start), z]
    tangent_prev = sign * 1j
    h = STEP * scale
    min_h = 1e-7 * scale
    capture = CAPTURE * np.diff(vertices).min()
    launched = False
    for _ in range(MAX_STEPS):
        _, grad = _phi_and_gradient(polys, z)
        if grad == 0.0:
            raise TraceLost("level curve tangent vanished")
        t = (-grad.imag + 1j * grad.real)
        t = t * (1.0 / abs(t))          # as in _correct
        if (t * tangent_prev.conjugate()).real < 0:
            t = -t
        dist = float(np.abs(z - vertices).min())
        step = min(h, max(0.25 * dist, min_h))
        z_new = _correct(polys, z + step * t, scale)
        # reject correction blow-ups by halving the step
        while abs(z_new - z) > 3 * step and step > min_h:
            step *= SHRINK
            z_new = _correct(polys, z + step * t, scale)
        tangent_prev = t
        z = z_new
        pts.append(z)
        if abs(z) > R:
            raise TraceLost("curve left the bounding box")
        if not launched:
            if abs(z - start) > 10 * capture:
                launched = True
            continue
        k = int(np.argmin(np.abs(z - vertices)))
        if abs(z - vertices[k]) < capture:
            pts.append(complex(vertices[k]))
            return k, np.array(pts)
    raise TraceLost("step budget exhausted before landing")


def trace_net(pc, upward=True):
    """Trace all upper-half-plane arcs of a real class; raises InvalidInput
    for a class, or critical points, that are not real."""
    coeffs = np.concatenate([pc.q1, pc.q2])
    if np.abs(coeffs.imag).max() > 1e-8 * np.abs(coeffs).max():
        raise InvalidInput("coefficients must be real")
    q1, q2 = np.real(pc.q1), np.real(pc.q2)
    w = poly.wronskian(q1, q2)
    if w.size != 2 * pc.d - 1:
        raise TraceLost("critical point at infinity")
    vertices = poly.real_roots(w)
    ends = {}
    arcs = {}
    for i, x in enumerate(vertices):
        k, pts = _trace_arc(q1, q2, x, vertices, upward=upward)
        ends[i] = k
        arcs[i] = pts
    pairs = set()
    polylines = {}
    for i, k in ends.items():
        if k == i or ends.get(k) != i:
            raise TraceLost("arc endpoints do not pair up")
        a, b = sorted((i + 1, k + 1))
        pairs.add((a, b))
        polylines[(a, b)] = arcs[a - 1]
    matching = frozenset(pairs)
    if 2 * len(matching) != vertices.size or not is_noncrossing(matching):
        raise TraceLost("traced arcs do not form a non-crossing matching")
    return Net(vertices=tuple(vertices), matching=matching,
               distinguished=vertices.size, arcs=polylines)


def net_from_ballot(sigma, vertices):
    """Predicted net for a branch label: ballot position m is the m-th
    vertex from the left, as tracing every branch for d = 3 and d = 4
    confirms (see tests)."""
    vertices = tuple(np.sort(np.asarray(vertices, dtype=float)))
    if len(vertices) != len(sigma):
        raise InvalidInput("one vertex per ballot position required")
    return Net(vertices=vertices, matching=ballot_to_matching(sigma),
               distinguished=len(sigma))


def degree_drop_edge(net, m):
    """Whether fusing vertices m and m+1 lowers the degree: true exactly
    when the net has an arc joining them."""
    n = len(net.vertices)
    if not 1 <= m < n:
        raise InvalidInput("need adjacent vertex indices")
    return (m, m + 1) in net.matching

"""Nets: the arc diagram cut out by g^{-1}(real axis) above the real line.

For a real rational function g = q1/q2 with 2d-2 distinct real critical
points, the preimage of the extended real axis meets the upper half-plane
in d-1 disjoint arcs, each joining two critical points.  The arcs form a
non-crossing perfect matching on the critical points; together with the
distinguished rightmost vertex this matching determines the class.

Tracing works on the real function phi(z) = Im(q1(z) * conj(q2(z))),
whose zero set away from the real axis is exactly Im g = 0 -- this avoids
any special handling of poles of g along the curve.  `trace_net` traces
the arcs of all classes of one point set in lockstep, as one complex NumPy
state over tracker.derivative_stack, from both ends, which must pair up.
The vertices are the given points, not computed roots of the Wronskian, so
every class shares them.  Each arc keeps its own tangent, step and flags and
leaves the stack when it lands, so its polyline does not depend on the
rest of the stack.  An arc launches vertically at CAPTURE times the
smallest gap between the points and lands on a vertex within that radius,
so a pair of critical points closer than the step gets two arcs.  A net
arc meets the real axis only at its end vertices, so an arc that comes
down to it anywhere else, as the arc of a class whose critical points miss
the given points does, raises TraceLost.

Each arc chooses its own step (Allgower and Georg, "Introduction to
Numerical Continuation Methods", 2003): the step doubles while the
corrector barely moves the predicted point, where the curve is nearly
straight at that length, and holds where the curve bends.  It stays below
a quarter of the distance to the nearest vertex and above a fraction of
the capture radius, so step lengths follow the gaps between the points,
not their distance from 0.
"""

from dataclasses import dataclass, field

import numpy as np

from . import tracker
from .combinat import ballot_to_matching, is_noncrossing
from .errors import InvalidInput, TraceLost

# An arc's step doubles after a step whose corrector moved the predicted
# point by less than GROW times the step, and otherwise keeps the step it
# took.  A step is at most a quarter of the distance to the nearest vertex
# and LARGEST times the spread of the vertices, and at least FLOOR times the
# capture radius; SHRINK halves a step the corrector threw off the curve;
# MAX_STEPS bounds the steps of one arc.
GROW = 0.02
LARGEST = 0.1
FLOOR = 0.01
SHRINK = 0.5
MAX_STEPS = 100000
# An arc starts and lands within CAPTURE times the smallest gap between
# vertices; it may land once it has been ten times that far from its start.
CAPTURE = 0.05


@dataclass(frozen=True)
class Net:
    vertices: tuple
    matching: frozenset
    distinguished: int
    arcs: dict = field(default_factory=dict, compare=False)


def _phi_and_gradient(C, z):
    """phi = Im(q1 conj(q2)) and its real gradient as a complex number at
    one point z per arc.  C is the tracker.derivative_stack of order 1 of
    the arcs' classes, one column per arc."""
    v1, v2, d1, d2 = tracker.evaluate(C, z)
    c2 = v2.conj()
    # grad = 2 dphi/dconj(z) = i (conj(q1' conj(q2)) - q1 conj(q2'))
    return (v1 * c2).imag, 1j * ((d1 * c2).conj() - v1 * d2.conj())


def _correct(C, z, tol):
    """Up to 12 Newton steps transverse to the level curve phi = 0; an arc
    is frozen once its step is below tol, once its step no longer halves
    (it has reached rounding noise), or where the gradient vanishes."""
    live = np.ones(z.shape, dtype=bool)
    last = np.full(z.shape, np.inf)
    for _ in range(12):
        phi, grad = _phi_and_gradient(C, z)
        live &= grad != 0.0
        # phi grad / |grad|^2, and no step for a frozen arc
        dz = np.divide(phi, grad.conj(), out=np.zeros_like(z), where=live)
        z = z - dz
        size = np.abs(dz)
        live &= (size >= tol) & (size < 0.5 * last)
        last = size
        if not live.any():
            break
    return z


def _sweep(C, x, V, capture, scale, sign, names):
    """Trace every arc from its start vertex x until it lands; returns the
    index of the vertex in V each arc lands on and its polyline.  Every arc
    shares the vertices V, the capture radius and the scale; names[j] heads
    the errors of arc j.  A polyline is a list, one point per step."""
    n = x.size
    ends = np.zeros(n, dtype=int)
    arc = np.arange(n)
    z = x + sign * 1j * capture
    tangent = np.full(n, sign * 1j)
    launched = np.zeros(n, dtype=bool)
    h = np.full(n, capture)
    column = V[:, None]
    dist = np.abs(z - column).min(axis=0)
    lines = [[complex(a), b] for a, b in zip(x.tolist(), z.tolist())]
    min_h, max_h = FLOOR * capture, LARGEST * (V[-1] - V[0])
    tol = 1e-14 * scale

    def lost(mask, reason):
        raise TraceLost(f"{names[arc[mask].min()]}: {reason}")

    for _ in range(MAX_STEPS):
        _, grad = _phi_and_gradient(C, z)
        if not grad.all():
            lost(grad == 0.0, "level curve tangent vanished")
        t = 1j * grad / np.abs(grad)
        t = np.where((t * tangent.conj()).real < 0, -t, t)
        step = np.minimum(np.minimum(h, max_h),
                          np.maximum(0.25 * dist, min_h))
        guess = z + step * t
        new = _correct(C, guess, tol)
        # reject correction blow-ups by halving the step
        bad = (np.abs(new - z) > 3 * step) & (step > min_h)
        while bad.any():
            step[bad] *= SHRINK
            guess[bad] = z[bad] + step[bad] * t[bad]
            new[bad] = _correct(C[..., bad], guess[bad], tol)
            bad &= (np.abs(new - z) > 3 * step) & (step > min_h)
        # double the step while the corrector barely moves the prediction
        h = np.where(np.abs(new - guess) < GROW * step, 2 * step, step)
        tangent, z = t, new
        for j, p in zip(arc.tolist(), z.tolist()):
            lines[j].append(p)
        inside = np.abs(z) <= 10.0 * scale
        if not inside.all():
            lost(~inside, "curve left the bounding box")
        gaps = np.abs(z - column)
        dist = gaps.min(axis=0)
        land = launched & (dist < capture)
        # a net arc meets the real axis only at its end vertices
        fell = (sign * z.imag < min_h) & ~land
        if fell.any():
            lost(fell, "curve reached the real axis away from the vertices")
        launched = launched | (np.abs(z - x) > 10 * capture)
        if land.any():
            ends[arc[land]] = k = gaps[:, land].argmin(axis=0)
            for j, p in zip(arc[land].tolist(), V[k].tolist()):
                lines[j].append(complex(p))
            if land.all():
                break
            arc, C, x, z, tangent, launched, dist, h = (
                a[..., ~land] for a in (arc, C, x, z, tangent, launched,
                                        dist, h))
    else:
        lost(arc >= 0, "step budget exhausted before landing")
    return ends, [np.array(p) for p in lines]


def trace_net(classes, points, upward=True):
    """Trace all upper-half-plane arcs of every real class whose critical
    points are the given points, one Net per class; the sorted points are
    the vertices of every net.  Raises InvalidInput for a class that is not
    real, or for points that fail tracker.distinct_points or are not
    2d - 2."""
    classes, v = list(classes), tracker.distinct_points(points)
    if not classes:
        return []
    n = v.size
    # one column per arc: each class's n arcs, in vertex order
    C = np.repeat(tracker.derivative_stack(classes, 1), n, axis=2)
    if any(n != 2 * pc.d - 2 for pc in classes):
        raise InvalidInput(f"need 2d - 2 = {2 * classes[0].d - 2} points")
    names = [f"word {pc.ballot}, arc from vertex {i + 1}"
             for pc in classes for i in range(n)]
    ends, lines = _sweep(C, np.tile(v, len(classes)), v,
                         CAPTURE * np.diff(v).min(), 1 + np.abs(v).max(),
                         1.0 if upward else -1.0, names)
    out = []
    for pc, lo in zip(classes, range(0, C.shape[2], n)):
        end, polylines = ends[lo:lo + n], {}
        for i, k in enumerate(end):
            if k == i or end[k] != i:
                raise TraceLost(f"{names[lo + i]}: arc endpoints do not "
                                "pair up")
            a, b = sorted((i + 1, int(k) + 1))
            polylines[(a, b)] = lines[lo + a - 1]
        matching = frozenset(polylines)
        if not is_noncrossing(matching):
            raise TraceLost(f"word {pc.ballot}: traced arcs do not form a "
                            "non-crossing matching")
        out.append(Net(vertices=tuple(v), matching=matching,
                       distinguished=n, arcs=polylines))
    return out


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

"""solve_all over seeded point sets of three kinds at d = 4 to 7.

Every set must give catalan(d) classes (a path that jumps to another
branch raises CountMismatch), each with a backward error of at most 1e-10.
On uniform and close-pair points every Wronskian root must also lie within
1e-8 (1 + max|p|) of its point.  Clustered points, pairs 1e-4 to 1e-3
apart, are checked only backwards: their roots are ill-conditioned in the
monomial coefficients, so a class accurate to rounding can still miss the
root bound.
"""

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from wronski import tracker
from wronski.combinat import catalan
from wronski.errors import WronskiError

LO, HI = -5.0, 5.0
BACKWARD_TOL = 1e-10
ROOT_TOL = 1e-8


def _uniform(rng, n):
    """One point per equal cell of [LO, HI], 15% of a cell off its edges."""
    cells = np.arange(n) + rng.uniform(0.15, 0.85, n)
    return LO + (HI - LO) * cells / n


def _close_pair(rng, n):
    """Uniform, with the two rightmost points 0.2% to 0.6% of the interval
    apart."""
    p = _uniform(rng, n)
    p[-1] = p[-2] + (HI - LO) * 10.0 ** rng.uniform(-2.7, -2.2)
    return p


def _clustered(rng, n):
    """n/2 pairs 1e-4 to 1e-3 apart, centred in uniform cells."""
    centres = _uniform(rng, n // 2)
    gaps = 10.0 ** rng.uniform(-4.0, -3.0, n // 2)
    return np.concatenate([centres - gaps / 2, centres + gaps / 2])


KINDS = {"uniform": _uniform, "close-pair": _close_pair,
         "clustered": _clustered}
CASES = [(kind, d, seed) for kind in KINDS for d in (4, 5, 6)
         for seed in range(1, 6)] \
    + [(kind, 7, seed) for kind in KINDS for seed in (1, 2)]


def _errors(q1, q2, pts):
    """(backward, forward) error of one class: |W(p)| relative to the sum of
    the magnitudes of its terms, and the root error per unit of
    1 + max|p|."""
    w = P.polysub(P.polymul(q1, P.polyder(q2)), P.polymul(P.polyder(q1), q2))
    backward = (np.abs(P.polyval(pts, w))
                / P.polyval(np.abs(pts), np.abs(w))).max()
    roots = np.sort(P.polyroots(w).real)
    return backward, np.abs(roots - pts).max() / (1 + np.abs(pts).max())


def stress_points(kind, d, seed):
    rng = np.random.default_rng([seed, d, list(KINDS).index(kind)])
    return np.sort(KINDS[kind](rng, 2 * d - 2))


@pytest.mark.parametrize("kind, d, seed", [
    pytest.param(*case, id="{}-d{}-s{}".format(*case)) for case in CASES])
def test_solve_all_stress(kind, d, seed):
    pts = stress_points(kind, d, seed)
    classes = tracker.solve_all(pts, d)
    assert len(classes) == catalan(d)
    for pc in classes:
        backward, forward = _errors(pc.q1, pc.q2, pts)
        assert backward <= BACKWARD_TOL, pc.ballot
        if kind != "clustered":
            assert forward <= ROOT_TOL, pc.ballot


if __name__ == "__main__":
    # Prints the worst backward and root error of every case.
    for kind, d, seed in CASES:
        pts = stress_points(kind, d, seed)
        try:
            classes = tracker.solve_all(pts, d)
        except WronskiError as exc:
            print(f"{kind:10s} d={d} seed={seed} {type(exc).__name__}")
            continue
        errs = [_errors(pc.q1, pc.q2, pts) for pc in classes]
        print(f"{kind:10s} d={d} seed={seed} "
              f"backward={max(b for b, _ in errs):.1e} "
              f"root={max(f for _, f in errs):.1e}")

"""Independent checks of every operation's output, and output digests.

Expected counts are exact: catalan(d) classes from wronski.combinat, and
C(n, k) - C(n, k - 1) Bethe solutions or equilibria for each lower degree
k.  Residuals, root errors and distinctness are recomputed here with NumPy
rather than with the library's own helpers.

An outcome separates what the program delivered (`verified` of `expected`
solutions) from what it got wrong (`wrong`: a returned solution that fails
its check, or a duplicate).  An operation fails (`fail` is non-empty) when
it raised, exited non-zero, delivered the wrong number of solutions
("check"), or delivered classes whose roots miss ROOT_TOL although the
Wronskian vanishes at the points to rounding ("accuracy": seen on
clustered points, where the roots are ill-conditioned in the coefficients).
"""

import hashlib
import json
from dataclasses import dataclass
from math import comb

import numpy as np
from numpy.polynomial import polynomial as P

ROOT_TOL = 1e-8      # root error per unit of 1 + max|p| (criteria 1-2)
BACKWARD_TOL = 1e-10 # relative |W(p)| above which a class is wrong
IMAG_TOL = 1e-8      # imaginary part of class coefficients (criterion 2)
RESIDUAL_TOL = 1e-9  # Bethe and equilibrium residuals (criteria 4 and 6)
DISTINCT_TOL = 1e-6  # classes: rank test; solutions: max coordinate gap
S_TOL = 1e-6         # s = sqrt((n+1)^2 - 4 q*) must be this close to s
ROUNDING = 5e-12     # relative rounding of the CLI's 12-digit JSON numbers


@dataclass
class Outcome:
    expected: int
    verified: int = 0
    wrong: int = 0
    fail: str = ""
    digest: str = ""


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def lower_degree_count(n, k):
    """Bethe solutions or equilibria whose lower polynomial has degree k."""
    return comb(n, k) - (comb(n, k - 1) if k else 0)


def expected_count(op, catalan):
    """Solutions a complete answer to `op` has."""
    if op.kind == "bethe":
        return sum(lower_degree_count(op.n, k) for k in range(op.n // 2 + 1))
    if op.kind == "equilibrium":
        return lower_degree_count(op.n, op.m)
    return catalan(op.d)


def error_outcome(expected, exc):
    return Outcome(expected, fail=type(exc).__name__,
                   digest=_sha(f"error:{type(exc).__name__}:{exc}"))


# ---------------------------------------------------------------- classes

def _wronskian(q1, q2):
    return P.polysub(P.polymul(q1, P.polyder(q2)),
                     P.polymul(P.polyder(q1), q2))


def _class_errors(q1, q2, pts):
    """(backward, forward) error of a class.  Backward: |W(p)| relative to
    the magnitude of the terms that sum to it, so rounding alone gives
    about 1e-15.  Forward: root error per unit of 1 + max|p|."""
    w = _wronskian(q1, q2)
    if w.size != pts.size + 1 or w[-1] == 0:
        return np.inf, np.inf
    terms = P.polyval(np.abs(pts), np.abs(w))
    backward = (np.abs(P.polyval(pts, w)) / terms).max()
    got = np.sort(P.polyroots(w).real)
    return backward, np.abs(got - pts).max() / (1 + np.abs(pts).max())


def _same_span(a, b):
    m = np.zeros((4, max(x.size for x in a + b)), dtype=complex)
    for row, coeffs in enumerate(a + b):
        m[row, :coeffs.size] = coeffs
    m /= np.linalg.norm(m, axis=1)[:, None]
    s = np.linalg.svd(m, compute_uv=False)
    return s[2] <= DISTINCT_TOL * s[0]


def classes_outcome(classes, points, expected):
    """solve_all result: catalan(d) real, pairwise distinct classes whose
    roots meet ROOT_TOL.  A class that is backward-accurate but misses
    ROOT_TOL is not verified and fails the operation as "accuracy"."""
    pts = np.sort(np.asarray(points, dtype=float))
    out = Outcome(expected)
    kept, accurate = [], 0
    for pc in classes:
        pair = (np.asarray(pc.q1, dtype=complex),
                np.asarray(pc.q2, dtype=complex))
        mag = max(np.abs(pair[0]).max(), np.abs(pair[1]).max())
        imag = max(np.abs(pair[0].imag).max(), np.abs(pair[1].imag).max())
        backward, forward = _class_errors(*pair, pts)
        if (imag > IMAG_TOL * mag or backward > BACKWARD_TOL
                or any(_same_span(pair, k) for k in kept)):
            out.wrong += 1
            continue
        kept.append(pair)
        accurate += bool(forward <= ROOT_TOL)
    out.verified = min(accurate, expected)
    out.wrong += len(kept) - min(len(kept), expected)
    if len(classes) != expected or out.wrong:
        out.fail = "check"
    elif out.verified < expected:
        out.fail = "accuracy"
    out.digest = _sha(json.dumps([
        [pc.ballot, f"{pc.chart.base_point:.12g}",
         [f"{c:.12g}" for c in np.real(pc.q1)],
         [f"{c:.12g}" for c in np.real(pc.q2)]] for pc in classes]))
    return out


# ---------------------------------------------------------------- CLI

def _distinct(vectors, tol=DISTINCT_TOL):
    kept = []
    for v in vectors:
        if all(np.abs(v - k).max() > tol for k in kept):
            kept.append(v)
    return kept


def _bethe_ok(x, s, a):
    """Residual of x_k^2 = sum_j (x_j - x_k)/(a_j - a_k), allowing for the
    12-digit rounding of x, and the reported s against q* = sum x_k a_k."""
    n = a.size
    diff = a[None, :] - a[:, None]            # a_j - a_k
    np.fill_diagonal(diff, np.inf)
    inv = 1.0 / diff
    res = x ** 2 - ((x[None, :] - x[:, None]) * inv).sum(axis=1)
    jac = np.abs(inv)
    jac[np.arange(n), np.arange(n)] = np.abs(2 * x + inv.sum(axis=1))
    slack = jac @ (ROUNDING * np.abs(x))
    if np.any(np.abs(res) > RESIDUAL_TOL + slack):
        return False
    if abs(x.sum()) > RESIDUAL_TOL + ROUNDING * np.abs(x).sum():
        return False
    disc = (n + 1) ** 2 - 4 * float((x * a).sum())
    return disc >= 0 and abs(np.sqrt(disc) - s) <= S_TOL


def _bethe(doc, a):
    n = a.size
    expected = {n + 1 - 2 * k: lower_degree_count(n, k)
                for k in range(n // 2 + 1)}
    out = Outcome(sum(expected.values()))
    by_s = {}
    for sol in doc["solutions"]:
        x, s = np.asarray(sol["x"], dtype=float), sol["s"]
        if s in expected and x.size == n and _bethe_ok(x, s, a):
            by_s.setdefault(s, []).append(x)
        else:
            out.wrong += 1
    for s, want in expected.items():
        got = by_s.get(s, [])
        kept = len(_distinct(got))
        out.verified += min(kept, want)
        out.wrong += len(got) - min(kept, want)
        if kept != want:
            out.fail = "check"
    return out


def _equilibrium_ok(z, a):
    """Force 2 sum_j 1/(z_k - z_j) - sum_j 1/(z_k - a_j), allowing for the
    12-digit rounding of z."""
    dz = z[:, None] - z[None, :]
    np.fill_diagonal(dz, 1.0)
    da = z[:, None] - a[None, :]
    if np.any(dz == 0) or np.any(da == 0):
        return False
    inv = 1.0 / dz
    np.fill_diagonal(inv, 0.0)
    force = 2 * inv.sum(axis=1) - (1.0 / da).sum(axis=1)
    jac = 2 * np.abs(inv) ** 2
    jac[np.arange(z.size), np.arange(z.size)] = np.abs(
        -2 * (inv ** 2).sum(axis=1) + (1.0 / da ** 2).sum(axis=1))
    slack = jac @ (ROUNDING * (np.abs(z.real) + np.abs(z.imag)))
    return bool(np.all(np.abs(force) <= RESIDUAL_TOL + slack))


def _equilibrium(doc, a, m):
    out = Outcome(lower_degree_count(a.size, m))
    good = []
    for eq in doc["equilibria"]:
        z = np.array([complex(re, im) for re, im in eq["z"]])
        if z.size == m and _equilibrium_ok(z, a):
            good.append(z)
        else:
            out.wrong += 1
    kept = len(_distinct(good))
    out.verified = min(kept, out.expected)
    out.wrong += len(good) - out.verified
    if kept != out.expected:
        out.fail = "check"
    return out


def _noncrossing_perfect(pairs, n):
    ends = sorted(v for p in pairs for v in p)
    if ends != list(range(1, n + 1)):
        return False
    return not any(a < c < b < e for a, b in pairs for c, e in pairs)


def _net(doc, n, expected):
    out = Outcome(expected)
    seen = set()
    for net in doc["nets"]:
        pairs = [tuple(p) for p in net["matching"]]
        key = frozenset(pairs)
        if (not _noncrossing_perfect(pairs, n) or net["distinguished"] != n
                or key in seen):
            out.wrong += 1
        else:
            seen.add(key)
    out.verified = min(len(seen), expected)
    out.wrong += len(seen) - out.verified
    if len(doc["nets"]) != expected or out.wrong:
        out.fail = "check"
    return out


def _verify(doc, expected):
    out = Outcome(expected)
    if doc["ok"] is True and doc["classes"] == expected:
        out.verified = expected
    else:
        out.fail = "check"
    return out


def cli_outcome(op, code, text, expected):
    """One CLI command: exit 0 and a document that passes its check."""
    doc = json.loads(text)
    if code != 0:
        out = Outcome(expected, fail=doc.get("kind", "error"))
    elif op.kind == "bethe":
        out = _bethe(doc, np.asarray(op.points))
    elif op.kind == "equilibrium":
        out = _equilibrium(doc, np.asarray(op.points), op.m)
    elif op.kind == "net":
        out = _net(doc, op.n, expected)
    else:
        out = _verify(doc, expected)
    out.digest = _sha(text)
    return out

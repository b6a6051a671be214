"""F-operations on canonical pairs, the steps of the staged construction.

Starting from (z^e, z^d) with 0 <= e < d, each operation F1/F2, allowed
under the permission rule, adds one low-order term a*z^{k_i - 1} with
a >= 0 to q1 or q2 and lowers k_i by one, so one more Wronskian root
leaves the multiple root at 0.  F1 fires e times and F2 d-1 times, in the
order of an F-word (combinat.ballot_sequences; a ballot sequence when
e = d-1).  tracker._build_trie fires every operation at a = 0, once per
node of the trie of F-word prefixes: then W / z^k of the new pair is z
times the old one, so the newborn root sits exactly at 0, and the trie
continues it to its prescribed position, for all nodes of one depth
together, before the next operation fires.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import poly
from .errors import NegativeParameter, NotPermitted


@dataclass(frozen=True)
class CanonicalPair:
    """Normalized pair: q1 monic of degree e < d, q2 monic of degree d,
    lowest-order exponents k1 < k2, all stored coefficients non-negative."""
    d: int
    k1: int
    k2: int
    q1: np.ndarray
    q2: np.ndarray
    sigma: str = ""

    @property
    def order(self):
        """Multiplicity of the Wronskian root at 0: k1 + k2 - 1."""
        return self.k1 + self.k2 - 1

    def wronskian(self):
        return poly.wronskian(self.q1, self.q2)


def initial_pair(d, e=None):
    """The unique pair with k1 = e, k2 = d: (z^e, z^d), by default
    e = d-1."""
    if d < 2:
        raise ValueError("degree must be at least 2")
    e = d - 1 if e is None else e
    if not 0 <= e < d:
        raise ValueError("lower degree must lie in [0, d)")
    q1 = np.zeros(e + 1)
    q1[e] = 1.0
    q2 = np.zeros(d + 1)
    q2[d] = 1.0
    return CanonicalPair(d=d, k1=e, k2=d, q1=q1, q2=q2)


def permitted(i, pair):
    """Whether operation F^i keeps 0 <= k1 < k2 <= d."""
    if i == 1:
        return pair.k1 > 0
    if i == 2:
        return pair.k2 > pair.k1 + 1
    raise ValueError("operation index must be 1 or 2")


def apply_F(i, a, pair):
    """Add the term a*z^{k_i - 1} to q_i; k_i drops by one."""
    if not permitted(i, pair):
        raise NotPermitted(f"F^{i} not permitted on b({pair.k1}, {pair.k2})")
    if a < 0:
        raise NegativeParameter("parameter must be non-negative")
    if i == 1:
        q1 = pair.q1.copy()
        q1[pair.k1 - 1] = a
        return replace(pair, k1=pair.k1 - 1, q1=q1)
    q2 = pair.q2.copy()
    q2[pair.k2 - 1] = a
    return replace(pair, k2=pair.k2 - 1, q2=q2)


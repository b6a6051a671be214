"""Exact counting and enumeration.

Catalan numbers, ballot sequences, non-crossing perfect matchings,
semi-standard Young tableaux of shape 2 x (d-1), Kostka numbers, and
counts of collapsed nets with prescribed vertex degrees.  Everything here
is exact integer combinatorics; outputs are in lexicographic order so they
can be used as deterministic fixtures.

Matchings are frozensets of 1-based index pairs (i, j) with i < j.
"""

from math import comb

from .errors import InvalidInput


def catalan(d):
    """Number of classes with 2d-2 generic critical points: C(2d-2, d-1)/d."""
    if d < 2:
        raise InvalidInput("degree must be at least 2")
    return comb(2 * d - 2, d - 1) // d


def is_ballot(sigma):
    """Ballot condition: equal counts, every prefix has #1 >= #2."""
    depth = 0
    for ch in sigma:
        if ch == "1":
            depth += 1
        elif ch == "2":
            depth -= 1
        else:
            return False
        if depth < 0:
            return False
    return depth == 0


def ballot_sequences(d, e=None):
    """All F-words of the degree pair (e, d), lexicographic.

    A word has e letters 1 and d-1 letters 2, and every prefix keeps the
    permission rule k2 > k1 + 1 of the staged construction before each 2,
    so at most d-e-1 more 2s than 1s.  There are C(n, e) - C(n, e-1) of
    them for n = d+e-1; the default e = d-1 gives the ballot sequences
    of length 2d-2.
    """
    if d < 2:
        raise InvalidInput("degree must be at least 2")
    e = d - 1 if e is None else e
    if not 0 <= e < d:
        raise InvalidInput("lower degree must lie in [0, d)")
    n = d + e - 1
    out = []

    def rec(prefix, ones, twos):
        if len(prefix) == n:
            out.append(prefix)
            return
        if ones < e:
            rec(prefix + "1", ones + 1, twos)
        if twos < ones + d - e - 1:
            rec(prefix + "2", ones, twos + 1)

    rec("", 0, 0)
    return out


def ballot_to_matching(sigma):
    """Parenthesis matching: each 2 pairs with the most recent unpaired 1."""
    if not is_ballot(sigma):
        raise InvalidInput(f"not a ballot sequence: {sigma!r}")
    stack = []
    arcs = set()
    for pos, ch in enumerate(sigma, start=1):
        if ch == "1":
            stack.append(pos)
        else:
            arcs.add((stack.pop(), pos))
    return frozenset(arcs)


def is_noncrossing(arcs):
    arcs = sorted(arcs)
    for i, (a, b) in enumerate(arcs):
        for c, e in arcs[i + 1:]:
            if a < c < b < e:
                return False
    return True


def noncrossing_matchings(n):
    """All non-crossing perfect matchings on points 1..n, lexicographic."""
    if n % 2:
        return []

    def rec(points):
        if not points:
            return [frozenset()]
        first = points[0]
        out = []
        for idx in range(1, len(points), 2):
            inner = points[1:idx]
            outer = points[idx + 1:]
            for mi in rec(inner):
                for mo in rec(outer):
                    out.append(frozenset({(first, points[idx])}) | mi | mo)
        return out

    return sorted(rec(list(range(1, n + 1))), key=sorted)


def _check_content(content, d):
    if d < 2:
        raise InvalidInput("degree must be at least 2")
    content = list(content)
    if not content or any(a < 1 or a > d - 1 for a in content):
        raise InvalidInput(f"entries of {content} must lie in [1, {d - 1}]")
    if sum(content) != 2 * d - 2:
        raise InvalidInput(f"entries of {content} must sum to {2 * d - 2}")
    return content


def enumerate_ssyt(content, d):
    """All SSYT of shape 2 x (d-1) with the given content, by backtracking.

    A tableau is a pair of tuples (top row, bottom row); rows are
    non-decreasing, columns strictly increasing, and value k is used
    content[k-1] times.
    """
    content = _check_content(content, d)
    width = d - 1
    remaining = list(content)
    top = [0] * width
    bottom = [0] * width
    out = []

    def place(pos):
        # Cells filled row-major: top row first, then bottom row.
        if pos == 2 * width:
            out.append((tuple(top), tuple(bottom)))
            return
        row, col = divmod(pos, width)
        cells = top if row == 0 else bottom
        lo = 1
        if col > 0:
            lo = cells[col - 1]
        if row == 1:
            lo = max(lo, top[col] + 1)
        for val in range(lo, len(remaining) + 1):
            if remaining[val - 1] == 0:
                continue
            remaining[val - 1] -= 1
            cells[col] = val
            place(pos + 1)
            remaining[val - 1] += 1
        cells[col] = 0

    place(0)
    return out


def kostka(content, d):
    """Number of SSYT of shape 2 x (d-1) with the given content."""
    return len(enumerate_ssyt(content, d))


def count_nets_multiplicity(content, d):
    """Collapsed-net count for vertex degrees (2*a_1, ..., 2*a_q).

    A vertex of degree 2*a_j is modeled as a_j consecutive points on the
    line; counts non-crossing perfect matchings on all 2d-2 points with no
    arc internal to one group.
    """
    content = _check_content(content, d)
    group = []
    for gi, a in enumerate(content):
        group.extend([gi] * a)
    count = 0
    for m in noncrossing_matchings(2 * d - 2):
        if all(group[i - 1] != group[j - 1] for i, j in m):
            count += 1
    return count

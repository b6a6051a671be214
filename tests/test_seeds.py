import numpy as np
import pytest

from wronski import seeds
from wronski.errors import NegativeParameter, NotPermitted


def test_initial_pair():
    p = seeds.initial_pair(4)
    assert (p.k1, p.k2) == (3, 4)
    assert np.allclose(p.q1, [0, 0, 0, 1])
    assert np.allclose(p.q2, [0, 0, 0, 0, 1])
    assert p.order == 6  # Wronskian is a pure power of z
    p = seeds.initial_pair(4, 1)
    assert (p.k1, p.k2) == (1, 4)
    assert np.allclose(p.q1, [0, 1])
    assert p.order == 4


def test_permitted_rule():
    p = seeds.initial_pair(3)
    assert seeds.permitted(1, p)          # k1 = 2 > 0
    assert not seeds.permitted(2, p)      # k2 = k1 + 1
    p = seeds.apply_F(1, 0.1, p)
    assert seeds.permitted(2, p)          # now k2 > k1 + 1


def test_apply_F_errors():
    p = seeds.initial_pair(3)
    with pytest.raises(NotPermitted):
        seeds.apply_F(2, 0.1, p)
    with pytest.raises(NegativeParameter):
        seeds.apply_F(1, -1.0, p)


def test_apply_F_drops_exponent_and_keeps_monic():
    p = seeds.initial_pair(3)
    q = seeds.apply_F(1, 0.25, p)
    assert (q.k1, q.k2) == (1, 3)
    assert q.q1[1] == 0.25 and q.q1[2] == 1.0


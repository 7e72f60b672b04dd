import random

import numpy as np
import pytest

from laurent import laurent_product, laurent_sum, random_laurent
from ringref import agrees_with, leading
from wildprim import modrep
from wildprim.finitefield import FFElt
from wildprim.localring import RingElt
from wildprim.tower import BaseField, build_tower


Q2 = BaseField(2, 1, 0)
Q4 = BaseField(2, 2, 0)
F2T = BaseField(2, 1, 2)


def test_q2_n2_numerology():
    t = build_tower(Q2, 2)
    assert (t.e, t.s, t.fprime) == (3, 2, 6)
    assert t.group_order == 18
    assert len(t.group_elements()) == 18


def test_q2_n3_numerology():
    t = build_tower(Q2, 3)
    assert t.e == 7
    assert t.s == 3  # order of 2 mod 7
    assert t.fprime == 21


def test_degenerate_tower_n1():
    t = build_tower(Q2, 1)
    assert (t.e, t.s, t.fprime) == (1, 1, 1)
    assert t.group_elements() == [(0, 0)]
    assert t.sigma == (0, 0) and t.phi == (0, 0)


def test_q4_n2_group_is_commutative_exponent_3():
    t = build_tower(Q4, 2)
    assert t.s == 1 and t.group_order == 9
    els = t.group_elements()
    for g in els:
        for h in els:
            assert t.compose(g, h) == t.compose(h, g)
        acc = t.identity()
        for _ in range(3):
            acc = t.compose(acc, g)
        assert acc == t.identity()


def test_overflow_guard():
    with pytest.raises(ValueError):
        build_tower(BaseField(2, 1, 0), 5)  # residue degree would be far over 64


def test_group_law_against_presentation():
    t = build_tower(Q2, 2)
    q = t.base.q
    for g in t.group_elements():
        assert t.compose(g, t.inverse(g)) == t.identity()
    # phi sigma phi^{-1} = sigma^q
    lhs = t.compose(t.phi, t.compose(t.sigma, t.inverse(t.phi)))
    rhs = t.identity()
    for _ in range(q):
        rhs = t.compose(t.sigma, rhs)
    assert lhs == rhs


def rand_elt(tower, rng):
    """A RingElt in char 0, a Laurent dict {exponent: nonzero coefficient}
    in char p."""
    if tower.base.char == 0:
        ring = tower.ring
        data = np.array([[rng.randrange(ring.pm) for _ in range(ring.fprime)]
                         for _ in range(ring.e)])
        return RingElt(ring, data)
    return random_laurent(tower.residue, rng, -3, 4)


def add(x, y):
    return laurent_sum(x, y) if isinstance(x, dict) else x + y


def mul(x, y):
    return laurent_product(x, y) if isinstance(x, dict) else x * y


def same(x, y):
    return x == y if isinstance(x, dict) else agrees_with(x, y)


@pytest.mark.parametrize("base,n", [(Q2, 2), (F2T, 2), (Q4, 2)])
def test_apply_is_ring_automorphism(base, n):
    t = build_tower(base, n)
    rng = random.Random(5)
    gs = [t.sigma, t.phi, t.compose(t.sigma, t.phi)]
    for g in gs:
        for _ in range(8):
            x, y = rand_elt(t, rng), rand_elt(t, rng)
            assert same(t.apply(g, add(x, y)), add(t.apply(g, x), t.apply(g, y)))
            assert same(t.apply(g, mul(x, y)), mul(t.apply(g, x), t.apply(g, y)))


@pytest.mark.parametrize("base,n", [(Q2, 2), (F2T, 2)])
def test_apply_composes(base, n):
    t = build_tower(base, n)
    rng = random.Random(6)
    els = t.group_elements()
    for _ in range(12):
        g = els[rng.randrange(len(els))]
        h = els[rng.randrange(len(els))]
        x = rand_elt(t, rng)
        assert same(t.apply(t.compose(g, h), x), t.apply(g, t.apply(h, x)))


def test_sigma_moves_uniformizer_by_zeta():
    t = build_tower(Q2, 2)
    pi = RingElt.uniformizer(t.ring)
    img = t.apply(t.sigma, pi)
    zeta_lift = RingElt.teichmuller(t.ring, t.zeta)
    assert agrees_with(img, zeta_lift * pi)
    # the uniformizer relation is preserved
    cube = img * img * img
    assert agrees_with(cube, RingElt.from_int(t.ring, 2))


@pytest.mark.parametrize("base,n", [(Q2, 3), (BaseField(3, 1, 0), 2), (BaseField(7, 2, 0), 1)])
def test_sigma_power_multiplies_row_i_by_a_zeta_power(base, n):
    # sigma^a sends pi^i to (w(zeta)^a pi)^i: row i of the coefficient array
    # is multiplied by w(zeta)^(ai)
    t = build_tower(base, n)
    ring = t.ring
    wz = RingElt.teichmuller(ring, t.zeta)
    rng = random.Random(t.e)
    x = rand_elt(t, rng)
    for a in (1, 2, t.e - 1):
        y = t.apply((a, 0), x)
        for i in range(t.e):
            row = np.zeros_like(x.data)
            row[0] = x.data[i]
            assert np.array_equal(y.data[i], (wz ** (a * i) * RingElt(ring, row)).data[0])


def test_presentation_on_uniformizer():
    t = build_tower(Q2, 2)
    pi = RingElt.uniformizer(t.ring)
    conj = t.compose(t.phi, t.compose(t.sigma, t.inverse(t.phi)))
    sq = t.compose(t.sigma, t.sigma)  # sigma^q with q = 2
    assert agrees_with(t.apply(conj, pi), t.apply(sq, pi))


def test_full_frobenius_power_is_identity():
    t = build_tower(Q2, 2)
    rng = random.Random(8)
    se = t.s * t.e
    x = rand_elt(t, rng)
    acc = x
    for _ in range(se):
        acc = t.apply(t.phi, acc)
    assert agrees_with(acc, x)


@pytest.mark.parametrize("base,n", [(Q2, 2), (Q4, 2), (F2T, 2)])
def test_base_field_is_fixed(base, n):
    t = build_tower(base, n)
    F, p = t.residue, t.p
    # the base residue field inside F: the fixed space of x -> x^(p^f)
    rows = modrep.kernel(F.frobenius_power(base.f) - np.eye(F.f, dtype=np.int64), p)
    assert rows.shape[0] == base.f
    for code in range(p ** base.f):
        digits = np.array([(code // p ** i) % p for i in range(base.f)], dtype=np.int64)
        img = FFElt(F, digits @ rows)
        # Teichmueller lift in char 0, constant Laurent polynomial in char p
        if base.char == 0:
            lift = RingElt.teichmuller(t.ring, img)
        else:
            lift = {} if img.is_zero() else {0: img}
        for g in (t.sigma, t.phi):
            assert same(t.apply(g, lift), lift)


def test_inertia_acts_freely_on_uniformizer_line():
    t = build_tower(Q2, 2)
    pi = RingElt.uniformizer(t.ring)
    seen = set()
    for a in range(t.e):
        img = t.apply((a, 0), pi)
        lead = leading(img)
        assert lead[0] == 1
        seen.add(lead[1].code())
    assert len(seen) == t.e


def test_zeta_recorded_deterministically():
    t1 = build_tower(Q2, 2)
    t2 = build_tower(Q2, 2)
    assert t1.zeta == t2.zeta
    assert t1.describe() == t2.describe()

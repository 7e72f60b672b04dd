import random
from dataclasses import replace

import numpy as np
import pytest

from ringref import agrees_with, is_zero_to_window, leading, val_at_most
from wildprim.errors import PrecisionExhausted
from wildprim.finitefield import FFElt
from wildprim.localring import RingElt, default_precision, ring_create


def rand_unit(ring, rng):
    data = np.array([[rng.randrange(ring.pm) for _ in range(ring.fprime)]
                     for _ in range(ring.e)])
    data[0, 0] |= 1 if ring.p == 2 else 0
    x = RingElt(ring, data)
    if x.residue().is_zero():
        fix = np.zeros_like(data)
        fix[0, 0] = 1
        x = x + RingElt(ring, fix)
    return x


def rand_elt(ring, rng):
    x = rand_unit(ring, rng)
    return RingElt.uniformizer(ring, rng.randrange(3)) * x


@pytest.fixture(scope="module")
def mixed_ring():
    # e = 3 ramified layer over unramified coefficients of degree 6 (p = 2)
    return ring_create(2, 6, 3)


def test_default_precision_formula():
    assert default_precision(2, 3) == 6 + 3 + 8
    assert default_precision(3, 8) == 12 + 8 + 8


def test_inverse_of_5_mod_2_10():
    ring = ring_create(2, 1, 1, prec=10)
    x = RingElt.from_int(ring, 5)
    y = x.inv()
    assert int(y.data[0, 0]) % 1024 == 205


def test_uniformizer_relation_char0():
    ring = ring_create(2, 1, 3)
    pi = RingElt.uniformizer(ring)
    assert agrees_with(pi * pi * pi, RingElt.from_int(ring, 2))


def test_val_of_p_equals_e():
    ring = ring_create(2, 1, 3)
    assert RingElt.from_int(ring, 2).val() == 3


def test_val_of_uniformizer_square_times_unit():
    ring = ring_create(2, 2, 3)
    rng = random.Random(0)
    u = rand_unit(ring, rng)
    x = RingElt.uniformizer(ring, 2) * u
    assert x.val() == 2


def test_leading_of_one_plus_pi():
    ring = ring_create(2, 1, 3)
    x = RingElt.one(ring) + RingElt.uniformizer(ring)
    v, a = leading(x - RingElt.one(ring))
    assert v == 1 and a == ring.residue.one


def test_one_plus_pi_squared_expansion():
    # (1 + pi)^2 = 1 + 2 pi + pi^2 with e = 3, p = 2
    ring = ring_create(2, 1, 3)
    x = RingElt.one(ring) + RingElt.uniformizer(ring)
    sq = x * x
    expect = np.zeros((3, 1), dtype=np.int64)
    expect[0, 0] = 1
    expect[1, 0] = 2
    expect[2, 0] = 1
    assert agrees_with(sq, RingElt(ring, expect))


@pytest.mark.parametrize("which", ["mixed"])
def test_x_times_inv_x_is_one(which, mixed_ring):
    rng = random.Random(42)
    one = RingElt.one(mixed_ring)
    for _ in range(100):
        x = rand_unit(mixed_ring, rng)
        assert agrees_with(x * x.inv(), one)


def test_inv_of_nonunit_raises(mixed_ring):
    with pytest.raises(ZeroDivisionError):
        RingElt.uniformizer(mixed_ring).inv()


def test_mixed_ring_axioms_random(mixed_ring):
    rng = random.Random(7)
    for _ in range(40):
        x, y, z = (rand_elt(mixed_ring, rng) for _ in range(3))
        assert agrees_with((x * y) * z, x * (y * z))
        assert agrees_with(x * (y + z), x * y + x * z)


def test_val_additivity(mixed_ring):
    rng = random.Random(9)
    for _ in range(30):
        x, y = rand_elt(mixed_ring, rng), rand_elt(mixed_ring, rng)
        assert (x * y).val() == x.val() + y.val()
        vx, vy = x.val(), y.val()
        if vx != vy:
            assert (x + y).val() == min(vx, vy)
        else:
            s = x + y
            if not is_zero_to_window(s):
                assert s.val() >= vx


def test_teichmuller_fixed_by_power_q():
    ring = ring_create(2, 2, 3)
    F = ring.residue
    g = F.gen
    t = RingElt.teichmuller(ring, g)
    assert agrees_with(t * t * t, RingElt.one(ring))  # order q' - 1 = 3
    assert t.residue() == g
    assert is_zero_to_window(RingElt.teichmuller(ring, F.zero))
    assert agrees_with(RingElt.teichmuller(ring, F.one), RingElt.one(ring))


def test_teichmuller_trivial_for_f2():
    ring = ring_create(2, 1, 1)
    assert agrees_with(RingElt.teichmuller(ring, ring.residue.one), RingElt.one(ring))


def test_divide_uniformizer_power():
    ring0 = ring_create(2, 1, 3)
    x = RingElt.from_int(ring0, 2)  # val 3
    y = x.divide_uniformizer_power(3)
    assert agrees_with(y, RingElt.one(ring0))
    with pytest.raises(ValueError):
        RingElt.uniformizer(ring0, 2).divide_uniformizer_power(3)


def test_zero_detection_raises(mixed_ring):
    with pytest.raises(PrecisionExhausted):
        RingElt.zero(mixed_ring).val()


def test_val_at_most_certifies(mixed_ring):
    x = RingElt.uniformizer(mixed_ring, 5)
    assert val_at_most(x, 4) is None
    assert val_at_most(x, 5) == 5
    with pytest.raises(PrecisionExhausted):
        val_at_most(x, 10 ** 6)


def test_precision_monotonicity():
    # same computation in windows N and N + e agrees on the smaller window
    rng_seed = 11
    results = []
    for extra in (0, 3):
        ring = ring_create(2, 2, 3, prec=default_precision(2, 3) + extra)
        rng = random.Random(rng_seed)
        acc = RingElt.one(ring)
        for _ in range(6):
            data = np.array([[rng.randrange(1 << 20) | (1 if i == j == 0 else 0)
                              for j in range(ring.fprime)] for i in range(ring.e)])
            acc = acc * RingElt(ring, data) + RingElt.uniformizer(ring)
        results.append((ring, acc))
    (r1, a1), (r2, a2) = results
    w = min(a1.window, a2.window)
    for i in range(r1.e):
        for j in range(r1.fprime):
            digits = (w - i + r1.e - 1) // r1.e
            mod = 2 ** digits
            assert int(a1.data[i, j]) % mod == int(a2.data[i, j]) % mod


def _coeff(ring, c):
    """The coefficient c as a ring element: row 0, other pi-rows zero."""
    data = np.zeros((ring.e, ring.fprime), dtype=np.int64)
    data[0] = c
    return RingElt(ring, data)


def test_frobenius_matrix_is_ring_hom():
    ring = ring_create(2, 6, 3)
    Fm = ring.frobenius_power(1)
    rng = random.Random(3)

    def rand_coeff():
        return np.array([rng.randrange(ring.pm) for _ in range(ring.fprime)], dtype=np.int64)

    for _ in range(20):
        a, b = rand_coeff(), rand_coeff()
        fa, fb = (Fm @ a) % ring.pm, (Fm @ b) % ring.pm
        ab = (_coeff(ring, a) * _coeff(ring, b)).data[0]
        assert np.array_equal((Fm @ ab) % ring.pm, (_coeff(ring, fa) * _coeff(ring, fb)).data[0])
    # reduces to p-power Frobenius on the residue field
    for _ in range(10):
        a = rand_coeff()
        fa = (Fm @ a) % ring.pm
        assert _coeff(ring, fa).residue() == _coeff(ring, a).residue() ** 2


def _reference_mul(ring, a, b):
    """Product of two char-0 elements with Python integers: convolve in pi
    and X, fold pi^e = p, reduce modulo the ring's modulus and p^m."""
    e, f, pm = ring.e, ring.fprime, ring.pm
    F = ring.modulus
    wide = [[0] * (2 * f - 1) for _ in range(2 * e - 1)]
    for i in range(e):
        for j in range(e):
            for u in range(f):
                for v in range(f):
                    wide[i + j][u + v] += int(a[i, u]) * int(b[j, v])
    for k in range(2 * e - 2, e - 1, -1):
        wide[k - e] = [x + ring.p * y for x, y in zip(wide[k - e], wide[k])]
    out = np.zeros((e, f), dtype=np.int64)
    for i in range(e):
        row = wide[i]
        for k in range(2 * f - 2, f - 1, -1):
            top, row[k] = row[k], 0
            for t in range(f):
                row[k - f + t] -= top * F[t]
        out[i] = [x % pm for x in row[:f]]
    return out


# (p, f', e): the rings of the n = 1 towers over Q_5..Q_13 (e = f' = p - 1),
# of the benchmark's Q_2 n=3, Q_3 n=2, Q_8 n=2 and Q_49 n=1, a wider f' at
# p = 3, and the edge cases e = 1 and f' = 1
RING_SHAPES = [pytest.param(p, p - 1, p - 1, id=str(p)) for p in (5, 7, 11, 13)] + [
    (2, 21, 7), (3, 16, 8), (2, 18, 3), (7, 12, 6), (3, 32, 8),
    (2, 9, 1), (3, 1, 2), (5, 1, 1)]


@pytest.mark.parametrize("p,fprime,e", RING_SHAPES)
def test_mul_matches_python_int_reference(p, fprime, e):
    # every pairing of operands with 0, 1, 2 and e nonzero pi-rows
    ring = ring_create(p, fprime, e)
    rng = random.Random(p * fprime * e)

    def operand(nrows):
        data = np.zeros((e, fprime), dtype=np.int64)
        for i in rng.sample(range(e), min(nrows, e)):
            data[i] = [rng.randrange(ring.pm) for _ in range(fprime)]
        return data

    for _ in range(2):
        for ra in (0, 1, 2, e):
            for rb in (0, 1, 2, e):
                a, b = operand(ra), operand(rb)
                product = RingElt(ring, a) * RingElt(ring, b)
                assert np.array_equal(product.data, _reference_mul(ring, a, b))


@pytest.mark.parametrize("p,fprime,e", RING_SHAPES)
@pytest.mark.parametrize("size", [1, 5])
def test_stacked_mul_matches_python_int_reference(p, fprime, e, size):
    # a stack of random elements times one element with 0, 1, 2 and e
    # nonzero pi-rows, element by element
    ring = ring_create(p, fprime, e)
    rng = random.Random(p * fprime * e + size)
    for nrows in (0, 1, 2, e):
        b = np.zeros((e, fprime), dtype=np.int64)
        for i in rng.sample(range(e), min(nrows, e)):
            b[i] = [rng.randrange(ring.pm) for _ in range(fprime)]
        stack = np.array([[[rng.randrange(ring.pm) for _ in range(fprime)]
                           for _ in range(e)] for _ in range(size)], dtype=np.int64)
        product = RingElt(ring, stack, ring.full_window - 1) * RingElt(ring, b)
        assert product.data.shape == stack.shape
        assert product.window == ring.full_window - 1
        for a, ab in zip(stack, product.data):
            assert np.array_equal(ab, _reference_mul(ring, a, b))


@pytest.mark.parametrize("p,fprime,e", RING_SHAPES)
def test_digit_matches_divided_residue(p, fprime, e):
    ring = ring_create(p, fprime, e)
    rng = random.Random(p + fprime + e)
    for _ in range(20):
        x = RingElt.uniformizer(ring, rng.randrange(ring.full_window - e)) * rand_unit(ring, rng)
        k = x.val()
        assert x.digit(k) == x.divide_uniformizer_power(k).residue()


def test_ring_refuses_int64_overflow():
    with pytest.raises(ValueError, match="overflow"):
        ring_create(41, 40, 40)


@pytest.mark.parametrize("p,fprime,e", [(2, 21, 7), (3, 16, 8), (7, 12, 6),
                                        (3, 32, 8), (2, 9, 1), (3, 1, 2)])
def test_teichmuller_matches_power_iteration(p, fprime, e):
    # the defining iteration z -> z^(p^f'), m + 1 times from the plain lift
    ring = ring_create(p, fprime, e)
    F = ring.residue
    rng = random.Random(fprime)
    for a in [F.one, F.gen] + [F.from_code(rng.randrange(F.order)) for _ in range(3)]:
        z = RingElt.monomial(ring, 0, a)
        for _ in range(ring.m + 1):
            z = z ** (p ** fprime)
        assert np.array_equal(RingElt.teichmuller(ring, a).data, z.data)


@pytest.mark.parametrize("p,fprime,e", RING_SHAPES)
def test_frobenius_lift_is_the_hensel_root(p, fprime, e):
    # F has one root mod p^m congruent to x^p mod p, so these two facts
    # determine phi(X); F is evaluated with the Python-int product
    ring = ring_create(p, fprime, e)
    F = ring.residue
    phi_x = (ring.frobenius_power(1) @ np.array(F.gen.coeffs, dtype=np.int64)) % ring.pm
    r = _coeff(ring, phi_x).data
    acc = np.zeros_like(r)
    for c in reversed(ring.modulus):
        acc = _reference_mul(ring, acc, r)
        acc[0, 0] = (acc[0, 0] + c) % ring.pm
    assert not np.any(acc)
    assert FFElt(F, phi_x) == F.gen ** p


@pytest.mark.parametrize("p,fprime,e", RING_SHAPES)
def test_modulus_lifts_the_residue_modulus(p, fprime, e):
    ring = ring_create(p, fprime, e)
    assert len(ring.modulus) == fprime + 1 and ring.modulus[-1] == 1
    assert [c % p for c in ring.modulus] == ring.residue.modulus


@pytest.mark.parametrize("p,fprime,e", RING_SHAPES)
def test_teichmuller_lift_of_a_power_basis_element_is_a_monomial(p, fprime, e):
    # X = w(x) in the Teichmueller presentation, so w(x^j) = X^j
    ring = ring_create(p, fprime, e)
    F = ring.residue
    for j in range(fprime):
        xj = F.from_code(p ** j)
        assert np.array_equal(RingElt.teichmuller(ring, xj).data,
                              RingElt.monomial(ring, 0, xj).data)


@pytest.mark.parametrize("p,fprime,e", RING_SHAPES)
def test_frobenius_lift_is_the_power_map(p, fprime, e):
    # column j of phi's matrix is (X^p)^j
    ring = ring_create(p, fprime, e)
    Fm = ring.frobenius_power(1)
    xp = RingElt.monomial(ring, 0, ring.residue.gen) ** p
    for j in range(fprime):
        assert np.array_equal(Fm[:, j], (xp ** j).data[0])


@pytest.mark.parametrize("p,fprime,e", RING_SHAPES)
def test_presentations_do_not_mix(p, fprime, e):
    # the ring presented by the plain lift of h is another ring, except for
    # h = x (f' = 1), which is its own Teichmueller modulus
    ring = ring_create(p, fprime, e)
    plain = replace(ring, modulus=tuple(ring.residue.modulus))
    assert (plain == ring) == (fprime == 1)
    if fprime > 1:
        with pytest.raises(ValueError, match="different rings"):
            RingElt.one(plain) * RingElt.one(ring)


def test_pow_matches_repeated_products(mixed_ring):
    rng = random.Random(5)
    x = rand_elt(mixed_ring, rng)
    acc = RingElt.one(mixed_ring)
    for k in range(8):
        y = x ** k
        assert np.array_equal(y.data, acc.data) and y.window == acc.window
        acc = acc * x
    assert np.array_equal(x.pth_power().data, (x * x).data)


def _reference_stored_val(x):
    """The per-row loop: divide each nonzero row by p while every entry is
    divisible, and take the least i + e * v_p."""
    ring = x.ring
    best = None
    for i in range(ring.e):
        vals = x.data[i][x.data[i] != 0]
        if vals.size == 0:
            continue
        vp = 0
        while np.all(vals % ring.p == 0):
            vals = vals // ring.p
            vp += 1
        if best is None or i + ring.e * vp < best:
            best = i + ring.e * vp
    return best


@pytest.mark.parametrize("p,fprime,e", [(2, 6, 3), (3, 4, 2), (5, 2, 4),
                                        (2, 3, 1), (3, 1, 1), (7, 2, 6)])
def test_stored_val_matches_row_loop(p, fprime, e):
    ring = ring_create(p, fprime, e)
    pm, m = ring.pm, ring.m
    rng = random.Random(p * 100 + fprime * 10 + e)
    samples = [RingElt.zero(ring), RingElt.one(ring),
               RingElt.from_int(ring, p ** (m - 1))]
    for _ in range(60):
        data = np.array([[rng.randrange(pm) for _ in range(fprime)]
                         for _ in range(e)], dtype=np.int64)
        for i in range(e):
            kind = rng.randrange(4)
            if kind == 0:
                data[i] = 0
            elif kind == 1:  # every entry divisible by p^k, some by p^(m-1)
                k = rng.randrange(1, m)
                data[i] = (data[i] * p ** k) % pm
            elif kind == 2:
                data[i] = [p ** (m - 1) * rng.randrange(p) for _ in range(fprime)]
        samples.append(RingElt(ring, data))
    for x in samples:
        assert x._stored_val() == _reference_stored_val(x)

import random

import numpy as np
import pytest

from wildprim import gfpoly, modrep
from wildprim.finitefield import (
    FFElt, abs_trace, field_create, first_element_of_order,
    frobenius, pth_root,
)


def evaluate(f, x, p):
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % p
    return acc


def all_monic_irreducible(p, f):
    out = []
    for code in range(p ** f):
        poly = [(code // p ** i) % p for i in range(f)] + [1]
        for x in range(p):
            if evaluate(poly, x, p) == 0:
                break
        else:
            if f <= 3 or gfpoly.is_irreducible(poly, p):
                out.append(poly)
    # degree <= 3: no root over F_p <=> irreducible
    return out


def test_modulus_prime_field():
    assert field_create(2, 1).modulus == [0, 1]


def test_modulus_f4_unique_quadratic():
    assert field_create(2, 2).modulus == [1, 1, 1]


def test_modulus_f8_least_of_exhaustive():
    # independent oracle: enumerate all 8 monic cubics, keep the root-free ones
    irred = all_monic_irreducible(2, 3)
    assert sorted(gfpoly.poly_code(m[:3], 2) for m in irred) == [3, 5]
    assert field_create(2, 3).modulus == [1, 1, 0, 1]  # x^3 + x + 1


def first_irreducible_unfiltered(p, f):
    """The least monic irreducible of degree f, in field_create's code order,
    with the Berlekamp test (is_irreducible) run on every candidate."""
    for code in range(p ** f):
        poly = [(code // p ** i) % p for i in range(f)] + [1]
        if gfpoly.is_irreducible(poly, p):
            return poly


@pytest.mark.parametrize("p,f", [
    (2, 2), (2, 8), (2, 19), (3, 5), (3, 12), (7, 2), (7, 3), (7, 12),
])
def test_modulus_matches_unfiltered_scan(p, f):
    # the modulus search skips candidates with a root in F_p
    assert field_create(p, f).modulus == first_irreducible_unfiltered(p, f)


# code sum(c_i p^i) of the non-leading coefficients of the value-least
# monic irreducible of degree f, from the earlier Rabin-test search
@pytest.mark.parametrize("p,f,code", [
    (2, 12, 9), (2, 18, 9), (2, 21, 5), (3, 16, 37), (7, 12, 58), (2, 60, 3),
    (5, 48, 138), (29, 28, 2), (3, 32, 52), (2, 64, 27), (61, 60, 2),
])
def test_modulus_is_pinned(p, f, code):
    assert gfpoly.poly_code(field_create(p, f).modulus[:-1], p) == code


def _remainder(f, g, p):
    """f mod a monic g by schoolbook long division."""
    f = list(f)
    for top in range(len(f) - 1, len(g) - 2, -1):
        lead = f[top]
        for i, c in enumerate(g):
            f[top - len(g) + 1 + i] = (f[top - len(g) + 1 + i] - lead * c) % p
    return f[:len(g) - 1]


def irreducible_by_trial_division(f, p):
    """No monic polynomial of degree 1..deg f // 2 divides f."""
    n = len(f) - 1
    return not any(not any(_remainder(f, [(code // p ** i) % p for i in range(d)] + [1], p))
                   for d in range(1, n // 2 + 1) for code in range(p ** d))


@pytest.mark.parametrize("p,top", [(2, 10), (3, 6), (5, 4), (7, 3)])
def test_is_irreducible_matches_trial_division(p, top):
    # every monic polynomial of degree 1..top, the linear ones included
    for n in range(1, top + 1):
        for code in range(p ** n):
            f = [(code // p ** i) % p for i in range(n)] + [1]
            assert gfpoly.is_irreducible(f, p) == irreducible_by_trial_division(f, p), f


def test_field_create_errors():
    with pytest.raises(ValueError):
        field_create(4, 2)
    with pytest.raises(ValueError):
        field_create(2, 0)


@pytest.mark.parametrize("p,f", [(2, 3), (3, 2), (5, 2), (2, 8)])
def test_field_axioms_random(p, f):
    F = field_create(p, f)
    rng = random.Random(17)
    pick = lambda: F.from_code(rng.randrange(F.order))
    for _ in range(60):
        a, b, c = pick(), pick(), pick()
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        if not a.is_zero():
            assert a * a.inverse() == F.one


def test_frobenius_is_automorphism_and_has_order_f():
    F = field_create(2, 6)
    rng = random.Random(3)
    for _ in range(40):
        a = F.from_code(rng.randrange(F.order))
        b = F.from_code(rng.randrange(F.order))
        assert frobenius(a + b) == frobenius(a) + frobenius(b)
        assert frobenius(a * b) == frobenius(a) * frobenius(b)
        assert frobenius(a, F.f) == a


def assert_trace_is_conjugate_sum(x):
    """abs_trace(x) is the constant coefficient of the sum of the f
    conjugates of x, a sum with no other nonzero coefficient."""
    F = x.field
    total, conj = F.zero, x
    for _ in range(F.f):
        total, conj = total + conj, conj ** F.p
    assert total.coeffs[1:] == (0,) * (F.f - 1)
    assert abs_trace(x) == total.coeffs[0]


@pytest.mark.parametrize("p,f", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)])
def test_pth_root_inverts_pth_power_exhaustively(p, f):
    F = field_create(p, f)
    for x in F.elements():
        assert pth_root(x ** p) == x
        assert pth_root(x) ** p == x
        for k in range(-1, f + 1):
            assert frobenius(x, k) == x ** (p ** (k % f))
        assert_trace_is_conjugate_sum(x)


LARGE_FIELDS = [(2, 1), (2, 21), (3, 32), (2, 60)]


@pytest.mark.parametrize("p,f", LARGE_FIELDS)
def test_inverse_matches_power_q_minus_2(p, f):
    F = field_create(p, f)
    rng = random.Random(f)
    for x in [F.one, F.gen] + [F.from_code(rng.randrange(1, F.order)) for _ in range(8)]:
        if x.is_zero():  # the generator of F_p is 0
            continue
        y = x.inverse()
        assert y == x ** (F.order - 2)
        assert x * y == F.one


@pytest.mark.parametrize("p,f", LARGE_FIELDS)
def test_pth_root_matches_power_p_f_minus_1(p, f):
    F = field_create(p, f)
    rng = random.Random(f)
    for x in [F.zero, F.one, F.gen] + [F.from_code(rng.randrange(F.order))
                                       for _ in range(8)]:
        r = pth_root(x)
        assert r ** p == x
        assert r == x ** (p ** (f - 1))
        assert frobenius(x) == x ** p
        assert_trace_is_conjugate_sum(x)


def test_pth_root_of_generator_in_f4():
    F4 = field_create(2, 2)
    g = first_element_of_order(F4, 3)
    assert pth_root(g) == g * g


def test_first_element_of_order_f8_exhaustive_order_check():
    F8 = field_create(2, 3)
    g = first_element_of_order(F8, 7)
    orders = {}
    for x in F8.elements():
        if x.is_zero():
            continue
        k, acc = 1, x
        while acc != F8.one:
            acc = acc * x
            k += 1
        orders[x.code()] = k
    generators = [code for code, k in orders.items() if k == 7]
    assert g.code() == min(generators)


def test_first_element_of_order():
    F = field_create(2, 6)
    z = first_element_of_order(F, 3)
    assert z ** 3 == F.one and z != F.one
    # least among the phi(3) = 2 elements of order 3
    others = [y for y in (z, z * z)]
    assert z.code() == min(o.code() for o in others)
    assert first_element_of_order(F, 1) == F.one


def multiplicative_order(x):
    k, acc = 1, x
    while acc != x.field.one:
        acc = acc * x
        k += 1
    return k


@pytest.mark.parametrize("p,f", [(2, 6), (3, 4), (5, 2), (7, 2)])
def test_first_element_of_order_matches_full_scan(p, f):
    F = field_create(p, f)
    q1 = F.order - 1
    # value order is code order: the first element found is the least
    least = {}
    for x in F.elements():
        if not x.is_zero():
            least.setdefault(multiplicative_order(x), x)
    assert sorted(least) == [e for e in range(1, q1 + 1) if q1 % e == 0]
    for e, x in least.items():
        assert first_element_of_order(F, e) == x
    with pytest.raises(ValueError):
        first_element_of_order(F, q1 + 1)
    with pytest.raises(ValueError):
        first_element_of_order(F, next(e for e in range(2, q1) if q1 % e))


def solve_artin_schreier(c, b):
    """Some x with x^p + c*x = b, or None; the map is F_p-linear in x."""
    F = c.field
    A = F.linear_matrix(lambda e: e ** F.p + c * e)
    try:
        sol = modrep.solve(A, np.array(b.coeffs, dtype=np.int64), F.p)
    except ValueError:
        return None
    return FFElt(F, sol.tolist())


def test_artin_schreier_f2_examples():
    F2 = field_create(2, 1)
    assert solve_artin_schreier(F2.one, F2.one) is None
    x = solve_artin_schreier(F2.one, F2.zero)
    assert x is not None and x ** 2 + x == F2.zero


def test_artin_schreier_f4_exhaustive():
    F4 = field_create(2, 2)
    for c in F4.elements():
        for b in F4.elements():
            got = solve_artin_schreier(c, b)
            brute = [x for x in F4.elements() if x ** 2 + c * x == b]
            if brute:
                assert got is not None and got ** 2 + c * got == b
            else:
                assert got is None


@pytest.mark.parametrize("p,f", [(2, 4), (3, 2)])
def test_artin_schreier_matches_exhaustive_search(p, f):
    F = field_create(p, f)
    for code_c in range(min(F.order, 9)):
        c = F.from_code(code_c)
        for code_b in range(F.order):
            b = F.from_code(code_b)
            got = solve_artin_schreier(c, b)
            brute = [x for x in F.elements() if x ** p + c * x == b]
            assert (got is not None) == bool(brute)
            if got is not None:
                assert got ** p + c * got == b


def test_abs_trace_values():
    F4 = field_create(2, 2)
    assert abs_trace(F4.one) == 0
    assert abs_trace(F4.gen) == 1

"""Exact arithmetic in F_{p^f} with deterministic construction.

The modulus of F_{p^f} is the first monic irreducible polynomial of degree
f in value order (integer code sum(c_i * p^i) of the non-leading
coefficients), so the same (p, f) always yields the same field with no
external tables.  Elements are coefficient tuples in the power basis of
the class of x; the element enumeration order used for every "first root"
and "least generator" rule is the same value order on coefficient vectors.
Every Frobenius power, the p-th root and the trace come from one cached
table of F_p-matrices, FiniteField.frobenius_power.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import gcd

import numpy as np

from . import gfpoly, modrep


def reduction_rows(modulus, N: int) -> np.ndarray:
    """Row k = x^(f+k) mod modulus over Z/N, k = 0..f-2, for a monic modulus
    of degree f: the rows that fold a product of length 2f-1."""
    f = len(modulus) - 1
    base = -np.array(modulus[:f], dtype=np.int64) % N
    red = np.zeros((max(f - 1, 0), f), dtype=np.int64)
    cur = base
    for k in range(f - 1):
        red[k] = cur
        cur = (np.concatenate(([0], cur[:-1])) + cur[-1] * base) % N
    return red


def mult_order(a: int, modulus: int) -> int:
    """The multiplicative order of a modulo modulus (coprime to a)."""
    if modulus == 1:
        return 1
    a %= modulus
    k, acc = 1, a
    while acc != 1:
        acc = acc * a % modulus
        k += 1
    return k


def _prime_divisors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FFElt:
    """An element of F_{p^f}: a coefficient tuple over Z/p, low degree first."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: "FiniteField", coeffs):
        self.field = field
        self.coeffs = tuple(int(c) % field.p for c in coeffs)
        if len(self.coeffs) != field.f:
            raise ValueError("coefficient vector has the wrong length")

    def __add__(self, other):
        self._check(other)
        p = self.field.p
        return FFElt(self.field, [(a + b) % p for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        self._check(other)
        p = self.field.p
        return FFElt(self.field, [(a - b) % p for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return FFElt(self.field, [-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return FFElt(self.field, [a * other for a in self.coeffs])
        self._check(other)
        return FFElt(self.field, self.field._mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        out = self.field.one
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def inverse(self) -> "FFElt":
        """Extended Euclid on (modulus, self), keeping s * self = r mod modulus."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        F, p = self.field, self.field.p
        r0, r1, s0, s1 = list(F.modulus), gfpoly.trim(list(self.coeffs)), [], [1]
        while len(r1) > 1:
            q, r = gfpoly.divmod_poly(r0, r1, p)
            r0, r1, s0, s1 = r1, r, s1, gfpoly.sub(s0, gfpoly.mul(q, s1, p), p)
        s = gfpoly.scale(s1, pow(r1[0], p - 2, p), p)
        return FFElt(F, s + [0] * (F.f - len(s)))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def code(self) -> int:
        """Position in the deterministic element enumeration."""
        return gfpoly.poly_code(self.coeffs, self.field.p)

    def _check(self, other):
        if not isinstance(other, FFElt) or other.field != self.field:
            raise ValueError("elements belong to different fields")

    def __eq__(self, other):
        return (isinstance(other, FFElt) and other.field == self.field
                and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((self.field.p, self.field.f, self.coeffs))

    def __repr__(self):
        return f"FF({self.field.p}^{self.field.f}:{self.code()})"


class FiniteField:
    """F_{p^f} with the deterministic value-least irreducible modulus."""

    def __init__(self, p: int, f: int):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        if f < 1:
            raise ValueError("extension degree must be positive")
        self.p = p
        self.f = f
        self.order = p ** f
        self.modulus = self._least_irreducible(p, f)
        self._red = reduction_rows(self.modulus, p).tolist()
        self.zero = FFElt(self, [0] * f)
        self.one = FFElt(self, [1] + [0] * (f - 1))
        self.gen = FFElt(self, ([0, 1] + [0] * (f - 2)) if f > 1 else [0])

    @staticmethod
    def _least_irreducible(p: int, f: int) -> list[int]:
        if f == 1:
            return [0, 1]  # x
        for code in range(p ** f):
            coeffs = [(code // p ** i) % p for i in range(f)] + [1]
            # a root in F_p is a linear factor: skip the Berlekamp test
            if all(sum(c * a ** i for i, c in enumerate(coeffs)) % p
                   for a in range(p)) and gfpoly.is_irreducible(coeffs, p):
                return coeffs
        raise RuntimeError("unreachable: irreducible polynomials exist")

    def _mul(self, a, b):
        p, f = self.p, self.f
        out = [0] * (2 * f - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        for k in range(2 * f - 2, f - 1, -1):
            hi = out[k] % p
            out[k] = 0
            if hi:
                red = self._red[k - f]
                for i in range(f):
                    out[i] += hi * red[i]
        return tuple(c % p for c in out[:f])

    @cached_property
    def _frob_pows(self) -> np.ndarray:
        """Stack of the F_p-matrices of x -> x^(p^k), k = 0..f-1."""
        step = self.linear_matrix(lambda t: t ** self.p)
        pows = [np.eye(self.f, dtype=np.int64)]
        for _ in range(self.f - 1):
            pows.append(modrep.mm(step, pows[-1], self.p))
        return np.stack(pows)

    def frobenius_power(self, k: int) -> np.ndarray:
        """Matrix (columns = images of x^j) of x -> x^(p^k), k mod f."""
        return self._frob_pows[k % self.f]

    def from_code(self, code: int) -> FFElt:
        return FFElt(self, [(code // self.p ** i) % self.p for i in range(self.f)])

    def from_int(self, n: int) -> FFElt:
        """Image of the rational integer n (prime-subfield element)."""
        return FFElt(self, [n % self.p] + [0] * (self.f - 1))

    def elements(self):
        for code in range(self.order):
            yield self.from_code(code)

    def linear_matrix(self, fn) -> np.ndarray:
        """Matrix over F_p (columns = images of the power basis) of an
        F_p-linear map fn: FFElt -> FFElt."""
        cols = []
        for i in range(self.f):
            e = FFElt(self, [1 if j == i else 0 for j in range(self.f)])
            cols.append(fn(e).coeffs)
        return np.array(cols, dtype=np.int64).T % self.p

    def __eq__(self, other):
        return (isinstance(other, FiniteField) and other.p == self.p
                and other.f == self.f)

    def __hash__(self):
        return hash((self.p, self.f))

    def __repr__(self):
        return f"FiniteField({self.p}, {self.f})"


@lru_cache(maxsize=None)
def field_create(p: int, f: int) -> FiniteField:
    return FiniteField(p, f)


def frobenius(x: FFElt, k: int = 1) -> FFElt:
    """x^(p^k); k may be any integer (negative = inverse Frobenius)."""
    F = x.field
    return FFElt(F, modrep.mm(F.frobenius_power(k), np.array(x.coeffs, dtype=np.int64), F.p))


def pth_root(x: FFElt) -> FFElt:
    return frobenius(x, -1)


def abs_trace(x: FFElt) -> int:
    """Trace to the prime field, as an integer in [0, p).  The sum of the
    Frobenius powers maps F onto the constants; its first row reads the
    trace off x."""
    F = x.field
    row = F._frob_pows[:, 0].sum(axis=0) % F.p
    return int(modrep.mm(row, np.array(x.coeffs, dtype=np.int64), F.p))


def first_element_of_order(F: FiniteField, e: int) -> FFElt:
    """First element (value order) of exact multiplicative order e.

    The e-th roots of unity lie in the subfield fixed by x -> x^(p^j), j the
    order of p mod e.  A scan of that fixed space finds one element z of
    exact order e; the elements of exact order e are the primitive powers
    of z, and the least of them in value order is returned.
    """
    if e == 1:
        return F.one
    if (F.order - 1) % e:
        raise ValueError(f"no elements of order {e} in F_{F.p}^{F.f}")
    p = F.p
    j = mult_order(p, e)
    rows = modrep.kernel(F.frobenius_power(j) - np.eye(F.f, dtype=np.int64), p)
    cofactor = (p ** j - 1) // e
    primes = _prime_divisors(e)
    for code in range(1, p ** j):
        digits = np.array([(code // p ** i) % p for i in range(j)], dtype=np.int64)
        z = FFElt(F, modrep.mm(digits, rows, p)) ** cofactor
        if all(z ** (e // ell) != F.one for ell in primes):
            return min((z ** k for k in range(1, e) if gcd(k, e) == 1),
                       key=FFElt.code)
    raise RuntimeError("unreachable: the fixed field has a cyclic unit group")

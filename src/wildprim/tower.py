"""The tame splitting tower over an absolutely unramified base field.

For a base with residue cardinality q = p^f and a degree parameter n, the
tower top is the maximal abelian extension of exponent e = p^n - 1 of the
unramified extension picking up the e-th roots of unity.  Its Galois group
over the base is generated by an inertia generator sigma of order e and a
Frobenius lift phi of order s*e (s = multiplicative order of q mod e),
subject to phi sigma phi^{-1} = sigma^q; the extension of the residue
Galois group by inertia is split, and we fix once and for all the section
in which phi acts trivially on the uniformizer.

Concretely the top is realized as unramified coefficients of residue
degree f*s*e adjoined a uniformizer with pi^e = p (u^e = t in equal
characteristic); sigma multiplies pi by a fixed primitive e-th root of
unity zeta (the first element of order e in the enumeration order,
Teichmueller-lifted in characteristic 0) and phi applies the q-power
Frobenius to coefficients.  In characteristic 0 elements are RingElts of
the truncated valuation ring; in characteristic p they are finite Laurent
polynomials in u, plain dicts {exponent: nonzero residue coefficient}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .finitefield import (FFElt, field_create, first_element_of_order, frobenius,
                          mult_order)
from .localring import RingElt, default_precision, ring_create


@dataclass(frozen=True)
class BaseField:
    """Absolutely unramified base: Q_p-unramified of degree f, or F_{p^f}((t))."""
    p: int
    f: int
    char: int  # 0 or p

    def __post_init__(self):
        if self.char not in (0, self.p):
            raise ValueError("characteristic must be 0 or p")
        if self.f < 1:
            raise ValueError("residue degree must be positive")
        field_create(self.p, self.f)  # validates primality of p

    @property
    def q(self) -> int:
        return self.p ** self.f

    def describe(self) -> dict:
        return {"p": self.p, "f": self.f, "char": "0" if self.char == 0 else "p"}


GroupElt = tuple[int, int]  # (inertia exponent a mod e, Frobenius exponent b mod s*e)
Laurent = dict[int, FFElt]  # a char p element: {exponent of u: nonzero coefficient}
MAX_RESIDUE_DEGREE = 64  # largest residue degree f' of a tower top


class TameTower:
    """Tower data plus the explicit action of its Galois group."""

    def __init__(self, base: BaseField, n: int, precision: int | None = None):
        if n < 1:
            raise ValueError("the degree parameter n must be positive")
        self.base = base
        self.n = n
        self.p = base.p
        self.e = base.p ** n - 1
        self.s = mult_order(base.q, self.e) if self.e > 1 else 1
        self.fprime = base.f * self.s * self.e
        if self.fprime > MAX_RESIDUE_DEGREE:
            raise ValueError(
                f"residue degree {self.fprime} exceeds the bound {MAX_RESIDUE_DEGREE}")
        self.residue = field_create(base.p, self.fprime)
        # e = 1 is the degenerate tower: the top is the base itself
        self.zeta = (self.residue.one if self.e == 1
                     else first_element_of_order(self.residue, self.e))
        self.prec = default_precision(base.p, self.e) if precision is None else precision
        if self.prec < 1:
            raise ValueError("the working precision must be at least 1")
        self.group_order = self.s * self.e * self.e
        self.sigma: GroupElt = (1 % self.e, 0)
        self.phi: GroupElt = (0, 1 % (self.s * self.e))
        # the valuation ring exists in char 0 only; char p elements are
        # Laurent dicts
        self.ring = None
        if base.char == 0:
            ring = self.ring = ring_create(base.p, self.fprime, self.e, self.prec)
            # multiplication matrices of w(zeta)^k, k = 0..e-1, as powers of
            # the matrix of w(zeta) (columns = w(zeta) x^j)
            wz = RingElt.teichmuller(ring, self.zeta)
            cols = [wz * RingElt.monomial(ring, 0, self.residue.from_code(self.p ** j))
                    for j in range(self.fprime)]
            step = np.stack([c.data[0] for c in cols], axis=1)
            mats = [np.eye(self.fprime, dtype=np.int64)]
            for _ in range(self.e - 1):
                mats.append(step @ mats[-1] % ring.pm)
            self._zeta_mats = np.stack(mats)

    # ---- group structure ----

    def identity(self) -> GroupElt:
        return (0, 0)

    def compose(self, g: GroupElt, h: GroupElt) -> GroupElt:
        a, b = g
        a2, b2 = h
        return ((a + pow(self.base.q, b, self.e) * a2) % self.e,
                (b + b2) % (self.s * self.e))

    def inverse(self, g: GroupElt) -> GroupElt:
        a, b = g
        se = self.s * self.e
        qb = pow(self.base.q, b, self.e)
        qinv = pow(qb, -1, self.e) if self.e > 1 else 0
        return ((-a * qinv) % self.e, (-b) % se)

    def group_elements(self) -> list[GroupElt]:
        return [(a, b) for a in range(self.e) for b in range(self.s * self.e)]

    @cached_property
    def conjugacy_classes(self) -> list[list[GroupElt]]:
        """Each class (led by its lex-least element) as the closure of that
        element under conjugation by sigma and phi."""
        conj = [(h, self.inverse(h)) for h in (self.sigma, self.phi)]
        seen: set[GroupElt] = set()
        classes = []
        for g in self.group_elements():
            if g not in seen:
                seen.add(g)
                classes.append([g])
                for x in classes[-1]:
                    for y in (self.compose(self.compose(h, x), hi) for h, hi in conj):
                        if y not in seen:
                            seen.add(y)
                            classes[-1].append(y)
        return classes

    # ---- action on the ring ----

    def apply(self, g: GroupElt, x: RingElt | Laurent) -> RingElt | Laurent:
        """The automorphism sigma^a . phi^b applied to x (a RingElt in char
        0, a Laurent dict in char p)."""
        a, b = g
        if self.base.char != 0:
            out = {}
            for k, v in x.items():
                w = frobenius(v, (self.base.f * b) % self.fprime) if b else v
                if a and self.e > 1:
                    w = w * self.zeta ** ((a * k) % self.e)
                if not w.is_zero():
                    out[k] = w
            return out
        if x.ring != self.ring:
            raise ValueError("element does not live in this tower's ring")
        ring = self.ring
        data = x.data
        if b:
            data = (data @ ring.frobenius_power(self.base.f * b).T) % ring.pm
        if a:
            # row i times w(zeta)^(ai), all rows in one batched product
            zeta_mats = self._zeta_mats[a * np.arange(self.e) % self.e]
            data = np.matmul(zeta_mats, data[:, :, None])[:, :, 0]
        return RingElt(ring, data, x.window)

    def describe(self) -> dict:
        return {
            "base": self.base.describe(),
            "n": self.n,
            "ram_index": self.e,
            "frobenius_order": self.s * self.e,
            "residue_degree": self.fprime,
            "group_order": self.group_order,
            "precision": self.prec,
            "residue_modulus": list(self.residue.modulus),
            "zeta_code": self.zeta.code(),
        }


def build_tower(base: BaseField, n: int, precision: int | None = None) -> TameTower:
    return TameTower(base, n, precision)

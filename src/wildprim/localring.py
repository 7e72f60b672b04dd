"""Truncated exact arithmetic in the valuation ring of a mixed-characteristic
tame tower field.

Elements live in W(F_q')/p^m [pi] / (pi^e - p).  The unramified
coefficient ring W(F_q')/p^m = (Z/p^m)[X]/(F), F the Teichmueller
modulus (the minimal polynomial of the Teichmueller lift w(x) of the
residue generator; F = h mod p, h the residue modulus), is row 0 of this
ring: a coefficient is an element whose other pi-rows are zero, and every
coefficient product is a RingElt product.  An element is an (e, f') int64
array of coefficient polynomials plus a validity window w: the element is
known modulo pi^w.  All stored elements are integral (valuation >= 0);
window bookkeeping is conservative (min of the operand windows), which is
exact for integral elements.
A product self * other is one convolution per nonzero pi-row j of the
right operand other (self may be a stack of elements, data of shape
(S, e, f')): the rows of pi^j times self, whose wrapped rows carry the
factor p of pi^e = p, are laid end to end at stride 2f'-1 (row i,
coefficient u at index i(2f'-1) + u, so no row spills into the next,
across the whole stack), convolved with row j, summed, and reduced
modulo F.

In this presentation X = w(x), so w(x^j) = X^j and the Frobenius lift
phi is the power map X -> X^p: phi(w(x)) = w(x^p) (Serre, Local Fields,
II section 4); the columns of phi's matrix are the powers X^(pj)
(RingDesc.frobenius_power).  ring_create finds F from the plain lift h~
of h: with w computed in the ring presented by h~, each step
F <- F - F(w) gains one p-adic digit, because w^j = x^j mod p, so m
steps fix F mod p^m.  The Teichmueller lift of a is b^(p^(m-1)) for any
lift b of a^(p^-(m-1)): lifts that agree mod p agree mod p^m after
m - 1 p-th powers.

Equal characteristic needs no ring here: a class element there is a finite
Laurent polynomial in the uniformizer u (u^e = t), held as a plain dict
{exponent: nonzero residue coefficient} (see classmod and tower), and
the pipeline never truncates, inverts or multiplies such elements.

Zero detection at exhausted precision raises PrecisionExhausted rather
than guessing: a silently truncated valuation would corrupt every
filtration index downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import InvariantViolation, PrecisionExhausted
from .finitefield import FFElt, FiniteField, field_create, frobenius, reduction_rows


def default_precision(p: int, e: int) -> int:
    """Class reduction never looks past level p*e/(p-1); the slack absorbs
    precision loss in intermediate products."""
    return p * e // (p - 1) + e + 8


@dataclass(frozen=True)
class RingDesc:
    """Descriptor of the valuation ring of one tower field, with the data
    its products and its Frobenius lift derive from it."""
    p: int
    fprime: int          # residue degree over the prime field
    e: int               # ramification index (pi^e = p)
    prec: int            # working uniformizer-adic precision
    m: int               # coefficient precision, powers of p
    modulus: tuple       # monic coefficient modulus mod p^m, constant term first
    residue: FiniteField = field(compare=False)
    pm: int = field(init=False, compare=False)                       # p^m
    ppow: np.ndarray = field(init=False, compare=False, repr=False)  # p^0 .. p^(m-1)
    red: np.ndarray = field(init=False, compare=False, repr=False)   # X^(f'+k) mod F

    def __post_init__(self):
        # frozen: the derived data is set past the dataclass __setattr__
        object.__setattr__(self, "pm", self.p ** self.m)
        object.__setattr__(self, "ppow", self.p ** np.arange(self.m, dtype=np.int64))
        object.__setattr__(self, "red", reduction_rows(self.modulus, self.pm))

    @property
    def full_window(self) -> int:
        return self.m * self.e

    def reduce_wide(self, wide: np.ndarray) -> np.ndarray:
        """Reduce rows of length 2f'-1 (the last axis) modulo F and p^m."""
        f = self.fprime
        wide = wide % self.pm
        return (wide[..., :f] + wide[..., f:] @ self.red) % self.pm

    @cached_property
    def _frob_pows(self) -> list[np.ndarray]:
        # phi is the power map X -> X^p: its matrix has columns (X^p)^j
        xp = RingElt.monomial(self, 0, self.residue.gen) ** self.p
        cols = [RingElt.one(self)]
        for _ in range(self.fprime - 1):
            cols.append(cols[-1] * xp)
        F1 = np.stack([c.data[0] for c in cols], axis=1)
        pows = [np.eye(self.fprime, dtype=np.int64)]
        for _ in range(self.fprime - 1):
            pows.append((F1 @ pows[-1]) % self.pm)
        return pows

    def frobenius_power(self, k: int) -> np.ndarray:
        """Matrix (columns = images of X^j) of phi^k (k mod f'), phi the
        Frobenius lift on the coefficients."""
        return self._frob_pows[k % self.fprime]

    def frobenius_image(self, a: np.ndarray) -> np.ndarray:
        """phi of coefficient rows a (last axis f'): sum_j a_j X^(pj) mod F."""
        return a @ self.frobenius_power(1).T % self.pm


def _poly_at(poly, z: "RingElt") -> "RingElt":
    """poly(z) by Horner's rule, poly a list of integers, constant first."""
    acc = RingElt.zero(z.ring)
    for c in reversed(poly):
        acc = acc * z + RingElt.from_int(z.ring, c)
    return acc


def ring_create(p: int, fprime: int, e: int, prec: int | None = None) -> RingDesc:
    if e % p == 0:
        raise ValueError("ramification index must be prime to p")
    if prec is None:
        prec = default_precision(p, e)
    residue = field_create(p, fprime)
    m = -(-prec // e) + 2
    # A product coefficient (RingElt.__mul__) sums at most e*f' products of
    # entries below p^m, a Frobenius matvec or matrix product f'; refuse
    # rings where such a sum can wrap int64.
    if max(e, 1) * fprime * (p ** m - 1) ** 2 >= 1 << 63:
        raise ValueError(
            f"coefficients modulo {p}^{m} at ramification {e} and residue "
            f"degree {fprime} overflow int64 arithmetic")
    # the Teichmueller modulus F: the minimal polynomial of w(x), found in
    # the ring presented by the plain lift h~ of h, one digit per step
    plain = RingDesc(p, fprime, e, prec, m, tuple(residue.modulus), residue)
    w = RingElt.teichmuller(plain, residue.gen)
    F = list(residue.modulus)
    for _ in range(m):
        F = [int(c) for c in (F[:-1] - _poly_at(F, w).data[0]) % plain.pm] + [1]
    if np.any(_poly_at(F, w).data):
        raise InvariantViolation("the Teichmueller modulus does not vanish at w(x)")
    return replace(plain, modulus=tuple(F))


class RingElt:
    """One element: an (e, f') coefficient array mod p^m, known mod pi^window."""

    __slots__ = ("ring", "data", "window")

    def __init__(self, ring: RingDesc, data, window=None):
        self.ring = ring
        self.data = np.asarray(data, dtype=np.int64) % ring.pm
        self.window = ring.full_window if window is None else min(window, ring.full_window)

    # ---- constructors ----

    @staticmethod
    def zero(ring: RingDesc) -> "RingElt":
        return RingElt(ring, np.zeros((ring.e, ring.fprime), dtype=np.int64))

    @staticmethod
    def one(ring: RingDesc) -> "RingElt":
        return RingElt.from_int(ring, 1)

    @staticmethod
    def uniformizer(ring: RingDesc, power: int = 1) -> "RingElt":
        return RingElt.monomial(ring, power, ring.residue.one)

    @staticmethod
    def monomial(ring: RingDesc, power: int, a: FFElt) -> "RingElt":
        """a * pi^power, a lifted coefficientwise (power >= 0)."""
        if power < 0:
            raise ValueError("the valuation ring has no negative uniformizer powers")
        q, r = divmod(power, ring.e)
        data = np.zeros((ring.e, ring.fprime), dtype=np.int64)
        data[r] = pow(ring.p, q, ring.pm) * np.array(a.coeffs, dtype=np.int64) % ring.pm
        return RingElt(ring, data)

    @staticmethod
    def from_int(ring: RingDesc, n: int) -> "RingElt":
        data = np.zeros((ring.e, ring.fprime), dtype=np.int64)
        data[0, 0] = n % ring.pm
        return RingElt(ring, data)

    @staticmethod
    def teichmuller(ring: RingDesc, a: FFElt) -> "RingElt":
        """Multiplicative lift of a residue element: a lift of
        a^(p^-(m-1)) to the power p^(m-1)."""
        return RingElt.monomial(ring, 0, frobenius(a, 1 - ring.m)) ** ring.p ** (ring.m - 1)

    # ---- arithmetic ----

    def _check(self, other: "RingElt"):
        if other.ring != self.ring:
            raise ValueError("operands from different rings")

    def __add__(self, other):
        self._check(other)
        return RingElt(self.ring, self.data + other.data, min(self.window, other.window))

    def __neg__(self):
        return RingElt(self.ring, -self.data, self.window)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """self * other, one convolution per nonzero pi-row of other; self
        may also be a stack of elements (data of shape (S, e, f'))."""
        self._check(other)
        ring = self.ring
        e, f, pm = ring.e, ring.fprime, ring.pm
        data = self.data
        # rows p*data then data, laid at stride 2f'-1: rows e-j .. 2e-j-1
        # are pi^j * data
        laid = np.zeros(data.shape[:-2] + (2 * e, 2 * f - 1), dtype=np.int64)
        laid[..., e:, :f] = data
        laid[..., :e, :f] = data * ring.p % pm
        wide = np.zeros(data.size // f * (2 * f - 1), dtype=np.int64)
        for j in other.data.any(1).nonzero()[0]:
            wide += np.convolve(laid[..., e - j:2 * e - j, :].reshape(-1), other.data[j])[:wide.size]
        return RingElt(ring, ring.reduce_wide(wide.reshape(data.shape[:-1] + (-1,))),
                       min(self.window, other.window))

    def __pow__(self, k: int) -> "RingElt":
        """self^k (k >= 0) by square and multiply."""
        out, base = None, self
        while k:
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if k:
                base = base * base
        return RingElt.one(self.ring) if out is None else out

    def pth_power(self) -> "RingElt":
        return self ** self.ring.p

    def inv(self) -> "RingElt":
        ring = self.ring
        if self.val() != 0:
            raise ZeroDivisionError("inverse of a non-unit")
        y = RingElt.monomial(ring, 0, self.residue().inverse())
        two = RingElt.from_int(ring, 2)
        for _ in range(max(1, (ring.full_window - 1).bit_length() + 1)):
            y = y * (two - self * y)
        return RingElt(ring, y.data, self.window)

    # ---- valuation and digits ----

    def _stored_val(self):
        ring = self.ring
        rows = np.flatnonzero(np.any(self.data, axis=1))
        if rows.size == 0:
            return None
        # v_p of a nonzero row (entries below p^m) = #{1 <= k < m : p^k
        # divides every entry}
        divides = self.data[rows, None, :] % ring.ppow[1:, None] == 0
        vp = np.all(divides, axis=2).sum(axis=1)
        return int((rows + ring.e * vp).min())

    def val(self) -> int:
        v = self._stored_val()
        if v is None or v >= self.window:
            raise PrecisionExhausted(
                "element is indistinguishable from zero at the working precision")
        return v

    def divide_uniformizer_power(self, k: int) -> "RingElt":
        ring = self.ring
        if k == 0:
            return self
        e = ring.e
        out = np.zeros_like(self.data)
        for i in range(e):
            row = self.data[i]
            if not np.any(row):
                continue
            q, r = divmod(i - k, e)
            if q >= 0:
                out[r] = (out[r] + row * ring.p ** q) % ring.pm
            else:
                div = ring.p ** (-q)
                if np.any(row % div):
                    raise ValueError(f"valuation below {k}: division is not exact")
                out[r] = (out[r] + row // div) % ring.pm
        return RingElt(ring, out, self.window - k)

    def residue(self) -> FFElt:
        return self.digit(0)

    def digit(self, k: int) -> FFElt:
        """The residue of self / pi^k, for k at most the valuation: row
        k mod e divided by p^(k // e)."""
        ring = self.ring
        return FFElt(ring.residue, (self.data[k % ring.e] // ring.p ** (k // ring.e)).tolist())

    def __repr__(self):
        return f"RingElt(window={self.window})"

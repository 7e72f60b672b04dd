"""Truncated exact arithmetic in the valuation ring of a mixed-characteristic
tame tower field.

Elements live in W(F_q')/p^m [pi] / (pi^e - p), the unramified coefficient
ring (a nested polynomial ring (Z/p^m)[x]/(h) for a lifted residue modulus
h) with a ramified layer pi whose e-th power is p.  An element is an
(e, f') int64 array of coefficient polynomials plus a validity window w:
the element is known modulo pi^w.  All stored elements are integral
(valuation >= 0); window bookkeeping is conservative (min of the operand
windows), which is exact for integral elements.
A product is one convolution per nonzero pi-row of the sparser operand:
the denser operand's rows are laid end to end at stride 2f'-1 (row i,
coefficient u at index i(2f'-1) + u, so row products cannot overlap), and
its convolution with row j of the sparser operand is added j rows on; the
2e-1 rows so formed are folded by pi^e = p and reduced modulo h.  Operands
of the class reduction mostly have one to three nonzero rows.

Equal characteristic needs no ring here: a class element there is a finite
Laurent polynomial in the uniformizer u (u^e = t), held as a plain dict
{exponent: nonzero residue coefficient} (see classmod and tower), and
the pipeline never truncates, inverts or multiplies such elements.

Zero detection at exhausted precision raises PrecisionExhausted rather
than guessing: a silently truncated valuation would corrupt every
filtration index downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvariantViolation, PrecisionExhausted
from .finitefield import FFElt, FiniteField, field_create


def default_precision(p: int, e: int) -> int:
    """Class reduction never looks past level p*e/(p-1); the slack absorbs
    precision loss in intermediate products."""
    return p * e // (p - 1) + e + 8


class CoeffRing:
    """W(F_{p^f})/p^m as (Z/p^m)[x]/(h), h the lifted residue modulus."""

    def __init__(self, residue: FiniteField, m: int):
        self.residue = residue
        self.p = residue.p
        self.f = residue.f
        self.m = m
        self.pm = self.p ** m
        self.ppow = self.p ** np.arange(m, dtype=np.int64)  # p^0 .. p^(m-1)
        self.h = np.array(residue.modulus, dtype=np.int64)  # degree f, monic
        # reduction matrix: row k = x^(f+k) mod h, k = 0..f-2 (over Z/p^m)
        f_ = self.f
        red = np.zeros((max(f_ - 1, 0), f_), dtype=np.int64)
        if f_ > 1:
            base = (-self.h[:f_]) % self.pm
            cur = base.copy()
            for k in range(f_ - 1):
                red[k] = cur
                hi = cur[-1]
                cur = np.roll(cur, 1)
                cur[0] = 0
                if hi:
                    cur = (cur + hi * base) % self.pm
        self._red = red

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        wide = np.convolve(a, b)
        return self.reduce_wide(wide[None, :])[0]

    def reduce_wide(self, wide: np.ndarray) -> np.ndarray:
        """Reduce rows of length 2f-1 modulo h (and p^m)."""
        f_ = self.f
        wide = wide % self.pm
        return (wide[:, :f_] + wide[:, f_:] @ self._red) % self.pm

    def one(self) -> np.ndarray:
        out = np.zeros(self.f, dtype=np.int64)
        out[0] = 1
        return out

    def lift(self, a: FFElt) -> np.ndarray:
        return np.array(a.coeffs, dtype=np.int64)

    def residue_of(self, c: np.ndarray) -> FFElt:
        return FFElt(self.residue, (c % self.p).tolist())

    def pow(self, a: np.ndarray, e: int) -> np.ndarray:
        out = self.one()
        base = a % self.pm
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def inv(self, a: np.ndarray) -> np.ndarray:
        r = self.residue_of(a)
        if r.is_zero():
            raise ZeroDivisionError("inverse of a non-unit coefficient")
        y = self.lift(r.inverse())
        two = self.one() * 2
        steps = max(1, (self.m - 1).bit_length() + 1)
        for _ in range(steps):
            y = self.mul(y, (two - self.mul(a, y)) % self.pm)
        return y

    def teichmuller(self, a: FFElt) -> np.ndarray:
        """The unique lift with z^(p^f) = z and residue a: the fixed point of
        z -> phi^{-1}(z^p), each step of which gains one p-adic digit."""
        z = self.lift(a)
        phi_inv = self.frobenius_power(-1)
        for _ in range(self.m + 1):
            z = (phi_inv @ self.pow(z, self.p)) % self.pm
        return z

    @cached_property
    def _frob_pows(self) -> list[np.ndarray]:
        F1 = self.frobenius_matrix()
        pows = [np.eye(self.f, dtype=np.int64)]
        for _ in range(self.f - 1):
            pows.append((F1 @ pows[-1]) % self.pm)
        return pows

    def frobenius_power(self, k: int) -> np.ndarray:
        """Matrix of phi^k (k mod f), phi the Frobenius lift."""
        return self._frob_pows[k % self.f]

    def frobenius_matrix(self) -> np.ndarray:
        """Matrix (columns = images of x^j) of the p-power Frobenius lift,
        the ring map sending x to the Hensel root of h congruent to x^p."""
        f_ = self.f
        gen = self.residue.gen
        r = self.lift(gen ** self.p)
        hp = np.array([(i * int(self.h[i])) % self.pm for i in range(1, f_ + 1)],
                      dtype=np.int64)
        for _ in range((self.m - 1).bit_length() + 1):
            hr = self._poly_at(self.h, r)
            dr = self._poly_at(hp, r)
            r = (r - self.mul(hr, self.inv(dr))) % self.pm
        if np.any(self._poly_at(self.h, r)):
            raise InvariantViolation("Hensel lift failed")
        cols = [self.one()]
        for _ in range(f_ - 1):
            cols.append(self.mul(cols[-1], r))
        return np.stack(cols, axis=1)

    def _poly_at(self, poly: np.ndarray, z: np.ndarray) -> np.ndarray:
        acc = np.zeros(self.f, dtype=np.int64)
        for c in poly[::-1]:
            acc = self.mul(acc, z)
            acc[0] = (acc[0] + int(c)) % self.pm
        return acc


@dataclass(frozen=True)
class RingDesc:
    """Descriptor of the valuation ring of one tower field."""
    p: int
    fprime: int          # residue degree over the prime field
    e: int               # ramification index (pi^e = p)
    prec: int            # working uniformizer-adic precision
    m: int               # coefficient precision, powers of p
    residue: FiniteField = field(compare=False)
    coeff: CoeffRing = field(compare=False)

    @property
    def full_window(self) -> int:
        return self.m * self.e


def ring_create(p: int, fprime: int, e: int, prec: int | None = None) -> RingDesc:
    if e % p == 0:
        raise ValueError("ramification index must be prime to p")
    if prec is None:
        prec = default_precision(p, e)
    residue = field_create(p, fprime)
    m = -(-prec // e) + 2
    # A Kronecker product coefficient (RingElt.__mul__) sums at most
    # e*f' unreduced products below p^(2m), a Frobenius matvec or
    # matrix product f'; refuse rings where such a sum can wrap int64.
    if max(e, 1) * fprime * (p ** m - 1) ** 2 >= 1 << 63:
        raise ValueError(
            f"coefficients modulo {p}^{m} at ramification {e} and residue "
            f"degree {fprime} overflow int64 arithmetic")
    return RingDesc(p, fprime, e, prec, m, residue, CoeffRing(residue, m))


class RingElt:
    """One element: an (e, f') coefficient array mod p^m, known mod pi^window."""

    __slots__ = ("ring", "data", "window")

    def __init__(self, ring: RingDesc, data, window=None):
        self.ring = ring
        self.data = np.asarray(data, dtype=np.int64) % ring.coeff.pm
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
        data[r] = pow(ring.p, q, ring.coeff.pm) * ring.coeff.lift(a) % ring.coeff.pm
        return RingElt(ring, data)

    @staticmethod
    def from_int(ring: RingDesc, n: int) -> "RingElt":
        data = np.zeros((ring.e, ring.fprime), dtype=np.int64)
        data[0, 0] = n % ring.coeff.pm
        return RingElt(ring, data)

    @staticmethod
    def teichmuller(ring: RingDesc, a: FFElt) -> "RingElt":
        """Multiplicative lift of a residue element."""
        data = np.zeros((ring.e, ring.fprime), dtype=np.int64)
        data[0] = ring.coeff.teichmuller(a)
        return RingElt(ring, data)

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
        self._check(other)
        ring = self.ring
        e, f = ring.e, ring.fprime
        stride = 2 * f - 1
        rows_a, rows_b = self.data.any(1).nonzero()[0], other.data.any(1).nonzero()[0]
        dense, sparse, rows = ((self, other, rows_b) if len(rows_b) <= len(rows_a)
                               else (other, self, rows_a))
        laid = np.zeros((e, stride), dtype=np.int64)
        laid[:, :f] = dense.data
        laid = laid.ravel()
        wide = np.zeros((2 * e - 1) * stride, dtype=np.int64)
        for j in rows:
            wide[j * stride:(j + e) * stride] += np.convolve(laid, sparse.data[j])[:e * stride]
        wide = wide.reshape(2 * e - 1, stride) % ring.coeff.pm
        wide[:e - 1] += ring.p * wide[e:]
        return RingElt(ring, ring.coeff.reduce_wide(wide[:e]),
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
        divides = self.data[rows, None, :] % ring.coeff.ppow[1:, None] == 0
        vp = np.all(divides, axis=2).sum(axis=1)
        return int((rows + ring.e * vp).min())

    def val(self) -> int:
        v = self._stored_val()
        if v is None or v >= self.window:
            raise PrecisionExhausted(
                "element is indistinguishable from zero at the working precision")
        return v

    def val_at_most(self, bound: int):
        """val() if it is <= bound, else None (certified).  Needs window > bound."""
        if self.window <= bound:
            raise PrecisionExhausted(
                f"window {self.window} cannot certify valuations up to {bound}")
        v = self._stored_val()
        if v is None or v > bound:
            return None
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
                out[r] = (out[r] + row * ring.p ** q) % ring.coeff.pm
            else:
                div = ring.p ** (-q)
                if np.any(row % div):
                    raise ValueError(f"valuation below {k}: division is not exact")
                out[r] = (out[r] + row // div) % ring.coeff.pm
        return RingElt(ring, out, self.window - k)

    def residue(self) -> FFElt:
        return self.ring.coeff.residue_of(self.data[0])

    def digit(self, k: int) -> FFElt:
        """The residue of self / pi^k, for k at most the valuation: row
        k mod e divided by p^(k // e)."""
        ring = self.ring
        return ring.coeff.residue_of(self.data[k % ring.e] // ring.p ** (k // ring.e))

    def __repr__(self):
        return f"RingElt(window={self.window})"

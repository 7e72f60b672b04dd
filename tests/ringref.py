"""Reference predicates on characteristic-0 ring elements, read off the
stored data and the validity window, and the product-only class reduction
that classmod's reduce_class must agree with."""

import numpy as np

from wildprim import modrep
from wildprim.errors import InvariantViolation, PrecisionExhausted
from wildprim.finitefield import FFElt, pth_root
from wildprim.localring import RingElt


def is_zero_to_window(x):
    """Whether x is zero modulo pi^window."""
    v = x._stored_val()
    return v is None or v >= x.window


def agrees_with(x, y):
    """Equality up to the smaller validity window."""
    return is_zero_to_window(x - y)


def leading(x):
    """(valuation, residue of x / pi^valuation)."""
    v = x.val()
    return v, x.digit(v)


def val_at_most(x, bound):
    """x.val() if it is <= bound, else None (certified); needs window > bound."""
    if x.window <= bound:
        raise PrecisionExhausted(f"window {x.window} cannot certify valuations up to {bound}")
    v = x._stored_val()
    return None if v is None or v > bound else v


def reduce_kummer_by_products(basis, xs, nonzero_levels=None):
    """Class coordinates of a stack of char-0 elements, every strip a ring
    product: the units walk the levels 1..bl in lockstep, each level's digit
    killed by multiplying by basis representatives to the power p - c or by a
    p-th power.  Levels where some element has a nonzero digit are added to
    nonzero_levels when it is given."""
    tower = basis.tower
    ring, p, F = tower.ring, tower.p, tower.residue
    e, bl = ring.e, basis.boundary_level
    one = RingElt.one(ring)
    coords = np.zeros((len(xs), basis.dim), dtype=np.int64)
    U = np.zeros((len(xs), e, F.f), dtype=np.int64)
    window = ring.full_window
    for x, row, slot in zip(xs, coords, U):
        v = x.val()
        row[basis.position("uniformizer-class", 0)] = v % p
        u = x.divide_uniformizer_power(v)
        r = u.residue()
        if r != F.one:
            u = u * RingElt.monomial(ring, 0, pth_root(r.inverse())).pth_power()
        slot[:] = u.data
        window = min(window, u.window)
    if window <= bl:
        raise PrecisionExhausted(f"window {window} cannot certify valuations up to {bl}")

    def times(sel, y):
        U[sel] = (RingElt(ring, U[sel], window) * y).data

    def strip(lv, kind, j, digit):
        pos = basis.position(kind, lv, j)
        for c in sorted(set(digit.tolist()) - {0}):
            sel = np.flatnonzero(digit == c)
            coords[sel, pos] = c
            times(sel, basis.rep_power(pos, p - c))

    for lv in range(1, bl + 1):
        digits = (U[:, lv % e] - one.data[lv % e]) % ring.pm // p ** (lv // e) % p
        if nonzero_levels is not None and digits.any():
            nonzero_levels.add(lv)
        if lv == bl:
            b0 = np.array(basis.aux["b0"].coeffs)
            tau = modrep.mm(digits, basis.aux["functional"], p)
            rhs = (digits - np.outer(tau, b0)) % p
            sols = modrep.solve(basis.aux["as_matrix"], rhs.T, p).T
            strip(bl, "boundary", 0, tau)
            for i in np.flatnonzero(sols.any(1)):
                sol = FFElt(F, sols[i])
                times(i, (one + RingElt.monomial(ring, basis.c_index, -sol)).pth_power())
        elif lv % p == 0:
            for i in np.flatnonzero(digits.any(1)):
                b = pth_root(FFElt(F, digits[i]))
                times(i, (one + RingElt.monomial(ring, lv // p, -b)).pth_power())
        else:
            for j in range(F.f):
                strip(lv, "unit-level", j, digits[:, j])
    deep = p ** ((bl - np.arange(e)) // e + 1)
    if np.any((U - one.data) % deep[:, None]):
        raise InvariantViolation("a class reduction left a digit at or below the boundary level")
    return coords

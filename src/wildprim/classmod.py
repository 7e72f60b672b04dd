"""The filtered class module of a tower top, as an explicit F_p-space.

Mixed characteristic: the multiplicative group modulo p-th powers.  The
filtration-adapted basis has one uniformizer-class vector (index 0 by
convention), one unit vector 1 + w(a_j) pi^i per residue basis element
a_j = x^j and per index 1 <= i < p*e/(p-1) prime to p (w = Teichmueller
lift, w(x^j) = X^j in the ring's presentation, see localring), and one
boundary vector at index p*e/(p-1) whose residue coefficient is
b_0 = x^j, the first element (value order) outside the image of
a -> a^p + c a, c = 1 the residue of p / pi^e (pi^e = p in the ring): j
is the first nonzero coordinate of the functional cutting out that
corank-1 image.  Total dimension = [top : Q_p] + 2.

Equal characteristic: the additive group modulo x^p - x, materialized up
to a pole-order bound B: one constant vector c_0 = T(x^j)^{-1} x^j, the
first element (value order) of absolute trace 1, j the first i with
T(x^i) != 0, and one vector a_j u^{-i} per residue basis element and pole
order 1 <= i <= B prime to p.  Elements here are finite Laurent
polynomials, plain dicts {exponent: nonzero coefficient} ({0: c_0},
{-i: a_j}); reduction reads them one coefficient at a time.

reduce_class expresses an element, or a stack of elements, in this basis
by peeling filtration coefficients level by level.  In char p each strip
subtracts the actual basis representatives.  In char 0 a stack of units
walks the levels 1..bl = p*e/(p-1) in lockstep; each strip multiplies by
basis representatives to the power p - c or by a p-th power, so the class
moves by exactly the recorded coordinates and nothing is inverted.  Only
u mod pi^(bl+1) is read, and U^(i) U^(j) lies in U^(i+j) (Serre, Local
Fields, IV section 2): above level bl/2, u - 1 and the strip minus 1 both
have valuation > bl/2, so (1 + z)(1 + w) = 1 + z + w and the strip is one
stacked addition.  At lv <= bl/2 a unit level takes one stacked product
per coordinate (j, c) with rep^(p - c), computed once per basis when first
needed, and a p-divisible level one product per element.  A certificate
checks that every u - 1 ends at valuation > bl, so no digit was skipped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import modrep
from .errors import InvariantViolation, PrecisionExhausted
from .finitefield import FFElt, abs_trace, pth_root
from .localring import RingElt
from .tower import GroupElt, Laurent, TameTower


@dataclass
class BasisVector:
    kind: str          # uniformizer-class | unit-level | boundary | pole-level | constant
    level: int         # filtration index (char 0) or pole order (char p)
    j: int             # residue-basis position
    rep: RingElt | Laurent


class ClassBasis:
    def __init__(self, tower: TameTower, vectors: list[BasisVector],
                 level_bound: int | None = None, aux: dict | None = None):
        self.tower = tower
        self.char = tower.base.char
        self.vectors = vectors
        self.dim = len(vectors)
        self.level_bound = level_bound
        self._pos = {(v.kind, v.level, v.j): i for i, v in enumerate(vectors)}
        self._levels = np.array([v.level for v in vectors], dtype=np.int64)
        self._levels.flags.writeable = False
        self.aux = aux or {}
        self._powers: dict[tuple[int, int], RingElt] = {}

    def position(self, kind: str, level: int, j: int = 0) -> int:
        return self._pos[(kind, level, j)]

    def rep_power(self, idx: int, k: int) -> RingElt:
        """vectors[idx].rep ** k, computed when first asked for (char 0)."""
        if (idx, k) not in self._powers:
            self._powers[idx, k] = self.vectors[idx].rep ** k
        return self._powers[idx, k]

    def levels(self) -> np.ndarray:
        return self._levels

    @property
    def boundary_level(self) -> int:
        return self.aux["boundary_level"]

    @property
    def c_index(self) -> int:
        """The integer c with e = c (p - 1) (char 0)."""
        return self.aux["c_index"]


def kummer_basis(tower: TameTower) -> ClassBasis:
    """Filtration-adapted basis of the Kummer module (char 0)."""
    if tower.base.char != 0:
        raise ValueError("Kummer basis requires a characteristic-0 tower")
    ring = tower.ring
    p, e = tower.p, ring.e
    F = tower.residue
    c = e // (p - 1)
    bl = p * c
    one = RingElt.one(ring)

    # w(x^j) = X^j in the ring's presentation (localring), so every
    # representative 1 + w(x^j) pi^i is one plus a monomial
    vectors = [BasisVector("uniformizer-class", 0, 0, RingElt.uniformizer(ring))]
    for i in range(1, bl):
        if i % p == 0:
            continue
        for j in range(F.f):
            vectors.append(BasisVector(
                "unit-level", i, j, one + RingElt.monomial(ring, i, F.from_code(p ** j))))

    # boundary data: x^p + c x = a decides solvability, c = p / pi^e = 1
    as_matrix = F.linear_matrix(lambda t: t ** p + t)
    # the functional cutting out the image is the left kernel of as_matrix
    left = modrep.kernel(as_matrix.T, p)
    if left.shape[0] != 1:
        raise InvariantViolation(
            "boundary map image must have corank 1 (p-torsion present)")
    # b0 = x^j: smaller codes only use coordinates the functional ignores,
    # so they all lie in the image; rref scales it to 1 at b0
    functional = modrep.rref(left, p)[0][0]
    b0 = F.from_code(p ** int(np.flatnonzero(functional)[0]))
    vectors.append(BasisVector("boundary", bl, 0, one + RingElt.monomial(ring, bl, b0)))

    basis = ClassBasis(tower, vectors, aux={
        "c_index": c, "boundary_level": bl, "b0": b0, "as_matrix": as_matrix,
        "functional": functional,
    })
    expected = tower.group_order * tower.base.f + 2
    if basis.dim != expected:
        raise InvariantViolation(
            f"Kummer basis dimension {basis.dim} != {expected}")
    return basis


def artinschreier_basis(tower: TameTower, level_bound: int) -> ClassBasis:
    """Filtration-adapted basis of the additive class module up to pole
    order level_bound (char p)."""
    if tower.base.char == 0:
        raise ValueError("Artin-Schreier basis requires an equal-characteristic tower")
    if level_bound < 1:
        raise ValueError("the level bound must be positive")
    p = tower.p
    F = tower.residue
    # the trace is linear: every code below T(x^j)^{-1} p^j has trace 0 or
    # a multiple of T(x^j) other than 1
    traces = [abs_trace(F.from_code(p ** i)) for i in range(F.f)]
    j = next(i for i, t in enumerate(traces) if t)
    c0 = F.from_code(pow(traces[j], p - 2, p) * p ** j)
    vectors = [BasisVector("constant", 0, 0, {0: c0})]
    for i in range(1, level_bound + 1):
        if i % p == 0:
            continue
        for j in range(F.f):
            a = F.from_code(p ** j)
            vectors.append(BasisVector("pole-level", i, j, {-i: a}))
    return ClassBasis(tower, vectors, level_bound=level_bound,
                      aux={"constant": c0, "boundary_level": 0})


def reduce_class(basis: ClassBasis, x) -> np.ndarray:
    """Coordinates of the class of x in the filtration-adapted basis; x may
    also be a sequence of elements, reduced together, one row each."""
    single = isinstance(x, (RingElt, dict))
    xs = [x] if single else list(x)
    if basis.char == 0:
        coords = _reduce_kummer(basis, xs)
    else:
        coords = np.array([_reduce_artinschreier(basis, y) for y in xs],
                          dtype=np.int64).reshape(len(xs), basis.dim)
    return coords[0] if single else coords


def _reduce_kummer(basis: ClassBasis, xs: list[RingElt]) -> np.ndarray:
    # each strip kills the level-lv digit of every u (module docstring)
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
        # the prime-to-p part of the unit is a p-th power: kill its residue r
        # with the p-th power of a lift of r^(-1/p)
        r = u.residue()
        if r != F.one:
            u = u * RingElt.monomial(ring, 0, pth_root(r.inverse())).pth_power()
        slot[:] = u.data
        window = min(window, u.window)
    if window <= bl:
        raise PrecisionExhausted(f"window {window} cannot certify valuations up to {bl}")

    def times(sel, y):
        U[sel] = (RingElt(ring, U[sel], window) * y).data

    def add(lv, a):
        # U += a pi^lv, a one row of coefficients per element
        U[:, lv % e] = (U[:, lv % e] + a * p ** (lv // e)) % ring.pm

    def times_pth(lv, b):
        # U *= (1 - b pi^k)^p, lv = p k; above bl/2 that is 1 - p b pi^k +
        # phi(-b) pi^lv mod p pi^lv, the other binomial terms at e + t k > bl
        if 2 * lv <= bl:
            for i in np.flatnonzero(b.any(1)):
                times(i, (one + RingElt.monomial(ring, lv // p, FFElt(F, -b[i]))).pth_power())
            return
        b = -b % p
        add(e + lv // p, b)
        add(lv, ring.frobenius_image(b))

    for lv in range(1, bl + 1):
        # lower digits are gone, so row lv mod e of u - 1 is divisible by
        # p^(lv // e) and the quotient's residue is the level-lv digit
        digits = (U[:, lv % e] - one.data[lv % e]) % ring.pm // p ** (lv // e) % p
        if lv % p:
            pos = basis.position("unit-level", lv, 0)  # then j = 1..f-1 in turn
            coords[:, pos:pos + F.f] = digits
            if 2 * lv > bl:
                # prod_j (1 + X^j pi^lv)^(p - c_j) = 1 + sum_j (p - c_j) X^j pi^lv
                add(lv, -digits % p)
                continue
            # one stacked product per coordinate value c that occurs
            for j in range(F.f):
                for c in sorted(set(digits[:, j].tolist()) - {0}):
                    times(digits[:, j] == c, basis.rep_power(pos + j, p - c))
        elif lv < bl:
            # b = a^(1/p): (1 - b pi^(lv/p))^p has level-lv digit -b^p = -a
            times_pth(lv, modrep.mm(digits, F.frobenius_power(-1).T, p))
        else:
            # the one tau with a - tau*b0 in the image of t -> t^p + t (c = 1),
            # the kernel of the cokernel functional; one solve for all a, and
            # rep^(p - tau) (1 - sol pi^c)^p has level-bl digit -a
            b0 = np.array(basis.aux["b0"].coeffs)
            tau = modrep.mm(digits, basis.aux["functional"], p)
            rhs = (digits - np.outer(tau, b0)) % p
            coords[:, basis.position("boundary", bl)] = tau
            add(bl, np.outer(-tau % p, b0))
            times_pth(bl, modrep.solve(basis.aux["as_matrix"], rhs.T, p).T)
    # certificate: every u - 1 has valuation above bl, so no digit was missed
    deep = p ** ((bl - np.arange(e)) // e + 1)
    if np.any((U - one.data) % deep[:, None]):
        raise InvariantViolation("a class reduction left a digit at or below the boundary level")
    return coords


def _reduce_artinschreier(basis: ClassBasis, x: Laurent) -> np.ndarray:
    tower = basis.tower
    p = tower.p
    F = tower.residue
    B = basis.level_bound
    coords = np.zeros(basis.dim, dtype=np.int64)
    # positive-valuation tails lie in the image of y -> y^p - y on the
    # maximal ideal; discard them exactly
    work = {k: v for k, v in x.items() if k <= 0}
    const = work.pop(0, None)
    if const is not None:
        coords[basis.position("constant", 0)] = abs_trace(const)
    while work:
        k = min(work)
        a = work.pop(k)
        i = -k
        if i % p == 0:
            # i >= p, so the pole order i / p of the p-th root stays positive
            k2 = -(i // p)
            s = work.get(k2, F.zero) + pth_root(a)
            if s.is_zero():
                work.pop(k2, None)
            else:
                work[k2] = s
            continue
        if i > B:
            raise InvariantViolation(
                f"pole order {i} exceeds the materialized level bound {B}")
        for j, cj in enumerate(a.coeffs):
            if cj:
                coords[basis.position("pole-level", i, j)] = cj
    return coords


def galois_matrices(basis: ClassBasis) -> dict[GroupElt, np.ndarray]:
    """Action matrices of sigma and phi (columns = reduced images of reps),
    certified by relations_hold to form a representation of G."""
    tower = basis.tower
    gens = (tower.sigma, tower.phi)
    coords = reduce_class(basis, [tower.apply(g, vec.rep) for g in gens for vec in basis.vectors])
    out = dict(zip(gens, coords.reshape(2, basis.dim, basis.dim).transpose(0, 2, 1)))
    if not relations_hold(tower, out[tower.sigma], out[tower.phi]):
        raise InvariantViolation("the Galois action matrices break a relation of G")
    return out


def relations_hold(tower: TameTower, sigma: np.ndarray, phi: np.ndarray) -> bool:
    """Whether sigma^e = phi^(se) = 1 and phi sigma = sigma^q phi: the
    certificate of a representation of G, which makes the matrices invertible."""
    p, e, pw = tower.p, tower.e, modrep._mat_pow
    eye = np.eye(len(sigma), dtype=np.int64)
    return (np.array_equal(pw(sigma, e, p), eye)
            and np.array_equal(pw(phi, tower.s * e, p), eye)
            and np.array_equal(modrep.mm(phi, sigma, p),
                               modrep.mm(pw(sigma, tower.base.q % e, p), phi, p)))


def filtration_index(basis: ClassBasis, stack: np.ndarray):
    """Arrays (index, straddle_flag) for an (N, n, dim) stack of subspaces,
    each given by n coordinate rows.

    Char 0: the unique i with D inside the span of basis vectors of index
    >= i meeting the index >= i+1 span trivially; char p: the analogous
    statement with pole orders <= i, reported as the paper-style negative
    filtration position -max_pole, both a masked min over each support.
    straddle_flag is True when the meet is nonzero (impossible for stable
    simple subspaces): when the rows lose rank on the columns of index <= i.
    All but those at D's extreme level are zero, so one rref_stack over just
    those, at the widest level's width, ranks the whole stack.
    """
    p = basis.tower.p
    stack = modrep.as_fp(stack, p)
    support = stack.any(axis=1)
    if not support.any(axis=1).all():
        raise ValueError("the zero subspace has no filtration index")
    # stored char p levels are pole orders: the extreme one is the largest
    sign = 1 if basis.char == 0 else -1
    levels = sign * basis.levels()
    i_star = np.where(support, levels, levels.max() + 1).min(axis=1)
    at = levels == i_star[:, None]
    cols = np.argsort(~at, axis=1, kind="stable")[:, :at.sum(axis=1).max()]
    narrow = np.take_along_axis(stack * at[:, None, :], cols[:, None, :], axis=2)
    return i_star, modrep.rref_stack(narrow, p)[1] < stack.shape[1]


def level_of(basis: ClassBasis, i_star: int) -> int:
    """The level delta (wildness measure) of a subspace with filtration
    index i_star; the boundary level is 0 in char p."""
    return basis.boundary_level - i_star


def omega_character(basis: ClassBasis,
                    matrices: dict[GroupElt, np.ndarray]) -> dict[GroupElt, int]:
    """The twist character on the generators, read off the boundary line.

    Constantly 1 in char p and for p = 2.
    """
    tower = basis.tower
    if basis.char != 0 or tower.p == 2:
        return {tower.sigma: 1, tower.phi: 1}
    bd = basis.position("boundary", basis.boundary_level)
    out = {}
    for g, M in matrices.items():
        col = M[:, bd]
        if np.any(np.delete(col, bd)) or col[bd] == 0:
            raise InvariantViolation("boundary line is not stable")
        out[g] = int(col[bd])
    return out

"""The enumeration pipeline: tower -> class module -> stable simple
subspaces of degree n -> one extension record per subspace.

Each record's invariants come from the parameter subspace D alone: the
filtration level delta equals the differental excess, so the differental
exponent of a ramified record is delta + p^n - 1 and its discriminant
exponent coincides (totally ramified, residual degree 1).  The Galois
closure has order p^n times the order of the image of the twisted dual
action on D (the twist is trivial for p = 2), the same for every D of a class.

Representation classes are built in closed form from Clifford theory of
the tower group (see simple_classes); their identifiers follow the order of
structural fingerprints (dimension plus the characteristic polynomial of
every group element), which are isomorphism invariants, so catalogs do not
depend on the basis chosen for a class.  The closed form also gives each
class's End degree d (End(S) = F_{p^d}), which the submodule enumeration
checks its count of Hom maps per image against.  Nothing is random, and
the degree-n classes are enumerated one after another in the calling
thread.  The caches are deterministic tables that live in memory only:
field_create's fields, the Frobenius table of each field and of each
valuation ring (RingDesc.frobenius_power), TameTower.conjugacy_classes and
the class basis's representative powers; no enumeration result is cached.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from math import gcd

import numpy as np

from . import modrep
from .classmod import (ClassBasis, artinschreier_basis, filtration_index,
                       galois_matrices, kummer_basis, level_of,
                       omega_character)
from .errors import InvariantViolation
from .finitefield import field_create, first_element_of_order, mult_order
from .tower import BaseField, TameTower, build_tower


@dataclass
class SimpleClassInfo:
    """One isomorphism class of simple modules of the tower group."""
    identifier: str
    dim: int
    sigma: np.ndarray
    phi: np.ndarray
    end_degree: int
    inertia_exponent: int
    fingerprint: tuple
    multiplicity_in_regular: int

    def gens(self) -> list[np.ndarray]:
        return [self.sigma, self.phi]


def fingerprint(tower: TameTower, sigma: np.ndarray, phi: np.ndarray) -> tuple:
    """(dim, charpoly of every group element (a, b) -> sigma^a phi^b in lex
    order): an isomorphism invariant that separates classes sharing sorted
    fixed-space data.  The characteristic polynomial is a class function, so
    it is taken at each conjugacy class's leader, all leaders in one stacked
    call, from one table of powers of sigma and of phi."""
    p = tower.p
    leaders = [cls[0] for cls in tower.conjugacy_classes]

    a, b = (list(x) for x in zip(*leaders))
    elements = modrep.mm(modrep.matrix_powers(sigma, max(a) + 1, p)[a],
                         modrep.matrix_powers(phi, max(b) + 1, p)[b], p)
    cps = {g: tuple(cp) for cls, cp in zip(tower.conjugacy_classes, modrep.charpoly(elements, p))
           for g in cls}
    return (sigma.shape[0], tuple(cps[g] for g in tower.group_elements()))


def sigma_charpoly(tower: TameTower, fp: tuple) -> tuple:
    """Sigma's characteristic polynomial, read from a class's fingerprint fp:
    the entry of tower.sigma = (1 % e, 0) among the lex-ordered elements."""
    return fp[1][(1 % tower.e) * tower.s * tower.e]


def _inertia_exponent(tower: TameTower, cp: tuple) -> int:
    """Smallest power of the canonical inertia character theta through which
    inertia acts on an eigenline of sigma, cp its charpoly (advisory metadata)."""
    F = tower.residue
    for k in range(tower.e):
        zk = tower.zeta ** k
        acc = F.zero
        for c in reversed(cp):
            acc = acc * zk + F.from_int(c)
        if acc.is_zero():
            return k
    raise InvariantViolation("inertia eigenvalues must be e-th roots of unity")


def _pprime_part(m: int, p: int) -> int:
    while m % p == 0:
        m //= p
    return m


def simple_classes(tower: TameTower) -> list[SimpleClassInfo]:
    """All simple classes of the tower group, in fingerprint order.

    G = <sigma, phi | sigma^e, phi^(se), phi sigma phi^-1 = sigma^q> has the
    normal inertia subgroup <sigma> of order e prime to p, so Clifford theory
    (Curtis-Reiner I, section 11) lists its simple modules.  Over F = F_{p^r},
    r the order of p mod L = (se)_{p'}, the absolutely simple E(k, j) has
    basis v_0..v_{t-1}, t the size of the q-orbit of k mod e, with
    sigma v_i = zeta^(k q^-i) v_i, phi v_i = v_{i+1} and phi v_{t-1} = nu v_0
    for nu = omega^j of order dividing se/t.  E(k, j) = E(qk, j), and
    Frobenius permutes the classes by (k, j) -> (pk, pj); an orbit of length
    d is one simple F_p-module S with End(S) = F_{p^d}.  E written over F_p
    is r/d copies of S, and S is the fixed space of a p^d-semilinear
    equivariant J with J^(r/d) = 1.  Fong's dimension formula for p-solvable
    groups gives the multiplicity |G|_p (dim S / d)_{p'} of S in the regular
    module.
    """
    p, e, q = tower.p, tower.e, tower.base.q
    se = tower.s * e
    L = _pprime_part(se, p)
    r = mult_order(p, L)
    F = field_create(p, r)
    omega = first_element_of_order(F, L)
    zeta = omega ** (L // e)
    qinv = pow(q, -1, e)

    def over_fp(M):
        """The F_p matrix of an F-matrix: entry c becomes the r-square
        matrix of multiplication by c."""
        return np.block([[F.linear_matrix(lambda x, c=c: c * x) for c in row]
                         for row in M])

    def q_orbit(k):
        orbit = [k]
        while orbit[-1] * q % e != k:
            orbit.append(orbit[-1] * q % e)
        return orbit

    seen = set()
    infos = []
    for k in range(e):
        t = len(q_orbit(k))
        for j in range(0, L, L // gcd(L, se // t)):
            key = (min(q_orbit(k)), j)
            if key in seen:
                continue
            images = [(min(q_orbit(k * p ** i % e)), j * p ** i % L)
                      for i in range(1, r + 1)]
            seen.update(images)
            d = images.index(key) + 1
            nu = omega ** j

            def shift(s, b):
                """v_i -> b v_{i+s}, times nu where i + s wraps past t."""
                M = [[F.zero] * t for _ in range(t)]
                for i in range(t):
                    M[(i + s) % t][i] = b * nu if i + s >= t else b
                return over_fp(M)

            sigma = over_fp([[zeta ** (k * pow(qinv, i, e)) if i == c else F.zero
                              for c in range(t)] for i in range(t)])
            phi = shift(1, F.one)
            if d < r:
                # J = shift(j', b) after the p^d-power Frobenius, where
                # p^d k = q^-j' k mod e; b is the first unit with J^(r/d) = 1
                jp = next(i for i in range(t)
                          if (p ** d * k - k * pow(qinv, i, e)) % e == 0)
                eye = np.eye(t * r, dtype=np.int64)
                frob = np.zeros_like(eye)  # the Frobenius on each of the t coordinates
                for i in range(0, t * r, r):
                    frob[i:i + r, i:i + r] = F.frobenius_power(d)
                for code in range(1, F.order):
                    J = modrep.mm(shift(jp, F.from_code(code)), frob, p)
                    if np.array_equal(modrep._mat_pow(J, r // d, p), eye):
                        break
                rows = modrep.kernel(J - eye, p)
                if rows.shape[0] != d * t:
                    raise InvariantViolation("Galois descent lost dimensions")
                sigma, phi = modrep.restrict_action([sigma, phi], rows, p)
            fp = fingerprint(tower, sigma, phi)
            infos.append(SimpleClassInfo(
                identifier="",
                dim=d * t,
                sigma=sigma,
                phi=phi,
                end_degree=d,
                inertia_exponent=_inertia_exponent(tower, sigma_charpoly(tower, fp)),
                fingerprint=fp,
                multiplicity_in_regular=se // L * _pprime_part(t, p),
            ))
    infos.sort(key=lambda c: c.fingerprint)
    counters: dict[int, int] = {}
    for info in infos:
        k = counters.get(info.dim, 0)
        counters[info.dim] = k + 1
        info.identifier = f"{info.dim}d-{k}"
    return infos


@dataclass
class ExtensionRecord:
    """One primitive extension of degree p^n over the base."""
    base: dict
    n: int
    degree: int
    rep_id: str
    end_degree: int
    d_basis: list[list[int]]
    filtration_index: int
    level: int
    excess: int
    different_exponent: int
    discriminant_exponent: int
    ram_index: int
    closure_image_order: int
    closure_order: int
    closure_label: str | None
    unramified: bool
    tres_ramifiee: bool

    def to_dict(self) -> dict:
        """The record's fields in declaration order (a shallow copy)."""
        return {name: getattr(self, name) for name in RECORD_FIELDS}


RECORD_FIELDS = tuple(f.name for f in fields(ExtensionRecord))


@dataclass
class EnumerationResult:
    base: BaseField
    n: int
    records: list[ExtensionRecord]
    tower: TameTower
    basis: ClassBasis
    matrices: dict
    classes: list[SimpleClassInfo]
    omega: dict
    seed: int = 0


MAX_GROUP_ORDER = 10 ** 6  # the closure search of a tame image stops past this


def _matrix_group_order(gens: list[np.ndarray], p: int) -> int:
    dim = gens[0].shape[0]
    eye = np.eye(dim, dtype=np.int64)
    seen = {eye.tobytes()}
    frontier = [eye]
    while frontier:
        M = frontier.pop()
        for G in gens:
            nxt = modrep.mm(G, M, p)
            key = nxt.tobytes()
            if key not in seen:
                seen.add(key)
                frontier.append(nxt)
                if len(seen) > MAX_GROUP_ORDER:
                    raise InvariantViolation("matrix group closure exceeded cap")
    return len(seen)


def closure_descriptor(tower: TameTower, rho_sigma: np.ndarray, rho_phi: np.ndarray,
                       omega: dict):
    """(image order, closure order, label) from the twisted dual action on D.

    The wild part of the closure group has order p^n; the tame image is the
    matrix group generated by the twisted dual action omega(g) rho(g)^-T
    (the inverse-transpose for p = 2, where the twist character is trivial).
    X -> X^-T is an automorphism of GL_n(F_p) sending omega^-1 rho to
    omega rho^-T, so the matrices omega(g)^-1 rho(g) generate a group of the
    same order, and the search over it inverts no matrix.  Each parameter
    subspace of class S is the image of an injective map C, equivariant by
    enumerate_simple_submodules's once-per-class check, so it acts by
    C rho_S C^-1 with one C for both generators: its descriptor is S's.
    """
    p = tower.p
    n = rho_sigma.shape[0]
    twisted = [(pow(omega[g], -1, p) * M) % p
               for g, M in ((tower.sigma, rho_sigma), (tower.phi, rho_phi))]
    image_order = _matrix_group_order(twisted, p)
    closure_order = p ** n * image_order
    label = None
    if (p, n) == (2, 2):
        label = {12: "A4", 24: "S4"}.get(closure_order)
    return image_order, closure_order, label


def level_divisibility_holds(tower: TameTower, basis: ClassBasis, delta: int) -> bool:
    """Whether the level delta of a record obeys the divisibility rule:
    p does not divide delta, except at n = 1 for the unramified level 0
    and, in char 0, the tres ramifiee level p * c."""
    p = tower.p
    if delta % p:
        return True
    return tower.n == 1 and (
        delta == 0 or (tower.base.char == 0 and delta == p * basis.c_index))


def _records_for(tower: TameTower, basis: ClassBasis, owners: list[tuple],
                 stack: np.ndarray) -> list[ExtensionRecord]:
    """The records of an (N, n, dim V) stack of rref row bases, the i-th of
    class owners[i][0] with closure_descriptor owners[i][1]."""
    p, n = tower.p, tower.n
    i_stars, straddle = filtration_index(basis, stack)
    if straddle.any():
        raise InvariantViolation("a parameter subspace straddles the filtration")
    degree = p ** n
    records = []
    for (cls, closure), rows, i_star in zip(owners, stack.tolist(), i_stars.tolist()):
        delta = level_of(basis, i_star)
        if not level_divisibility_holds(tower, basis, delta):
            raise InvariantViolation(
                f"level {delta} violates the divisibility constraint at n={n}")
        unramified = delta == 0
        if unramified and n != 1:
            raise InvariantViolation("an unramified parameter can only occur at n = 1")
        d = 0 if unramified else delta + degree - 1
        image_order, closure_order, label = closure
        records.append(ExtensionRecord(
            base=tower.base.describe(),
            n=n,
            degree=degree,
            rep_id=cls.identifier,
            end_degree=cls.end_degree,
            d_basis=rows,
            filtration_index=i_star,
            level=delta,
            excess=delta,
            different_exponent=d,
            discriminant_exponent=d,
            ram_index=1 if unramified else degree,
            closure_image_order=image_order,
            closure_order=closure_order,
            closure_label=label,
            unramified=unramified,
            tres_ramifiee=tower.base.char == 0 and n == 1 and delta == p * basis.c_index,
        ))
    return records


def enumerate_primitive(base: BaseField, n: int, *, level_bound: int | None = None,
                        precision: int | None = None, seed: int = 0,
                        use_cache: bool = True) -> EnumerationResult:
    """All primitive extensions of degree p^n, as extension records.

    Char p requires level_bound (only finitely many records have bounded
    differental exponent; the module is materialized up to that bound).
    seed is only recorded on the result (and so in the catalog metadata);
    use_cache is accepted and ignored, as no enumeration result is cached.
    """
    if base.char != 0 and level_bound is None:
        raise ValueError("equal characteristic requires a level bound")
    if base.char == 0 and level_bound is not None:
        raise ValueError("a level bound applies only in equal characteristic")
    tower = build_tower(base, n, precision)
    if base.char == 0:
        basis = kummer_basis(tower)
    else:
        basis = artinschreier_basis(tower, level_bound)
    matrices = galois_matrices(basis)
    gens_V = [matrices[tower.sigma], matrices[tower.phi]]
    omega = omega_character(basis, matrices)
    classes = simple_classes(tower)
    degree_classes = [c for c in classes if c.dim == n]
    closures = [closure_descriptor(tower, *cls.gens(), omega) for cls in degree_classes]
    polys = [sigma_charpoly(tower, cls.fingerprint) for cls in degree_classes]
    powers = modrep.matrix_powers(gens_V[0], tower.e, tower.p)
    parts = {c: modrep.isotypic_part(gens_V, powers, list(c), tower.p) for c in set(polys)}
    owners, stacks = [], []
    for cls, closure, c in zip(degree_classes, closures, polys):
        subs = modrep.enumerate_simple_submodules(parts[c][1], cls.gens(), cls.end_degree, tower.p)
        if subs:
            # an rref basis times the rref rows W of the part is the rref of its image in V
            stacks.append(modrep.mm(np.stack(subs), parts[c][0], tower.p))
            owners += [(cls, closure)] * len(subs)
    records = _records_for(tower, basis, owners, np.concatenate(stacks)) if stacks else []
    by_class = {cls.identifier: cls.fingerprint for cls in degree_classes}
    # every d_basis has n rows of length dim V, so the lists compare as the flat tuples
    records.sort(key=lambda r: (r.level, by_class[r.rep_id], r.d_basis))
    return EnumerationResult(
        base=base, n=n, records=records, tower=tower, basis=basis,
        matrices=matrices, classes=classes, omega=omega, seed=seed)


def list_representations(base: BaseField, n: int) -> list[SimpleClassInfo]:
    """Simple classes of dimension n of the tower group, with metadata."""
    return [c for c in simple_classes(build_tower(base, n)) if c.dim == n]

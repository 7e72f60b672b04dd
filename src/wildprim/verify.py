"""Independent ground-truth oracles and consistency checks.

Nothing here trusts the pipeline: the quadratic oracle computes different
exponents from integer valuations alone, the mass check evaluates Serre's
totally-ramified mass sum as an exact rational, the structure checks
compare measured Hom-multiplicities against the known module decomposition,
the cross checks replay the enumeration against a brute-force subspace
scan and a higher-precision run, and the simple-class oracle compares the
closed-form simple modules with a MeatAxe chop of the regular
representation.  All comparisons are exact; a failed
check is recorded and aggregated, never silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import modrep
from .classmod import reduce_class, relations_hold
from .enumerator import (EnumerationResult, SimpleClassInfo, enumerate_primitive,
                         fingerprint, level_divisibility_holds, sigma_charpoly,
                         simple_classes)
from .finitefield import abs_trace
from .tower import BaseField, TameTower


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: object
    expected: object

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: measured={self.measured} expected={self.expected}"


@dataclass
class VerificationReport:
    checks: list[CheckResult] = field(default_factory=list)

    def add(self, name, measured, expected) -> None:
        self.checks.append(CheckResult(name, measured == expected, measured, expected))

    def add_bool(self, name, ok, detail="") -> None:
        measured = detail if detail else bool(ok)
        self.checks.append(CheckResult(name, bool(ok), measured, "ok" if detail else True))

    def extend(self, other: "VerificationReport") -> None:
        self.checks.extend(other.checks)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        return "\n".join(c.line() for c in self.checks)

    def to_dict(self) -> dict:
        return {"passed": self.passed,
                "checks": [{"name": c.name, "passed": c.passed,
                            "measured": repr(c.measured), "expected": repr(c.expected)}
                           for c in self.checks]}


def _v2(n: int) -> int:
    v = 0
    while n % 2 == 0:
        n //= 2
        v += 1
    return v


def quadratic_different_oracle(d: int) -> int:
    """Different exponent of Q_2(sqrt(d)) over Q_2 from valuations alone.

    d is an integer representative of a nonsquare class.  For odd valuation
    the square root is an Eisenstein generator and the derivative 2*alpha
    has valuation 2 + 1; for units = 3 mod 4 the ring of integers is
    monogenic in alpha and v(2*alpha) = 2; units = 5 mod 8 generate the
    unramified quadratic.  Squares are rejected.
    """
    if d == 0:
        raise ValueError("zero is not a class representative")
    v = _v2(abs(d))
    u = d // (1 << v)
    if v % 2 == 1:
        return 3  # v_E(2 alpha) = 2 + 1 for Eisenstein alpha
    u8 = u % 8
    if u8 == 1:
        raise ValueError(f"{d} is a square in Q_2")
    if u8 == 5:
        return 0  # unramified quadratic
    return 2  # u = 3 mod 4: v_E(2 alpha) = 2 + 0


def quadratic_record_representative(result: EnumerationResult, record) -> int:
    """Integer representative of an n=1 record over Q_2: the product of the
    basis representatives 2, 1 + 2^i, 1 + 2^boundary at the record's
    coordinates."""
    base = result.base
    if not (base.p == 2 and base.f == 1 and base.char == 0 and result.n == 1):
        raise ValueError("integer representatives only exist for Q_2, n = 1")
    coords = record.d_basis[0]
    rep = 1
    for c, vec in zip(coords, result.basis.vectors):
        if c:
            value = int(vec.rep.data[0, 0])
            rep *= value
    return rep


def mass_check(base: BaseField, *, level_bound: int | None = None, seed: int = 0,
               use_cache: bool = False) -> Fraction:
    """Serre's totally ramified mass sum at degree p = base.p, as an exact
    rational.

    Sums (p/|Aut|) q^{-(d - (p-1))} over the ramified degree-p records,
    with |Aut| = p exactly for the cyclic records (closure order p).  In
    char 0 the value is exactly p; in char p only the partial sum over the
    materialized levels is returned.  use_cache is accepted and ignored.
    """
    p = base.p
    result = enumerate_primitive(base, 1, level_bound=level_bound, seed=seed)
    q = base.q
    total = Fraction(0)
    for r in result.records:
        if r.unramified:
            continue
        aut = p if r.closure_order == p else 1
        total += Fraction(p, aut) * Fraction(1, q ** (r.different_exponent - (p - 1)))
    return total


def _is_character_line(cls: SimpleClassInfo, sigma_val: int, phi_val: int, p: int) -> bool:
    return (cls.dim == 1 and int(cls.sigma[0, 0]) == sigma_val % p
            and int(cls.phi[0, 0]) == phi_val % p)


def structure_checks(result: EnumerationResult) -> VerificationReport:
    """Dimension and socle-multiplicity comparisons against the known
    decomposition of the class module."""
    report = VerificationReport()
    tower = result.tower
    base = result.base
    p, f = tower.p, base.f
    V = [result.matrices[tower.sigma], result.matrices[tower.phi]]
    if base.char == 0:
        expected_dim = tower.group_order * f + 2
        report.add(f"dim[{_tag(result)}]", result.basis.dim, expected_dim)
        om_s, om_p = result.omega[tower.sigma], result.omega[tower.phi]
        polys = [sigma_charpoly(tower, cls.fingerprint) for cls in result.classes]
        parts = {c: modrep.isotypic_part(V, list(c), p)[1] for c in set(polys)}
        for cls, c in zip(result.classes, polys):
            hom_dim = len(modrep.hom_space(cls.gens(), parts[c], p))
            expected = f * cls.dim
            if _is_character_line(cls, 1, 1, p):
                expected += 1
            if _is_character_line(cls, om_s, om_p, p):
                expected += 1
            report.add(f"hom-mult[{_tag(result)}:{cls.identifier}]", hom_dim, expected)
    else:
        B = result.basis.level_bound
        fprime = tower.fprime
        levels = [i for i in range(1, B + 1) if i % p]
        report.add(f"dim[{_tag(result)}]", result.basis.dim, 1 + fprime * len(levels))
        F = tower.residue
        for i in range(1, B + 1):
            rows = []
            beyond = False
            for j in range(fprime):
                a = F.from_code(p ** j)
                # a pole at order i plus a positive tail: the tail must vanish
                x = {-i: a, 1 + (i + j) % 3: F.one}
                coords = reduce_class(result.basis, x)
                support_levels = result.basis.levels()[np.flatnonzero(coords)]
                if support_levels.size and int(support_levels.max()) > i:
                    beyond = True
                rows.append(coords)
            report.add_bool(f"graded-support[{_tag(result)}:i={i}]", not beyond)
            expected = fprime if i % p else 0
            report.add(f"graded-dim[{_tag(result)}:i={i}]",
                       modrep.rank(np.stack([_level_part(result.basis, r, i)
                                             for r in rows]), p),
                       expected)
        c0 = result.basis.aux["constant"]
        coords = reduce_class(result.basis, {0: c0})
        report.add(f"constant-trace[{_tag(result)}]",
                   int(coords[result.basis.position("constant", 0)]), abs_trace(c0) % p)
    return report


def regular_representation(tower: TameTower) -> list[np.ndarray]:
    """Permutation matrices of sigma and phi acting on F_p[G] by left
    multiplication."""
    els = tower.group_elements()
    idx = {g: i for i, g in enumerate(els)}
    mats = []
    for h in (tower.sigma, tower.phi):
        M = np.zeros((len(els), len(els)), dtype=np.int64)
        for g in els:
            M[idx[tower.compose(h, g)], idx[g]] = 1
        mats.append(M)
    return mats


def simple_classes_oracle_check(tower: TameTower, seed: int = 0) -> VerificationReport:
    """The closed-form simple classes against a randomized MeatAxe chop of
    the regular representation: equal sorted (fingerprint, End degree,
    multiplicity in the regular module) lists."""
    p = tower.p
    chopped = sorted(
        (fingerprint(tower, *c.gens), len(modrep.hom_space(c.gens, c.gens, p)),
         c.multiplicity)
        for c in modrep.chop(regular_representation(tower), p, seed=seed))
    closed = [(c.fingerprint, c.end_degree, c.multiplicity_in_regular)
              for c in simple_classes(tower)]
    report = VerificationReport()
    report.add(f"simple-classes[{_tag(tower)}]", len(closed), len(chopped))
    report.add_bool(f"simple-classes-oracle[{_tag(tower)}]", sorted(closed) == chopped)
    return report


def _level_part(basis, coords, i):
    mask = basis.levels() == i
    return np.asarray(coords) * mask


def _tag(result: EnumerationResult | TameTower) -> str:
    b = result.base
    kind = f"Q_{b.q}" if b.char == 0 else f"F_{b.q}((t))"
    return f"{kind},n={result.n}"


def duality_checks(result: EnumerationResult) -> VerificationReport:
    """The twisted dual of each parameter's action must again be a simple
    module of the tower group, isomorphic to one of the known classes; for
    p = 2 the twist is literally the inverse-transpose.  Isomorphic modules
    share the characteristic polynomials of sigma and phi, so Hom is only
    computed for the classes whose polynomials match the dual's."""
    report = VerificationReport()
    tower = result.tower
    p = tower.p
    V = [result.matrices[tower.sigma], result.matrices[tower.phi]]
    classes_n = [(c, modrep.charpoly(np.stack(c.gens()), p))
                 for c in result.classes if c.dim == result.n]
    for k, record in enumerate(result.records):
        rows = np.array(record.d_basis, dtype=np.int64)
        rho_s, rho_p = modrep.restrict_action(V, rows, p)
        dual_s, dual_p = (modrep.inv_mat(rho, p).T for rho in (rho_s, rho_p))
        tw_s = (result.omega[tower.sigma] * dual_s) % p
        tw_p = (result.omega[tower.phi] * dual_p) % p
        ok_twist = p != 2 or (np.array_equal(tw_s, dual_s) and np.array_equal(tw_p, dual_p))
        ok_rel = relations_hold(tower, tw_s, tw_p)
        ok_simple = modrep.is_simple([tw_s, tw_p], p)
        polys = modrep.charpoly(np.stack([tw_s, tw_p]), p)
        matches = [c.identifier for c, cps in classes_n
                   if cps == polys and modrep.hom_space([tw_s, tw_p], c.gens(), p)]
        ok_iso = len(matches) == 1
        report.add_bool(
            f"duality[{_tag(result)}:#{k}:{record.rep_id}]",
            ok_twist and ok_rel and ok_simple and ok_iso)
    return report


def divisibility_checks(result: EnumerationResult) -> VerificationReport:
    report = VerificationReport()
    p, n = result.tower.p, result.n
    for k, r in enumerate(result.records):
        report.add_bool(f"level-divisibility[{_tag(result)}:#{k}]",
                        level_divisibility_holds(result.tower, result.basis, r.level),
                        f"level={r.level}")
        d_ok = (r.different_exponent == 0 if r.unramified
                else r.different_exponent == r.excess + p ** n - 1)
        report.add_bool(f"different-formula[{_tag(result)}:#{k}]", d_ok)
    return report


def brute_oracle_check(result: EnumerationResult) -> VerificationReport:
    """Exhaustive submodule scan versus the fast enumeration (small dims)."""
    report = VerificationReport()
    tower = result.tower
    p = tower.p
    dim = result.basis.dim
    if not modrep.brute_feasible(dim, p):
        report.add_bool(f"brute-oracle[{_tag(result)}]", True,
                        f"skipped (dimension {dim})")
        return report
    V = [result.matrices[tower.sigma], result.matrices[tower.phi]]
    brute = modrep.brute_simple_submodules(V, result.n, p)
    fast = sorted(tuple(x for row in r.d_basis for x in row) for r in result.records)
    brute_keys = sorted(tuple(rows.ravel()) for rows in brute)
    report.add(f"brute-oracle[{_tag(result)}]", fast, [tuple(int(x) for x in k) for k in brute_keys])
    return report


def precision_stability_check(result: EnumerationResult) -> VerificationReport:
    """Identical record lists at precision N and N + e."""
    report = VerificationReport()
    base, n = result.base, result.n
    if base.char != 0:
        report.add_bool(f"precision-stability[{_tag(result)}]", True,
                        "exact pipeline (char p)")
        return report
    bigger = enumerate_primitive(
        base, n, precision=result.tower.prec + result.tower.e, seed=result.seed)
    same = [r.to_dict() for r in result.records] == [r.to_dict() for r in bigger.records]
    report.add_bool(f"precision-stability[{_tag(result)}]", same)
    return report


def cross_checks(result: EnumerationResult, *,
                 precision: bool = True) -> VerificationReport:
    report = VerificationReport()
    report.extend(duality_checks(result))
    report.extend(divisibility_checks(result))
    report.extend(brute_oracle_check(result))
    if precision:
        report.extend(precision_stability_check(result))
    return report


def quadratic_catalog_check(seed: int = 0) -> VerificationReport:
    """The full degree-2 catalog of Q_2 against the valuation-only oracle."""
    report = VerificationReport()
    result = enumerate_primitive(BaseField(2, 1, 0), 1, seed=seed)
    report.add("q2-quadratics-count", len(result.records), 7)
    report.add("q2-quadratics-d-multiset",
               sorted(r.different_exponent for r in result.records),
               [0, 2, 2, 3, 3, 3, 3])
    report.add("q2-quadratics-tres", sum(r.tres_ramifiee for r in result.records), 4)
    report.add("q2-quadratics-unramified", sum(r.unramified for r in result.records), 1)
    for k, r in enumerate(result.records):
        rep = quadratic_record_representative(result, r)
        report.add(f"q2-quadratic-oracle[#{k}:rep={rep}]", r.different_exponent,
                   quadratic_different_oracle(rep))
    return report

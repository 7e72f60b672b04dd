"""Acceptance suite: one test per criterion, every comparison exact.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion (lines are also printed under plain `pytest` on failure).
"""

import json
import random
import time
from collections import Counter
from fractions import Fraction

import numpy as np

from laurent import artin_schreier_image, laurent_sum, random_laurent
from wildprim import modrep
from wildprim.classmod import reduce_class
from wildprim.enumerator import enumerate_primitive, list_representations
from wildprim.localring import RingElt
from wildprim.tower import BaseField
from wildprim.verify import (cross_checks, mass_check,
                             quadratic_different_oracle,
                             quadratic_record_representative, structure_checks)

Q2 = BaseField(2, 1, 0)
Q3 = BaseField(3, 1, 0)
Q4 = BaseField(2, 2, 0)
F2T = BaseField(2, 1, 2)
F3T = BaseField(3, 1, 3)

_cache: dict = {}


def enum(base, n, **kw):
    key = (base, n, tuple(sorted(kw.items())))
    if key not in _cache:
        _cache[key] = enumerate_primitive(base, n, use_cache=False, **kw)
    return _cache[key]


def report(name: str) -> None:
    print(f"[PASS] acceptance: {name}")


def test_quartic_counts():
    t0 = time.time()
    res = enumerate_primitive(Q2, 2, use_cache=False)
    elapsed = time.time() - t0
    _cache[(Q2, 2, ())] = res
    assert len(res.records) == 4
    labels = Counter((r.closure_order, r.closure_label) for r in res.records)
    assert labels == {(12, "A4"): 1, (24, "S4"): 3}
    assert elapsed < 10.0, f"quartic enumeration took {elapsed:.1f}s"
    report(f"quartic counts over Q_2 (1 A4 + 3 S4 in {elapsed:.2f}s)")


def test_s4_filtration_indices_and_d_values():
    res = enum(Q2, 2)
    s4 = [r for r in res.records if r.closure_label == "S4"]
    a4 = [r for r in res.records if r.closure_label == "A4"]
    assert sorted(r.filtration_index for r in s4) == [1, 1, 5]
    assert sorted(r.different_exponent for r in s4) == [4, 8, 8]
    assert len(a4) == 1 and a4[0].different_exponent == 6
    report("S4 parameters at filtration indices {5,1,1}, d-values {4,8,8}; A4 d = 6")


def test_octic_count():
    t0 = time.time()
    res = enumerate_primitive(Q2, 3, use_cache=False)
    elapsed = time.time() - t0
    _cache[(Q2, 3, ())] = res
    assert len(res.records) == 16
    assert elapsed < 300.0, f"octic enumeration took {elapsed:.1f}s"
    report(f"sixteen primitive octic extensions of Q_2 (in {elapsed:.2f}s)")


def test_representation_counts():
    classes = list_representations(Q2, 2)
    assert len(classes) == 2
    assert all(c.dim == 2 for c in classes)
    report("exactly 2 simple classes of dimension 2 for (p,f,char,n) = (2,1,0,2)")


def test_no_s4_over_q4():
    res = enum(Q4, 2)
    assert set(r.closure_order for r in res.records) == {12}
    tower = res.tower
    assert tower.group_order == 9
    els = tower.group_elements()
    for g in els:
        for h in els:
            assert tower.compose(g, h) == tower.compose(h, g)
        ggg = tower.compose(g, tower.compose(g, g))
        assert ggg == tower.identity()
    report("no S4-quartics over Q_4; its tower group has order 9, commutative "
           "of exponent 3")


def test_degree2_catalog_of_q2_with_oracle():
    res = enum(Q2, 1)
    assert len(res.records) == 7
    assert sorted(r.different_exponent for r in res.records) == [0, 2, 2, 3, 3, 3, 3]
    assert sum(r.tres_ramifiee for r in res.records) == 4
    assert sum(r.unramified for r in res.records) == 1
    for r in res.records:
        rep = quadratic_record_representative(res, r)
        assert r.different_exponent == quadratic_different_oracle(rep)
    report("degree-2 catalog of Q_2: d-multiset {0,2,2,3,3,3,3}, 4 tres-ramifiee, "
           "1 unramified, all d matching the valuation oracle")


def test_mass_formula():
    assert mass_check(Q2) == Fraction(2)
    assert mass_check(Q4) == Fraction(2)
    report("Serre mass = 2 exactly over Q_2 and over Q_4")


def test_charp_finiteness_and_counts():
    lists = {}
    for bound, expected in [(1, 3), (3, 7), (5, 15)]:
        res = enum(F2T, 1, level_bound=bound)
        assert len(res.records) == expected
        lists[bound] = [r.to_dict() for r in res.records]
    for small, big in [(1, 3), (3, 5)]:
        for old, new in zip(lists[small], lists[big]):
            for key, value in old.items():
                if key == "d_basis":
                    padded = [row + [0] * (len(new["d_basis"][0]) - len(row))
                              for row in value]
                    assert new["d_basis"] == padded
                else:
                    assert new[key] == value
    report("F_2((t)) level bounds 1,3,5 give 3,7,15 records, prefix-compatible")


def _random_unit(tower, rng):
    ring = tower.ring
    data = np.array([[rng.randrange(ring.pm) for _ in range(ring.fprime)]
                     for _ in range(ring.e)])
    x = RingElt(ring, data)
    if x.residue().is_zero():
        data[0, 0] = 1
        x = RingElt(ring, data)
    return RingElt.uniformizer(ring, rng.randrange(2)) * x


def test_property_class_map_homomorphism_and_kernel():
    rng = random.Random(0)
    res0 = enum(Q2, 2)
    basis0 = res0.basis
    tower0 = res0.tower
    failures = 0
    for _ in range(1000):
        x, y = _random_unit(tower0, rng), _random_unit(tower0, rng)
        lhs = reduce_class(basis0, x * y)
        rhs = (reduce_class(basis0, x) + reduce_class(basis0, y)) % 2
        failures += not np.array_equal(lhs, rhs)
        failures += bool(reduce_class(basis0, x.pth_power()).any())
    resp = enum(F2T, 2, level_bound=5)
    for _ in range(1000):
        x, y = (random_laurent(resp.tower.residue, rng, -5, 3) for _ in range(2))
        lhs = reduce_class(resp.basis, laurent_sum(x, y))
        rhs = (reduce_class(resp.basis, x) + reduce_class(resp.basis, y)) % 2
        failures += not np.array_equal(lhs, rhs)
        failures += bool(reduce_class(resp.basis, artin_schreier_image(x, 2)).any())
    assert failures == 0
    report("class-map homomorphism and kernel properties: 10^3 random samples "
           "per characteristic, zero failures")


def test_property_galois_relations_and_filtration():
    for base, n, bound in [(Q2, 2, None), (F2T, 2, 5), (Q3, 1, None)]:
        res = enum(base, n, **({} if bound is None else {"level_bound": bound}))
        t = res.tower
        p = t.p
        Ms, Mp = res.matrices[t.sigma], res.matrices[t.phi]
        eye = np.eye(res.basis.dim, dtype=np.int64)
        assert np.array_equal(modrep._mat_pow(Ms, t.e, p), eye)
        assert np.array_equal(modrep._mat_pow(Mp, t.s * t.e, p), eye)
        conj = modrep.mm(modrep.mm(Mp, Ms, p), modrep.inv_mat(Mp, p), p)
        assert np.array_equal(conj, modrep._mat_pow(Ms, t.base.q, p))
    # filtration adaptation on random principal units
    res = enum(Q2, 2)
    rng = random.Random(1)
    levels = res.basis.levels()
    for i in (1, 3, 5):
        for _ in range(40):
            u = RingElt.one(res.tower.ring) + \
                RingElt.uniformizer(res.tower.ring, i) * _random_unit(res.tower, rng)
            support = np.flatnonzero(reduce_class(res.basis, u))
            assert all(levels[s] >= i for s in support)
    report("Galois matrix identities and filtration adaptation")


def test_property_divisibility_duality_brute():
    instances = [(Q2, 1, None), (Q2, 2, None), (Q3, 1, None),
                 (F2T, 1, 3), (F2T, 1, 5), (F2T, 2, 1)]
    for base, n, bound in instances:
        res = enum(base, n, **({} if bound is None else {"level_bound": bound}))
        rep = cross_checks(res, precision=False)
        assert rep.passed, rep.render()
    report("level divisibility, duality inverse-transpose (x omega) and "
           "brute-oracle equivalence on all feasible instances")


def test_property_identical_catalogs_precision():
    res = enum(Q2, 2)
    bumped = enumerate_primitive(Q2, 2, precision=res.tower.prec + res.tower.e,
                                 use_cache=False)
    rec = lambda r: json.dumps([x.to_dict() for x in r.records])
    assert rec(res) == rec(bumped)
    report("byte-identical catalogs at precision N and N + e")


def test_structure_checks_all_towers():
    cases = [(Q2, 1, None), (Q2, 2, None), (Q2, 3, None),
             (Q3, 1, None), (Q3, 2, None),
             (F2T, 1, 5), (F2T, 2, 3), (F2T, 3, 3),
             (F3T, 1, 4), (F3T, 2, 2)]
    for base, n, bound in cases:
        res = enum(base, n, **({} if bound is None else {"level_bound": bound}))
        rep = structure_checks(res)
        assert rep.passed, rep.render()
    report("dimension formulas and Hom-multiplicity comparisons for all towers "
           "with p = 2, n <= 3 and p = 3, n <= 2, both characteristics")

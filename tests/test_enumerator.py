import hashlib
from collections import Counter

import numpy as np
import pytest

from wildprim import modrep
from wildprim.enumerator import (enumerate_primitive, list_representations,
                                 simple_classes)
from wildprim.tower import BaseField, build_tower
from wildprim.verify import regular_representation, simple_classes_oracle_check

Q2 = BaseField(2, 1, 0)
Q3 = BaseField(3, 1, 0)
Q4 = BaseField(2, 2, 0)
F2T = BaseField(2, 1, 2)


@pytest.fixture(scope="module")
def q2n2():
    return enumerate_primitive(Q2, 2, use_cache=False)


def test_q2_quadratics(q2n2_unused=None):
    res = enumerate_primitive(Q2, 1, use_cache=False)
    assert len(res.records) == 7
    assert sorted(r.different_exponent for r in res.records) == [0, 2, 2, 3, 3, 3, 3]
    assert sum(r.tres_ramifiee for r in res.records) == 4
    assert sum(r.unramified for r in res.records) == 1
    # every quadratic extension is cyclic
    assert all(r.closure_order == 2 for r in res.records)
    # discriminant exponent agrees with the different for totally ramified,
    # and is zero for the unramified record
    for r in res.records:
        assert r.discriminant_exponent == r.different_exponent
        assert r.ram_index == (1 if r.unramified else 2)


def test_q2_quartics_counts_and_labels(q2n2):
    labels = Counter(r.closure_label for r in q2n2.records)
    assert labels == {"A4": 1, "S4": 3}
    orders = Counter(r.closure_order for r in q2n2.records)
    assert orders == {12: 1, 24: 3}


def test_q2_quartics_filtration_and_d(q2n2):
    s4 = [r for r in q2n2.records if r.closure_label == "S4"]
    a4 = [r for r in q2n2.records if r.closure_label == "A4"]
    assert sorted(r.filtration_index for r in s4) == [1, 1, 5]
    assert sorted(r.different_exponent for r in s4) == [4, 8, 8]
    assert a4[0].different_exponent == 6
    assert a4[0].filtration_index == 3
    # closure image orders: 3 for A4, 6 for S4
    assert a4[0].closure_image_order == 3
    assert all(r.closure_image_order == 6 for r in s4)


def test_q2_octics_count():
    res = enumerate_primitive(Q2, 3, use_cache=False)
    assert len(res.records) == 16
    by_end = Counter(r.end_degree for r in res.records)
    assert by_end == {1: 14, 3: 2}


def test_q4_no_s4():
    res = enumerate_primitive(Q4, 2, use_cache=False)
    assert len(res.records) == 20
    assert set(r.closure_order for r in res.records) == {12}
    assert res.tower.group_order == 9


def test_q3_cubics_classical_count():
    # p^2 + 1 = 10 isomorphism classes of degree-3 extensions of Q_3
    res = enumerate_primitive(Q3, 1, use_cache=False)
    assert len(res.records) == 10
    assert sum(r.unramified for r in res.records) == 1
    assert sum(r.tres_ramifiee for r in res.records) == 3
    # the cyclic ones: unramified + the three tres ramifiees
    cyclic = [r for r in res.records if r.closure_order == 3]
    assert len(cyclic) == 4


def test_charp_counts_and_prefix_property():
    previous = None
    for bound, expected in [(1, 3), (3, 7), (5, 15)]:
        res = enumerate_primitive(F2T, 1, level_bound=bound, use_cache=False)
        assert len(res.records) == expected
        dicts = [r.to_dict() for r in res.records]
        if previous is not None:
            # same records, padded with zeros on the new basis columns
            for old, new in zip(previous, dicts):
                for key, value in old.items():
                    if key == "d_basis":
                        padded = [row + [0] * (len(new["d_basis"][0]) - len(row))
                                  for row in value]
                        assert new["d_basis"] == padded
                    else:
                        assert new[key] == value
        previous = dicts


def test_charp_requires_level_bound():
    with pytest.raises(ValueError):
        enumerate_primitive(F2T, 1, use_cache=False)


def test_reps_q2_n2():
    classes = list_representations(Q2, 2)
    assert len(classes) == 2
    assert sorted(c.end_degree for c in classes) == [1, 2]
    assert {c.identifier for c in classes} == {"2d-0", "2d-1"}


def test_reps_q2_n1():
    classes = list_representations(Q2, 1)
    assert len(classes) == 1
    assert classes[0].end_degree == 1


def test_reps_charp_unramified_cubic_class_not_absolutely_irreducible():
    classes = list_representations(F2T, 2)
    # the class through the unramified cubic quotient has endomorphism degree 2
    assert sorted(c.end_degree for c in classes) == [1, 2]
    unram = next(c for c in classes if c.end_degree == 2)
    assert unram.inertia_exponent == 0


def test_simple_classes_seed_invariant_multiplicities():
    # the chop's random path does not change what it finds, and that is
    # what the closed form builds
    tower = build_tower(Q2, 2)
    for seed in (0, 1, 5):
        report = simple_classes_oracle_check(tower, seed)
        assert report.passed, report.render()


# (p, f, char, n): every tower whose regular representation chops in about
# 2 s or less, in both characteristics, p = 2..13
ORACLE_TOWERS = [
    (2, 1, 0, 1), (2, 1, 0, 2), (2, 1, 0, 3), (3, 1, 0, 1), (3, 1, 0, 2),
    (2, 2, 0, 2), (2, 3, 0, 2), (3, 2, 0, 1), (5, 2, 0, 1), (3, 3, 0, 1),
    (7, 2, 0, 1), (5, 1, 0, 1), (7, 1, 0, 1), (11, 1, 0, 1), (13, 1, 0, 1),
    (2, 2, 2, 1), (2, 2, 2, 2), (5, 1, 5, 1), (2, 1, 2, 3),
]


@pytest.mark.parametrize("p,f,char,n", ORACLE_TOWERS)
def test_closed_form_classes_match_the_chop(p, f, char, n):
    report = simple_classes_oracle_check(build_tower(BaseField(p, f, char), n))
    assert report.passed, report.render()


# sha256 (first 16 hex digits) of repr([c.fingerprint for c in
# simple_classes(tower)]), recorded when each leader's sigma^a phi^b was
# computed by square-and-multiply powers
FINGERPRINT_SHA256 = {
    (2, 1, 0, 1): "036243d48ceaf4b6",
    (2, 1, 0, 2): "291236a67f24606f",
    (2, 1, 0, 3): "50f15ac9ffeab690",
    (3, 1, 0, 1): "2dfe1888a02812ba",
    (3, 1, 0, 2): "bdd184fae4ae6544",
    (2, 2, 0, 2): "6bc28dba34eeadf7",
    (2, 3, 0, 2): "291236a67f24606f",
    (3, 2, 0, 1): "2dfe1888a02812ba",
    (5, 2, 0, 1): "f5da99957dd971b3",
    (3, 3, 0, 1): "2dfe1888a02812ba",
    (7, 2, 0, 1): "52bc4e766901747f",
    (5, 1, 0, 1): "f5da99957dd971b3",
    (7, 1, 0, 1): "52bc4e766901747f",
    (11, 1, 0, 1): "44ecba4a0bcdbcc8",
    (13, 1, 0, 1): "c0a371d0c6755a68",
    (2, 2, 2, 1): "036243d48ceaf4b6",
    (2, 2, 2, 2): "6bc28dba34eeadf7",
    (5, 1, 5, 1): "f5da99957dd971b3",
    (2, 1, 2, 3): "50f15ac9ffeab690",
}


@pytest.mark.parametrize("p,f,char,n", ORACLE_TOWERS)
def test_fingerprints_are_pinned(p, f, char, n):
    classes = simple_classes(build_tower(BaseField(p, f, char), n))
    digest = hashlib.sha256(repr([c.fingerprint for c in classes]).encode()).hexdigest()
    assert digest[:16] == FINGERPRINT_SHA256[p, f, char, n]


def test_simple_classes_of_q2_n4():
    classes = simple_classes(build_tower(Q2, 4))
    assert len(classes) == 25
    assert len({c.fingerprint for c in classes}) == 25  # pairwise non-isomorphic
    assert sum(c.dim == 4 for c in classes) == 7
    assert sum(c.dim * c.multiplicity_in_regular for c in classes) == 900


@pytest.mark.parametrize("p,f,char,n", [(2, 1, 0, 1), (2, 1, 0, 2), (2, 1, 0, 3),
                                        (3, 1, 0, 2), (2, 2, 2, 2)])
def test_fingerprint_matches_per_element_charpolys(p, f, char, n):
    # the fingerprint takes one charpoly per conjugacy class; compare it with
    # the charpoly of every element matrix sigma^a phi^b
    tower = build_tower(BaseField(p, f, char), n)
    classes = tower.conjugacy_classes
    assert sorted(g for cls in classes for g in cls) == tower.group_elements()

    def power(M, k):
        out = np.eye(M.shape[0], dtype=np.int64)
        for _ in range(k):
            out = modrep.mm(out, M, p)
        return out

    for c in simple_classes(tower):
        expected = tuple(tuple(modrep.charpoly(modrep.mm(power(c.sigma, a),
                                                         power(c.phi, b), p), p))
                         for a, b in tower.group_elements())
        assert c.fingerprint == (c.dim, expected)


def test_pipeline_never_chops(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the pipeline called the reference chop")
    monkeypatch.setattr(modrep, "chop", forbidden)
    monkeypatch.setattr("wildprim.verify.regular_representation", forbidden)
    assert len(enumerate_primitive(Q2, 2).records) == 4
    assert len(list_representations(Q2, 2)) == 2


def test_pipeline_never_inverts(monkeypatch):
    # p = 5 takes unit-level coordinates above 1 and boundary tau > 0
    from wildprim.localring import RingElt

    def forbidden(self):
        raise AssertionError("the pipeline inverted a ring element")
    monkeypatch.setattr(RingElt, "inv", forbidden)
    assert len(enumerate_primitive(Q2, 2).records) == 4
    assert len(enumerate_primitive(Q3, 1).records) == 10
    assert len(enumerate_primitive(BaseField(5, 1, 0), 1).records) == 26


def test_charp_pipeline_builds_no_ring_element(monkeypatch):
    # equal characteristic runs on Laurent dicts; the valuation ring is char 0
    from wildprim.localring import RingElt

    def forbidden(self, *args, **kwargs):
        raise AssertionError("the char p pipeline built a RingElt")
    monkeypatch.setattr(RingElt, "__init__", forbidden)
    res = enumerate_primitive(F2T, 2, level_bound=5)
    assert res.tower.ring is None
    assert res.records and all(isinstance(v.rep, dict) for v in res.basis.vectors)


def test_one_filtration_index_per_enumeration(monkeypatch):
    # one call, on the stack of every class's subspaces
    from wildprim import classmod, enumerator
    real = classmod.filtration_index
    calls = []

    def counted(basis, stack):
        calls.append(stack.shape)
        return real(basis, stack)
    # both names a record could reach it by
    monkeypatch.setattr(enumerator, "filtration_index", counted)
    monkeypatch.setattr(classmod, "filtration_index", counted)
    res = enumerate_primitive(Q2, 2)
    assert len(res.records) == 4
    assert calls == [(4, 2, res.basis.dim)]


def test_class_data_is_derived_once_per_class(monkeypatch):
    # one closure descriptor per class of dimension n, one isotypic part per
    # distinct characteristic polynomial of sigma among those classes (at
    # Q_2 n=3 four classes share three), all from one table of the powers
    # of sigma on the class module, and no restriction of the action to an
    # image: restrict_action runs only inside isotypic_part and the class
    # construction
    from wildprim import enumerator
    closures, parts, outside, depth, tables = [], [], [], [], []

    def wrap(fn, log=None):
        def inner(*args, **kwargs):
            if log is not None:
                log.append(1)
            depth.append(1)
            try:
                return fn(*args, **kwargs)
            finally:
                depth.pop()
        return inner

    real_restrict = modrep.restrict_action

    def restrict(*args, **kwargs):
        if not depth:
            outside.append(1)
        return real_restrict(*args, **kwargs)
    monkeypatch.setattr(enumerator, "closure_descriptor",
                        wrap(enumerator.closure_descriptor, closures))
    monkeypatch.setattr(modrep, "isotypic_part", wrap(modrep.isotypic_part, parts))
    monkeypatch.setattr(enumerator, "simple_classes", wrap(enumerator.simple_classes))
    monkeypatch.setattr(modrep, "restrict_action", restrict)
    real_powers = modrep.matrix_powers
    monkeypatch.setattr(modrep, "matrix_powers",
                        lambda M, *args: tables.append(len(M)) or real_powers(M, *args))
    res = enumerate_primitive(Q2, 3)
    degree_classes = [c for c in res.classes if c.dim == 3]
    assert len(closures) == len(degree_classes) == 4
    assert len(parts) == len({tuple(modrep.charpoly(c.sigma, 2)) for c in degree_classes}) == 3
    assert outside == []
    assert tables.count(res.basis.dim) == 1


@pytest.mark.parametrize("base,n,bound", [
    (Q2, 2, None), (Q3, 2, None), (BaseField(2, 3, 0), 2, None),
    (BaseField(2, 2, 2), 2, 5),
], ids=["Q_2,n=2", "Q_3,n=2", "Q_8,n=2", "F_4((t)),n=2,B=5"])
def test_closure_is_a_class_invariant(base, n, bound):
    # the descriptor of each record's own action, restricted from V to its
    # rows, is the class descriptor the record carries
    from wildprim.enumerator import closure_descriptor
    res = enumerate_primitive(base, n, level_bound=bound)
    tower = res.tower
    V = [res.matrices[tower.sigma], res.matrices[tower.phi]]
    assert res.records
    for r in res.records:
        action = modrep.restrict_action(V, np.array(r.d_basis, dtype=np.int64), tower.p)
        assert closure_descriptor(tower, *action, res.omega) == (
            r.closure_image_order, r.closure_order, r.closure_label)


@pytest.mark.parametrize("base,n,bound", [
    (Q2, 3, None), (Q3, 2, None), (BaseField(7, 1, 0), 1, None),
    (BaseField(2, 2, 2), 2, 5),
], ids=["Q_2,n=3", "Q_3,n=2", "Q_7,n=1", "F_4((t)),n=2,B=5"])
def test_closure_order_is_that_of_the_twisted_dual(monkeypatch, base, n, bound):
    # the image order is that of the group generated by omega(g) rho(g)^-T,
    # searched here directly; the pipeline itself inverts no matrix
    from wildprim.enumerator import closure_descriptor
    inv_mat = modrep.inv_mat

    def forbidden(*args, **kwargs):
        raise AssertionError("the pipeline inverted a matrix")
    monkeypatch.setattr(modrep, "inv_mat", forbidden)
    res = enumerate_primitive(base, n, level_bound=bound)
    tower, p = res.tower, res.tower.p
    classes = [c for c in res.classes if c.dim == n]
    assert classes
    for c in classes:
        gens = [res.omega[g] * inv_mat(M, p).T % p
                for g, M in ((tower.sigma, c.sigma), (tower.phi, c.phi))]
        eye = np.eye(n, dtype=np.int64)
        seen, frontier = {eye.tobytes()}, [eye]
        while frontier:
            M = frontier.pop()
            for G in gens:
                nxt = G @ M % p
                if nxt.tobytes() not in seen:
                    seen.add(nxt.tobytes())
                    frontier.append(nxt)
        assert closure_descriptor(tower, c.sigma, c.phi, res.omega)[:2] == (
            len(seen), p ** n * len(seen))


def test_catalog_deterministic_across_seeds():
    a = enumerate_primitive(Q2, 2, seed=0, use_cache=False)
    b = enumerate_primitive(Q2, 2, seed=3, use_cache=False)
    assert [r.to_dict() for r in a.records] == [r.to_dict() for r in b.records]


def test_records_in_bijection_with_submodules(q2n2):
    keys = {tuple(tuple(row) for row in r.d_basis) for r in q2n2.records}
    assert len(keys) == len(q2n2.records)


def test_regular_representation_is_faithful_permutation():
    tower = build_tower(Q2, 2)
    Ms, Mp = regular_representation(tower)
    assert Ms.sum() == 18 and Mp.sum() == 18
    eye = np.eye(18, dtype=np.int64)
    assert np.array_equal(modrep._mat_pow(Ms, 3, 2), eye)
    assert np.array_equal(modrep._mat_pow(Mp, 6, 2), eye)
    lhs = modrep.mm(modrep.mm(Mp, Ms, 2), modrep.inv_mat(Mp, 2), 2)
    assert np.array_equal(lhs, modrep.mm(Ms, Ms, 2))


def test_chop_regular_accounts_for_group_order():
    tower = build_tower(Q2, 2)
    classes = simple_classes(tower)
    total = sum(c.dim * c.multiplicity_in_regular for c in classes)
    assert total == tower.group_order


def test_unramified_record_is_boundary_line(q2n2_unused=None):
    res = enumerate_primitive(Q2, 1, use_cache=False)
    unram = next(r for r in res.records if r.unramified)
    assert unram.level == 0
    assert unram.filtration_index == res.basis.boundary_level
    assert unram.different_exponent == 0 and unram.ram_index == 1


def test_q5_quintics_classical_count_and_mass():
    from fractions import Fraction
    from wildprim.verify import mass_check
    res = enumerate_primitive(BaseField(5, 1, 0), 1, use_cache=False)
    assert len(res.records) == 26  # p^2 + 1 isomorphism classes
    assert sum(r.unramified for r in res.records) == 1
    # 1 unramified + p ramified cyclic quintics
    assert sum(r.closure_order == 5 for r in res.records) == 6
    assert mass_check(BaseField(5, 1, 0)) == Fraction(5)


@pytest.mark.parametrize("p", [7, 11, 13, 17, 19, 23, pytest.param(29, marks=pytest.mark.slow),
                               pytest.param(31, marks=pytest.mark.slow)])
def test_serre_mass_equals_p(p):
    from wildprim.verify import mass_check
    assert mass_check(BaseField(p, 1, 0)) == p


def test_q8_quartics_structure_counts():
    # base residue cardinality 8 = -1 mod 3: same shape of theory as Q_2.
    # Hom dims are f * dim S = 6; the two classes have End degrees 2 and 1,
    # giving (2^6-1)/3 = 21 and 2^6-1 = 63 parameters.
    from collections import Counter
    from wildprim.verify import mass_check, structure_checks
    res = enumerate_primitive(BaseField(2, 3, 0), 2, use_cache=False)
    assert len(res.records) == 84
    assert Counter(r.closure_order for r in res.records) == {12: 21, 24: 63}
    assert structure_checks(res).passed
    assert mass_check(BaseField(2, 3, 0)) == 2


def test_octic_levels_forced_by_inertia_eigenvalues():
    # Independent derivation of the octic invariants: a parameter D maps
    # injectively into the graded slice at its filtration index i, where
    # inertia acts F_2-linearly as multiplication by zeta^i (eigenvalues =
    # the Frobenius orbit of zeta^i).  Classes trivial on inertia need
    # 7 | i, so i = 7 and d = 21 - 7 = 14.  The two ramified classes have
    # inertia eigenvalue orbits {1,2,4} and {3,5,6} mod 7, restricting the
    # odd i < 14 to {1,9,11} resp. {3,5,13}; the 3-dimensional Hom space
    # meets those slices once each, so the 7 parameter lines split 4/2/1
    # by lowest slice.  Hence d-multisets {20^4,12^2,10} and {18^4,16^2,8}.
    from collections import defaultdict
    res = enumerate_primitive(Q2, 3, use_cache=False)
    by_class = defaultdict(list)
    for r in res.records:
        by_class[(r.rep_id, r.end_degree)].append(
            (r.filtration_index, r.different_exponent))
    unramified_type = sorted(sorted(v) for (_, d), v in by_class.items() if d == 3)
    ramified_type = sorted(sorted(v) for (_, d), v in by_class.items() if d == 1)
    assert unramified_type == [[(7, 14)], [(7, 14)]]
    assert ramified_type == [
        [(1, 20), (1, 20), (1, 20), (1, 20), (9, 12), (9, 12), (11, 10)],
        [(3, 18), (3, 18), (3, 18), (3, 18), (5, 16), (5, 16), (13, 8)],
    ]

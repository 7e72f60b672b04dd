import dataclasses
from fractions import Fraction

import pytest

from wildprim import modrep
from wildprim.enumerator import enumerate_primitive, level_divisibility_holds
from wildprim.tower import BaseField
from wildprim.verify import (
    VerificationReport, brute_oracle_check, cross_checks, divisibility_checks,
    duality_checks, mass_check, precision_stability_check, quadratic_catalog_check,
    quadratic_different_oracle, quadratic_record_representative,
    structure_checks,
)

Q2 = BaseField(2, 1, 0)
Q3 = BaseField(3, 1, 0)
Q4 = BaseField(2, 2, 0)
F2T = BaseField(2, 1, 2)
Q9 = BaseField(3, 2, 0)
F4T = BaseField(2, 2, 2)


def test_oracle_values():
    assert quadratic_different_oracle(2) == 3
    assert quadratic_different_oracle(-1) == 2
    assert quadratic_different_oracle(5) == 0
    assert quadratic_different_oracle(3) == 2
    assert quadratic_different_oracle(15) == 2
    assert quadratic_different_oracle(6) == 3
    assert quadratic_different_oracle(-2) == 3


def test_oracle_rejects_squares():
    for d in (1, 9, 4, 16, 17):
        with pytest.raises(ValueError):
            quadratic_different_oracle(d)


def test_quadratic_catalog_against_oracle():
    report = quadratic_catalog_check()
    assert report.passed, report.render()


def test_record_representatives_are_the_seven_classes():
    res = enumerate_primitive(Q2, 1, use_cache=False)
    reps = sorted(quadratic_record_representative(res, r) for r in res.records)
    assert reps == [2, 3, 5, 6, 10, 15, 30]


def test_mass_q2_exact():
    assert mass_check(Q2) == Fraction(2)
    with pytest.raises(TypeError):  # the degree is always the base's p
        mass_check(Q2, 2)


def test_mass_q4_exact():
    assert mass_check(Q4) == Fraction(2)


def test_mass_q3_exact():
    assert mass_check(Q3) == Fraction(3)


def test_mass_charp_partial_sum():
    # partial sums grow toward p as the level bound increases
    m1 = mass_check(F2T, level_bound=1)
    m3 = mass_check(F2T, level_bound=3)
    m5 = mass_check(F2T, level_bound=5)
    assert m1 == Fraction(1)
    assert m3 == Fraction(3, 2)
    assert m5 == Fraction(7, 4)
    assert m1 < m3 < m5 < 2


@pytest.mark.parametrize("base,n,bound", [
    (Q2, 1, None), (Q2, 2, None), (Q3, 1, None),
    (F2T, 1, 5), (F4T, 1, 3),
])
def test_structure_checks_pass(base, n, bound):
    res = enumerate_primitive(base, n, level_bound=bound, use_cache=False)
    report = structure_checks(res)
    assert report.passed, report.render()


def test_structure_checks_condense_once_per_polynomial(monkeypatch):
    # one isotypic part per distinct characteristic polynomial of sigma
    # over all simple classes (at Q_3 n=1 four classes share two), from
    # one table of the powers of sigma on the class module
    res = enumerate_primitive(Q3, 1)
    calls, tables = [], []
    real = modrep.isotypic_part
    monkeypatch.setattr(modrep, "isotypic_part",
                        lambda *args: calls.append(1) or real(*args))
    real_powers = modrep.matrix_powers
    monkeypatch.setattr(modrep, "matrix_powers",
                        lambda M, *args: tables.append(len(M)) or real_powers(M, *args))
    assert structure_checks(res).passed
    polys = {tuple(modrep.charpoly(c.sigma, 3)) for c in res.classes}
    assert len(calls) == len(polys) == 2 and len(res.classes) == 4
    assert tables == [res.basis.dim]


@pytest.mark.slow
def test_structure_and_duality_checks_pass_at_q2_n4(q2n4):
    # the n = 4 regime's oracles: the dimension of the class module, the
    # Hom multiplicity of every simple class (8- and 16-dim ones among them)
    # and the twisted dual of each of the 53 parameters
    assert len(q2n4.records) == 53
    for report in (structure_checks(q2n4), duality_checks(q2n4)):
        assert report.passed, report.render()


def test_structure_dimension_examples():
    res = enumerate_primitive(Q2, 1, use_cache=False)
    assert res.basis.dim == 3
    res2 = enumerate_primitive(Q2, 2, use_cache=False)
    assert res2.basis.dim == 20


@pytest.mark.parametrize("base,n,bound", [
    (Q2, 1, None), (Q2, 2, None), (F2T, 1, 3), (F2T, 2, 1), (Q3, 1, None),
    (Q9, 1, None),
])
def test_cross_checks_pass(base, n, bound):
    res = enumerate_primitive(base, n, level_bound=bound, use_cache=False)
    report = cross_checks(res)
    assert report.passed, report.render()


def test_brute_oracle_runs_where_feasible():
    res = enumerate_primitive(F2T, 1, level_bound=3, use_cache=False)
    rep = brute_oracle_check(res)
    assert rep.passed and "skipped" not in str(rep.checks[0].measured)
    res_big = enumerate_primitive(Q2, 2, use_cache=False)
    rep_big = brute_oracle_check(res_big)
    assert rep_big.passed and "skipped" in str(rep_big.checks[0].measured)


def test_duality_for_quartics():
    res = enumerate_primitive(Q2, 2, use_cache=False)
    report = duality_checks(res)
    assert report.passed, report.render()
    assert len(report.checks) == 4


@pytest.mark.parametrize("base,n", [(Q2, 2), (Q3, 1)])
def test_duality_needs_exactly_one_matching_class(base, n):
    # each record's twisted dual matches one class of dimension n: without
    # that class, or with it listed twice, exactly its records fail
    res = enumerate_primitive(base, n)
    names = [c.name for c in duality_checks(res).checks]
    matched = []
    for cls in (c for c in res.classes if c.dim == n):
        failed = []
        for classes in ([c for c in res.classes if c is not cls], res.classes + [cls]):
            report = duality_checks(dataclasses.replace(res, classes=classes))
            failed.append([c.name for c in report.checks if not c.passed])
        assert failed[0] and failed[0] == failed[1]
        matched += failed[0]
    assert sorted(matched) == sorted(names)


def test_precision_stability_quartics():
    res = enumerate_primitive(Q2, 2, use_cache=False)
    report = precision_stability_check(res)
    assert report.passed, report.render()


def test_level_divisibility_rule():
    # even levels are allowed only at n = 1: level 0, and in char 0 the
    # tres ramifiee level p * c = 2 of Q_2
    for base, n, bound, even_ok in ((Q2, 1, None, {0, 2}), (Q2, 2, None, set()),
                                    (F2T, 1, 4, {0})):
        res = enumerate_primitive(base, n, level_bound=bound)
        for delta in range(9):
            assert level_divisibility_holds(res.tower, res.basis, delta) == (
                delta % 2 == 1 or delta in even_ok)
    res = enumerate_primitive(Q2, 2)
    assert divisibility_checks(res).passed
    res.records[0].level = 4
    failed = [c.name for c in divisibility_checks(res).checks if not c.passed]
    assert failed == ["level-divisibility[Q_2,n=2:#0]"]


def test_report_aggregates_failures():
    report = VerificationReport()
    report.add("a", 1, 1)
    report.add("b", 2, 3)
    assert not report.passed
    assert "[FAIL] b" in report.render()
    assert report.to_dict()["passed"] is False

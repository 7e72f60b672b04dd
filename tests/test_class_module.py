import functools
import hashlib
import random

import numpy as np
import pytest

from laurent import artin_schreier_image, laurent_sum, random_laurent
from ringref import val_at_most
from wildprim import classmod, modrep
from wildprim.classmod import (
    artinschreier_basis, filtration_index,
    galois_matrices, kummer_basis, level_of, omega_character, reduce_class,
)
from wildprim.errors import InvariantViolation, PrecisionExhausted
from wildprim.localring import RingElt
from wildprim.tower import BaseField, build_tower

Q2 = BaseField(2, 1, 0)
Q3 = BaseField(3, 1, 0)
F2T = BaseField(2, 1, 2)
F4T = BaseField(2, 2, 2)


@pytest.fixture(scope="module")
def q2n1():
    t = build_tower(Q2, 1)
    return t, kummer_basis(t)


@pytest.fixture(scope="module")
def q2n2():
    t = build_tower(Q2, 2)
    return t, kummer_basis(t)


def test_q2_n1_basis_is_2_3_5(q2n1):
    t, basis = q2n1
    assert basis.dim == 3
    kinds = [(v.kind, v.level) for v in basis.vectors]
    assert kinds == [("uniformizer-class", 0), ("unit-level", 1), ("boundary", 2)]
    reps = [int(v.rep.data[0, 0]) for v in basis.vectors]
    assert reps == [2, 3, 5]


def test_q2_n2_dimension_20(q2n2):
    _, basis = q2n2
    assert basis.dim == 20


def test_q2_n3_dimension_149():
    t = build_tower(Q2, 3)
    assert kummer_basis(t).dim == 149


def test_reduce_17_is_trivial(q2n1):
    t, basis = q2n1
    coords = reduce_class(basis, RingElt.from_int(t.ring, 17))
    assert not coords.any()


def test_reduce_5_is_boundary(q2n1):
    t, basis = q2n1
    coords = reduce_class(basis, RingElt.from_int(t.ring, 5))
    expect = np.zeros(3, dtype=np.int64)
    expect[basis.position("boundary", 2)] = 1
    assert np.array_equal(coords, expect)


def test_reduce_2_is_uniformizer(q2n1):
    t, basis = q2n1
    coords = reduce_class(basis, RingElt.from_int(t.ring, 2))
    expect = np.zeros(3, dtype=np.int64)
    expect[basis.position("uniformizer-class", 0)] = 1
    assert np.array_equal(coords, expect)


def test_reduce_small_integers_match_classical_squares(q2n1):
    t, basis = q2n1
    # odd integers that are squares in Q_2 are exactly those = 1 mod 8
    for k in (1, 9, 17, 25, 33, 41):
        assert not reduce_class(basis, RingElt.from_int(t.ring, k)).any()
    for k in (3, 5, 7, 11, 13, 15):
        assert reduce_class(basis, RingElt.from_int(t.ring, k)).any()


def test_reduce_basis_reps_give_unit_vectors(q2n2):
    _, basis = q2n2
    for i, vec in enumerate(basis.vectors):
        coords = reduce_class(basis, vec.rep)
        expect = np.zeros(basis.dim, dtype=np.int64)
        expect[i] = 1
        assert np.array_equal(coords, expect), (i, vec.kind, vec.level)


def rand_unit(tower, rng):
    ring = tower.ring
    data = np.array([[rng.randrange(ring.pm) for _ in range(ring.fprime)]
                     for _ in range(ring.e)])
    x = RingElt(ring, data)
    if x.residue().is_zero():
        data[0, 0] = 1
        x = RingElt(ring, data)
    return x


def rand_elt_charp(tower, rng, span=6):
    return random_laurent(tower.residue, rng, -span, 3)


def test_homomorphism_and_kernel_char0(q2n2):
    t, basis = q2n2
    rng = random.Random(2)
    for _ in range(25):
        x, y = rand_unit(t, rng), rand_unit(t, rng)
        rx, ry = reduce_class(basis, x), reduce_class(basis, y)
        assert np.array_equal(reduce_class(basis, x * y), (rx + ry) % 2)
        assert not reduce_class(basis, (x * y).pth_power()).any()


def test_filtration_adaptation_char0(q2n2):
    t, basis = q2n2
    rng = random.Random(3)
    levels = basis.levels()
    for i in (1, 3, 5):
        for _ in range(6):
            u = RingElt.one(t.ring) + RingElt.uniformizer(t.ring, i) * rand_unit(t, rng)
            coords = reduce_class(basis, u)
            support = np.flatnonzero(coords)
            assert all(levels[s] >= i for s in support)


def test_galois_matrices_relations_q2n2(q2n2):
    t, basis = q2n2
    mats = galois_matrices(basis)
    Ms, Mp = mats[t.sigma], mats[t.phi]
    p = t.p
    eye = np.eye(basis.dim, dtype=np.int64)
    assert np.array_equal(modrep._mat_pow(Ms, t.e, p), eye)
    assert np.array_equal(modrep._mat_pow(Mp, t.s * t.e, p), eye)
    lhs = modrep.mm(modrep.mm(Mp, Ms, p), modrep.inv_mat(Mp, p), p)
    rhs = modrep._mat_pow(Ms, t.base.q, p)
    assert np.array_equal(lhs, rhs)
    # the generated matrix group has the full group order
    seen = {eye.tobytes()}
    frontier = [eye]
    while frontier:
        M = frontier.pop()
        for G in (Ms, Mp):
            nxt = modrep.mm(G, M, p)
            if nxt.tobytes() not in seen:
                seen.add(nxt.tobytes())
                frontier.append(nxt)
    assert len(seen) == t.group_order


def test_galois_matrices_refuse_an_invertible_phi_breaking_a_relation(q2n2, monkeypatch):
    # phi's matrix with columns 1 and 2 swapped keeps full rank, so a rank
    # check passes it; phi sigma = sigma^q phi no longer holds
    t, basis = q2n2
    reduce = classmod.reduce_class
    calls = []

    def swapped(basis, xs):
        coords = reduce(basis, xs)
        calls.append(xs)
        if len(calls) == 2:  # phi's images come after sigma's
            coords[[1, 2]] = coords[[2, 1]]
        return coords

    monkeypatch.setattr(classmod, "reduce_class", swapped)
    with pytest.raises(InvariantViolation, match="break a relation"):
        galois_matrices(basis)
    assert len(calls) == 2


def test_galois_matrices_trivial_at_n1(q2n1):
    t, basis = q2n1
    mats = galois_matrices(basis)
    for M in mats.values():
        assert np.array_equal(M, np.eye(3, dtype=np.int64))


def test_sigma_matrix_preserves_filtration(q2n2):
    t, basis = q2n2
    Ms = galois_matrices(basis)[t.sigma]
    levels = basis.levels()
    for col in range(basis.dim):
        for row in np.flatnonzero(Ms[:, col]):
            assert levels[row] >= levels[col]


def test_omega_trivial_for_p2(q2n2):
    t, basis = q2n2
    mats = galois_matrices(basis)
    om = omega_character(basis, mats)
    assert set(om.values()) == {1}


def test_omega_for_q3_n1_is_inversion():
    # hand computation: both generators act on the boundary line by -1
    t = build_tower(Q3, 1)
    basis = kummer_basis(t)
    assert basis.dim == 6
    mats = galois_matrices(basis)
    om = omega_character(basis, mats)
    assert om[t.sigma] == 2 and om[t.phi] == 2


def _one(basis, rows):
    """filtration_index of one subspace, as a stack of one, in Python types."""
    i_star, straddle = filtration_index(basis, rows[None])
    assert i_star.shape == straddle.shape == (1,)
    return int(i_star[0]), bool(straddle[0])


def test_filtration_index_of_boundary_and_uniformizer(q2n1):
    t, basis = q2n1
    bd = np.zeros((1, 3), dtype=np.int64)
    bd[0, basis.position("boundary", 2)] = 1
    assert _one(basis, bd) == (2, False)
    assert level_of(basis, _one(basis, bd)[0]) == 0
    uni = np.zeros((1, 3), dtype=np.int64)
    uni[0, basis.position("uniformizer-class", 0)] = 1
    assert _one(basis, uni) == (0, False)
    assert level_of(basis, _one(basis, uni)[0]) == 2
    # both lines in one stack
    i_star, straddle = filtration_index(basis, np.stack([bd, uni]))
    assert i_star.tolist() == [2, 0] and straddle.tolist() == [False, False]


# ---- equal characteristic ----

@pytest.mark.parametrize("base, n, code", [
    (Q2, 2, 32), (Q3, 2, 9), (BaseField(5, 1, 0), 1, 25),
    (BaseField(7, 1, 0), 1, 343), (BaseField(2, 3, 0), 2, 32768),
    (BaseField(7, 2, 0), 1, 16807)])
def test_boundary_coefficient_is_first_outside_image(base, n, code):
    # the code of the first residue element outside the image of
    # a -> a^p + c a, as an exhaustive scan in value order finds it
    assert kummer_basis(build_tower(base, n)).aux["b0"].code() == code


@pytest.mark.parametrize("base, n, code", [
    (F2T, 2, 32), (F4T, 1, 2), (BaseField(3, 1, 3), 1, 2),
    (BaseField(5, 1, 5), 1, 4)])
def test_constant_is_first_of_trace_one(base, n, code):
    basis = artinschreier_basis(build_tower(base, n), 1)
    assert basis.aux["constant"].code() == code


def test_as_basis_dimensions():
    t = build_tower(F2T, 1)
    assert artinschreier_basis(t, 5).dim == 4
    assert artinschreier_basis(t, 1).dim == 2
    t4 = build_tower(F4T, 1)
    assert artinschreier_basis(t4, 1).dim == 3


def test_as_basis_lists_constant_first():
    t = build_tower(F2T, 1)
    basis = artinschreier_basis(t, 5)
    assert [(v.kind, v.level) for v in basis.vectors] == [
        ("constant", 0), ("pole-level", 1), ("pole-level", 3), ("pole-level", 5)]


def test_reduce_t_inverse_square():
    t = build_tower(F2T, 1)
    basis = artinschreier_basis(t, 5)
    coords = reduce_class(basis, {-2: t.residue.one})
    expect = np.zeros(4, dtype=np.int64)
    expect[basis.position("pole-level", 1)] = 1
    assert np.array_equal(coords, expect)


def test_reduce_positive_tail_trivial():
    t = build_tower(F2T, 1)
    basis = artinschreier_basis(t, 5)
    assert not reduce_class(basis, {3: t.residue.one}).any()


def test_reduce_constant_is_trace():
    t = build_tower(F4T, 1)
    basis = artinschreier_basis(t, 1)
    F = t.residue
    from wildprim.finitefield import abs_trace
    for code in range(F.order):
        a = F.from_code(code)
        coords = reduce_class(basis, {} if a.is_zero() else {0: a})
        assert coords[basis.position("constant", 0)] == abs_trace(a)


def test_homomorphism_and_kernel_charp():
    t = build_tower(F2T, 2)
    basis = artinschreier_basis(t, 7)
    rng = random.Random(4)
    for _ in range(40):
        x, y = rand_elt_charp(t, rng), rand_elt_charp(t, rng)
        rx, ry = reduce_class(basis, x), reduce_class(basis, y)
        assert np.array_equal(reduce_class(basis, laurent_sum(x, y)), (rx + ry) % 2)
        assert not reduce_class(basis, artin_schreier_image(x, 2)).any()


def test_reduce_charp_basis_reps_unit_vectors():
    t = build_tower(F2T, 2)
    basis = artinschreier_basis(t, 5)
    for i, vec in enumerate(basis.vectors):
        coords = reduce_class(basis, vec.rep)
        expect = np.zeros(basis.dim, dtype=np.int64)
        expect[i] = 1
        assert np.array_equal(coords, expect)


def test_galois_matrices_relations_charp():
    t = build_tower(F2T, 2)
    basis = artinschreier_basis(t, 5)
    mats = galois_matrices(basis)
    Ms, Mp = mats[t.sigma], mats[t.phi]
    eye = np.eye(basis.dim, dtype=np.int64)
    assert np.array_equal(modrep._mat_pow(Ms, t.e, 2), eye)
    assert np.array_equal(modrep._mat_pow(Mp, t.s * t.e, 2), eye)
    lhs = modrep.mm(modrep.mm(Mp, Ms, 2), modrep.inv_mat(Mp, 2), 2)
    assert np.array_equal(lhs, modrep._mat_pow(Ms, 2, 2))


def class_representative(basis, coords):
    """A representative of the class with the given coordinates (char 0)."""
    coords = np.asarray(coords, dtype=np.int64) % basis.tower.p
    out = RingElt.one(basis.tower.ring)
    for c, vec in zip(coords, basis.vectors):
        if c:
            out = out * vec.rep ** int(c)
    return out


def test_class_representative_roundtrip(q2n1):
    t, basis = q2n1
    rng = random.Random(9)
    for _ in range(8):
        coords = np.array([rng.randrange(2) for _ in range(3)], dtype=np.int64)
        rep = class_representative(basis, coords)
        assert np.array_equal(reduce_class(basis, rep), coords)


def test_filtration_straddle_flag(q2n1):
    t, basis = q2n1
    # a non-stable plane mixing the uniformizer class and the boundary
    rows = np.zeros((2, 3), dtype=np.int64)
    rows[0, basis.position("uniformizer-class", 0)] = 1
    rows[1, basis.position("boundary", 2)] = 1
    assert _one(basis, rows) == (0, True)


def _filtration_index_by_kernel(basis, rows):
    """filtration_index as the kernel of the meet with the deeper span."""
    p = basis.tower.p
    rows = modrep.as_fp(rows, p)
    levels = basis.levels()
    support = np.flatnonzero(np.any(rows, axis=0))
    if support.size == 0:
        raise ValueError("the zero subspace has no filtration index")
    if basis.char == 0:
        i_star = int(levels[support].min())
        deeper = np.flatnonzero(levels >= i_star + 1)
    else:
        i_star = -int(levels[support].max())
        deeper = np.flatnonzero(levels <= -i_star - 1)
    keep = np.setdiff1d(np.arange(basis.dim), deeper)
    return i_star, modrep.kernel(rows[:, keep].T, p).shape[0] > 0


@pytest.mark.parametrize("base,n,bound", [
    (Q2, 2, None), (Q3, 1, None), (F4T, 1, 7), (BaseField(3, 1, 3), 1, 8),
], ids=["Q_2,n=2", "Q_3,n=1", "F_4((t)),n=1,B=7", "F_3((t)),n=1,B=8"])
def test_filtration_index_matches_the_kernel_reference(base, n, bound):
    t = build_tower(base, n)
    basis = kummer_basis(t) if base.char == 0 else artinschreier_basis(t, bound)
    p = t.p
    levels = basis.levels()
    rng = random.Random(11)
    straddles = set()
    for _ in range(200):
        # rows supported on a random window of levels: a one-level window
        # never straddles in one row, a wide one often does in several
        lo, hi = sorted(rng.sample(sorted(set(levels.tolist())), 2))
        if rng.random() < 0.4:
            hi = lo
        cols = np.flatnonzero((levels >= lo) & (levels <= hi))
        rows = np.zeros((rng.randrange(1, 4), basis.dim), dtype=np.int64)
        rows[:, cols] = [[rng.randrange(p) for _ in cols] for _ in rows]
        if not rows.any():
            continue
        got = _one(basis, rows)
        assert got == _filtration_index_by_kernel(basis, rows)
        straddles.add(got[1])
    assert straddles == {False, True}
    for k in (1, 3):
        with pytest.raises(ValueError, match="zero subspace"):
            filtration_index(basis, np.zeros((1, k, basis.dim), dtype=np.int64))
        # one zero subspace in a stack is refused too
        stack = np.zeros((2, k, basis.dim), dtype=np.int64)
        stack[0, 0, 0] = 1
        with pytest.raises(ValueError, match="zero subspace"):
            filtration_index(basis, stack)


@pytest.mark.parametrize("base,n,bound", [
    (Q2, 2, None), (Q3, 1, None), (F4T, 1, 7), (BaseField(3, 1, 3), 1, 8),
], ids=["Q_2,n=2", "Q_3,n=1", "F_4((t)),n=1,B=7", "F_3((t)),n=1,B=8"])
def test_filtration_index_of_a_stack_matches_its_members(base, n, bound):
    # a stack mixing subspaces of different levels, each extreme level with
    # its own number of columns, some straddling and some not, gives the
    # results of its members checked one at a time
    t = build_tower(base, n)
    basis = kummer_basis(t) if base.char == 0 else artinschreier_basis(t, bound)
    p = t.p
    levels = basis.levels()
    distinct = sorted(set(levels.tolist()))
    rng = random.Random(5)
    stack = np.zeros((120, 2, basis.dim), dtype=np.int64)
    for rows in stack:
        lo, hi = sorted(rng.sample(distinct, 2))
        cols = np.flatnonzero((levels >= lo) & (levels <= (lo if rng.random() < 0.5 else hi)))
        while not rows.any():
            rows[:, cols] = [[rng.randrange(p) for _ in cols] for _ in rows]
    i_star, straddle = filtration_index(basis, stack)
    members = [_one(basis, rows) for rows in stack]
    assert list(zip(i_star.tolist(), straddle.tolist())) == members
    assert len({i for i, _ in members}) > 2 and {s for _, s in members} == {False, True}


def test_reduce_charp_pole_beyond_bound_raises():
    from wildprim.errors import InvariantViolation
    t = build_tower(F2T, 1)
    basis = artinschreier_basis(t, 3)
    with pytest.raises(InvariantViolation):
        reduce_class(basis, {-5: t.residue.one})


def test_homomorphism_and_kernel_p3():
    t = build_tower(Q3, 1)
    basis = kummer_basis(t)
    rng = random.Random(12)
    for _ in range(100):
        x, y = rand_unit(t, rng), rand_unit(t, rng)
        rx, ry = reduce_class(basis, x), reduce_class(basis, y)
        assert np.array_equal(reduce_class(basis, x * y), (rx + ry) % 3)
        cube = x.pth_power()
        assert not reduce_class(basis, cube).any()


def test_homomorphism_and_kernel_charp_p3():
    base = BaseField(3, 1, 3)
    t = build_tower(base, 1)
    basis = artinschreier_basis(t, 4)
    rng = random.Random(13)
    for _ in range(100):
        x, y = rand_elt_charp(t, rng, span=4), rand_elt_charp(t, rng, span=4)
        rx, ry = reduce_class(basis, x), reduce_class(basis, y)
        assert np.array_equal(reduce_class(basis, laurent_sum(x, y)), (rx + ry) % 3)
        assert not reduce_class(basis, artin_schreier_image(x, 3)).any()


@functools.cache
def _inverse_rep(basis, idx):
    return basis.vectors[idx].rep.inv()


def _reference_reduce_kummer(basis, x):
    """Class reduction by division: each strip multiplies by the inverse of
    the basis representatives it records, or of a p-th power."""
    from wildprim.errors import InvariantViolation
    from wildprim.finitefield import FFElt, pth_root
    tower = basis.tower
    ring, p, F = tower.ring, tower.p, tower.residue
    bl, c, b0 = basis.boundary_level, basis.c_index, basis.aux["b0"]
    one = RingElt.one(ring)
    coords = np.zeros(basis.dim, dtype=np.int64)
    v = x.val()
    coords[basis.position("uniformizer-class", 0)] = v % p
    u = x.divide_uniformizer_power(v)
    u = u * RingElt.teichmuller(ring, u.residue().inverse())
    while True:
        w = u - one
        lv = val_at_most(w, bl)
        if lv is None:
            return coords
        a = w.divide_uniformizer_power(lv).residue()
        strip = one
        if lv == bl:
            for tau in range(p):
                rhs = np.array((a - tau * b0).coeffs, dtype=np.int64)
                try:
                    sol = FFElt(F, modrep.solve(basis.aux["as_matrix"], rhs, p))
                except ValueError:
                    continue
                break
            else:
                raise InvariantViolation("boundary cokernel must have order p")
            if tau:
                coords[basis.position("boundary", bl)] = tau
                strip = _inverse_rep(basis, basis.position("boundary", bl)) ** tau
            if not sol.is_zero():
                strip = strip * (one + RingElt.monomial(ring, c, sol)).pth_power().inv()
        elif lv % p == 0:
            strip = (one + RingElt.monomial(ring, lv // p, pth_root(a))).pth_power().inv()
        else:
            for j, cj in enumerate(a.coeffs):
                if cj:
                    coords[basis.position("unit-level", lv, j)] = cj
                    strip = strip * _inverse_rep(basis, basis.position("unit-level", lv, j)) ** cj
        u = u * strip


@pytest.mark.parametrize("base, n", [(Q2, 2), (Q3, 1), (BaseField(5, 1, 0), 1),
                                     (BaseField(3, 2, 0), 1), (BaseField(7, 2, 0), 1)])
def test_reduction_matches_inverse_based_reference(base, n):
    tower = build_tower(base, n)
    basis = kummer_basis(tower)
    for g, M in galois_matrices(basis).items():
        for idx, vec in enumerate(basis.vectors):
            image = _reference_reduce_kummer(basis, tower.apply(g, vec.rep))
            assert np.array_equal(M[:, idx], image)
    rng = random.Random(base.p * 10 + n)
    for _ in range(20):
        x = RingElt.uniformizer(tower.ring, rng.randrange(4)) * rand_unit(tower, rng)
        assert np.array_equal(reduce_class(basis, x), _reference_reduce_kummer(basis, x))


@pytest.mark.parametrize("base, n", [(Q2, 2), (Q3, 1), (BaseField(5, 1, 0), 1),
                                     (BaseField(3, 2, 0), 1), (BaseField(7, 2, 0), 1),
                                     (Q2, 3), (BaseField(2, 3, 0), 2)])
def test_stacked_reduction_matches_the_reference(base, n):
    # one reduce_class call on a stack: units and non-units, residues 1 and
    # random, and basis representatives
    tower = build_tower(base, n)
    basis = kummer_basis(tower)
    ring = tower.ring
    rng = random.Random(base.p * 100 + base.f * 10 + n)
    stack = [RingElt.uniformizer(ring, rng.randrange(4)) * rand_unit(tower, rng)
             for _ in range(6)]
    stack += [rng.choice(basis.vectors).rep for _ in range(2)]
    stack.append(RingElt.uniformizer(ring, 2) * rng.choice(basis.vectors).rep)
    stack.append(RingElt.monomial(ring, 0, tower.residue.from_code(2))
                 + RingElt.uniformizer(ring) * rand_unit(tower, rng))
    assert any(x.val() > 0 for x in stack)
    assert any(x.val() == 0 and x.residue() != tower.residue.one for x in stack)
    coords = reduce_class(basis, stack)
    assert coords.shape == (len(stack), basis.dim)
    for x, row in zip(stack, coords):
        assert np.array_equal(row, _reference_reduce_kummer(basis, x))
    assert reduce_class(basis, []).shape == (0, basis.dim)


def test_stacked_reduction_needs_every_window_past_the_boundary(q2n2):
    t, basis = q2n2
    ring = t.ring
    rng = random.Random(1)
    short = rand_unit(t, rng)
    stack = [rand_unit(t, rng) for _ in range(3)]
    reduce_class(basis, stack + [RingElt(ring, short.data, basis.boundary_level + 1)])
    with pytest.raises(PrecisionExhausted):
        reduce_class(basis, stack + [RingElt(ring, short.data, basis.boundary_level)])


# sha256 of the little-endian int64 bytes of the sigma and phi matrices;
# coordinates in the filtration-adapted basis are unique, so these do not
# depend on how the valuation ring is presented
MATRIX_HASHES = [
    (Q2, 3, "71708288d45d0eb82c63b350830b6889976ec2751feae7c58def5442498a3041",
     "0265ec64eee806a7cb6fdb6d0bd538d1aef20f805984fd281c834d936ded9259"),
    (Q3, 2, "8a72f505577a72ecdb6165553c18cec78735f17a0dab1cb5d14ef9ad4b40f3f9",
     "e14e868462632e6ac13002c492955f445ba38b99fa85bf9c00173b1d8c99a4ed"),
    (BaseField(2, 3, 0), 2, "ff8cfd7d41b0aefda2e66e394231bb347a2db844e8aba331d7e63c7dc9a9ec63",
     "ef667a332fbb3548d4eec083b137ee420010cfa5fa6455f100726778ec04286c"),
    (BaseField(7, 2, 0), 1, "e25664cb37d2087dd446025ba4e3b4ab071c53045acf87283bbd8c24c808943f",
     "6b646f5a8eb03ce8ea5c513cca87c0739b464e68a16a35441eefe8c6f9cb6837"),
]


@pytest.mark.parametrize("base, n, sigma_hash, phi_hash", MATRIX_HASHES,
                         ids=["Q2n3", "Q3n2", "Q8n2", "Q49n1"])
def test_galois_matrices_are_pinned(base, n, sigma_hash, phi_hash):
    tower = build_tower(base, n)
    M = galois_matrices(kummer_basis(tower))
    assert [hashlib.sha256(M[g].astype("<i8").tobytes()).hexdigest()
            for g in (tower.sigma, tower.phi)] == [sigma_hash, phi_hash]

import itertools
import random
import tracemalloc

import numpy as np
import pytest

from wildprim import gfpoly, modrep
from wildprim.classmod import artinschreier_basis, galois_matrices, kummer_basis
from wildprim.enumerator import enumerate_primitive, simple_classes
from wildprim.errors import InvariantViolation
from wildprim.modrep import (
    brute_feasible, brute_simple_submodules, charpoly, chop,
    enumerate_simple_submodules, hom_space, in_row_space, inv_mat,
    isotypic_part, kernel, poly_eval_matrix, rank, restrict_action, rref,
    rref_stack, solve, spin, spin_stack,
)
from wildprim.tower import BaseField, build_tower


def c3_regular_gens():
    # cyclic shift on F_2[C_3]
    M = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=np.int64)
    return [M]


def test_kernel_of_identity_is_zero():
    assert kernel(np.eye(4, dtype=np.int64), 2).shape[0] == 0


@pytest.mark.parametrize("p", [2, 3, 7, 61])
@pytest.mark.parametrize("width", [modrep.BLAS_WIDTH - 1, modrep.BLAS_WIDTH, 3 * modrep.BLAS_WIDTH])
def test_mm_is_the_int64_product_mod_p(p, width):
    rng = np.random.default_rng(p * width)
    B = rng.integers(0, p, (width, 5))
    for shape in [(width,), (4, width), (3, 4, width)]:
        A = rng.integers(0, p, shape)
        got = modrep.mm(A, B, p)
        assert got.dtype == np.int64
        assert np.array_equal(got, (A @ B) % p)
    # a vector on the right, and entries of either sign below p in size
    A = rng.integers(1 - p, p, (4, width))
    v = rng.integers(1 - p, p, width)
    assert np.array_equal(modrep.mm(A, v, p), (A @ v) % p)


def test_mm_refuses_an_inexact_float64_product():
    # width * (p - 1)^2 = 2^53 is past the float64 exactness bound
    p, width = (1 << 23) + 1, 128
    assert width >= modrep.BLAS_WIDTH and width * (p - 1) ** 2 == 1 << 53
    A = np.zeros((2, width), dtype=np.int64)
    B = np.zeros((width, 2), dtype=np.int64)
    with pytest.raises(InvariantViolation, match="not exact"):
        modrep.mm(A, B, p)
    # one column narrower the sums stay exact
    assert not modrep.mm(A[:, 1:], B[1:], p).any()
    # below the switch the product stays on int64 and never meets the bound
    assert not modrep.mm(A[:, :modrep.BLAS_WIDTH - 1], B[:modrep.BLAS_WIDTH - 1], p).any()


def test_mm_is_exact_at_the_float64_edge_with_maximal_entries():
    # every entry p - 1: the float64 sums reach 127 * 2^46, one column
    # short of the bound, and must come back exact through the int64 cast
    p, width = (1 << 23) + 1, 127
    assert width * (p - 1) ** 2 == 127 << 46 < 1 << 53
    A = np.full((3, width), p - 1, dtype=np.int64)
    B = np.full((width, 2), p - 1, dtype=np.int64)
    out = modrep.mm(A, B, p)
    assert out.dtype == np.int64
    assert np.array_equal(out, (A @ B) % p)
    assert (out == 127).all()  # (p - 1)^2 = 1 mod p


def test_mat_pow_is_the_repeated_product():
    rng = np.random.default_rng(5)
    M = rng.integers(0, 7, (5, 5))
    ref = np.eye(5, dtype=np.int64)
    for e in range(20):
        assert np.array_equal(modrep._mat_pow(M, e, 7), ref)
        ref = ref @ M % 7


def test_rank_all_ones():
    assert rank(np.ones((3, 3), dtype=np.int64), 2) == 1


def test_solve_random_invertible_by_substitution():
    rng = random.Random(0)
    for p in (2, 3):
        while True:
            A = np.array([[rng.randrange(p) for _ in range(20)] for _ in range(20)],
                         dtype=np.int64)
            if rank(A, p) == 20:
                break
        b = np.array([rng.randrange(p) for _ in range(20)], dtype=np.int64)
        x = solve(A, b, p)
        assert not np.any((A @ x - b) % p)


def test_solve_flags_inconsistent():
    A = np.array([[1, 1], [1, 1]], dtype=np.int64)
    with pytest.raises(ValueError):
        solve(A, np.array([0, 1]), 2)


def test_solve_columns_match_per_column_solves():
    rng = random.Random(4)
    for p in (2, 3, 7):
        A = np.array([[rng.randrange(p) for _ in range(9)] for _ in range(12)],
                     dtype=np.int64)
        B = A @ np.array([[rng.randrange(p) for _ in range(5)] for _ in range(9)]) % p
        X = solve(A, B, p)
        assert X.shape == (9, 5) and not np.any((A @ X - B) % p)
        for k in range(5):
            assert np.array_equal(X[:, k], solve(A, B[:, k], p))


def test_solve_flags_an_inconsistent_column():
    A = np.array([[1, 1], [1, 1]], dtype=np.int64)
    B = np.array([[0, 1, 1], [0, 1, 0]], dtype=np.int64)
    assert not np.any(solve(A, B[:, :2], 2)[:, 0])
    with pytest.raises(ValueError):
        solve(A, B, 2)


def test_inv_mat():
    rng = random.Random(1)
    A = np.array([[rng.randrange(3) for _ in range(6)] for _ in range(6)],
                 dtype=np.int64)
    A = (A + np.eye(6, dtype=np.int64)) % 3
    if rank(A, 3) == 6:
        B = inv_mat(A, 3)
        assert not np.any((A @ B) % 3 - np.eye(6, dtype=np.int64))


def test_spin_fixed_vector_under_identity():
    gens = [np.eye(3, dtype=np.int64)]
    rows = spin(gens, np.array([1, 1, 0]), 2)
    assert rows.shape == (1, 3)


def test_spin_orbit_sum_in_c3_regular():
    rows = spin(c3_regular_gens(), np.array([1, 1, 1]), 2)
    # the all-ones vector spans the trivial constituent
    assert rows.shape[0] == 1
    assert list(rows[0]) == [1, 1, 1]


def test_spin_of_nonfixed_vector_fills_module():
    rows = spin(c3_regular_gens(), np.array([1, 0, 0]), 2)
    assert rows.shape[0] == 3


def _limited_spin(gens, v, p, limit):
    """The brute scan's bounded spin: spin_stack of one seed at cap limit + 1."""
    rows, ranks = spin_stack(gens, np.array([v]), p, limit + 1)
    return rows[0, :ranks[0]]


def test_spin_with_a_limit():
    gens = c3_regular_gens()
    # [1, 1, 1] spins the trivial line, [1, 1, 0] the augmentation plane
    for v, size in (([1, 1, 1], 1), ([1, 1, 0], 2)):
        full = spin(gens, np.array(v), 2)
        assert full.shape[0] == size
        for limit in range(size, 3):
            assert np.array_equal(_limited_spin(gens, v, 2, limit), full)
    # [1, 0, 0] spins the whole module: a smaller limit stops it early
    for limit in (0, 1):
        rows = _limited_spin(gens, [1, 0, 0], 2, limit)
        assert rows.shape[0] == limit + 1 and rank(rows, 2) == limit + 1


def test_spin_with_a_limit_of_dim_or_more_is_unbounded():
    gens = c3_regular_gens()
    for code in range(1, 8):
        v = np.array([(code >> i) & 1 for i in range(3)])
        for limit in (3, 4, 10):
            assert np.array_equal(_limited_spin(gens, v, 2, limit), spin(gens, v, 2))


@pytest.mark.parametrize("p", [2, 3, 5, 61, 4194301])
def test_rref_stack_is_rref_matrix_by_matrix(p):
    rng = np.random.default_rng(p)
    for shape in [(0, 3, 4), (4, 0, 5), (4, 3, 0), (30, 4, 6), (30, 7, 3), (30, 5, 5), (8, 1, 4)]:
        A = rng.integers(0, p, shape)
        if shape[0] == 30:
            A[0] = 0  # a zero matrix
            A[1:10, -1] = A[1:10, 0] * 2 % p  # two proportional rows
            A[10:20] = A[10:20, :, :1] * rng.integers(0, p, (10, 1, shape[2])) % p  # rank <= 1
        R, ranks = rref_stack(A, p)
        assert R.shape == A.shape and ranks.shape == (shape[0],)
        for Ai, Ri, k in zip(A, R, ranks):
            assert k == rank(Ai, p)
            assert np.array_equal(Ri[:k], rref(Ai, p)[0]) and not Ri[k:].any()


@pytest.mark.parametrize("p,gens,seeds", [
    (2, [np.array([[0, 1, 1, 0], [1, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 1]])],
     [[int(b) for b in f"{code:04b}"] for code in range(16)]),
    (3, [np.diag([1, 2, 2, 1, 0]), np.eye(5, dtype=np.int64)[[1, 0, 2, 4, 3]]],
     np.random.default_rng(3).integers(0, 3, (40, 5))),
])
def test_spin_stack_is_spin_seed_by_seed(p, gens, seeds):
    seeds = np.array(seeds)
    dim = seeds.shape[1]
    seeds[:2] = 0  # zero seeds spin the zero subspace
    full = [spin(gens, v, p) for v in seeds]
    for cap in range(1, dim + 2):
        rows, ranks = spin_stack(gens, seeds, p, cap)
        assert rows.shape == (len(seeds), min(cap, dim), dim)
        for v, R, k, S in zip(seeds, rows, ranks, full):
            assert k == min(len(S), cap) and rank(R[:k], p) == k
            if k < cap:
                assert np.array_equal(R[:k], S) and not R[k:].any()
            else:  # cap rows of the spin
                assert rank(np.vstack([S, R[:k]]), p) == len(S)


def test_minpoly_and_charpoly_agree_on_companion():
    # companion matrix of x^3 + x + 1 over F_2, which is both its minimal
    # and its characteristic polynomial
    C = np.array([[0, 0, 1], [1, 0, 1], [0, 1, 0]], dtype=np.int64)
    assert least_monic_annihilator(C, 2) == [1, 1, 0, 1]
    assert charpoly(C, 2) == [1, 1, 0, 1]


def test_charpoly_random_matches_eigen_structure():
    rng = random.Random(7)
    for p in (2, 3, 5):
        for _ in range(10):
            n = rng.randrange(1, 7)
            A = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(n)],
                         dtype=np.int64)
            cp = charpoly(A, p)
            assert len(cp) == n + 1 and cp[-1] == 1
            # Cayley-Hamilton
            assert not np.any(modrep.poly_eval_matrix(cp, A, p))


def hessenberg_charpoly(M, p):
    """det(xI - M), constant term first, by Hessenberg reduction with a
    pivot search and the Hessenberg recurrence: a reference for charpoly
    that shares none of its method."""
    M = np.asarray(M, dtype=np.int64) % p
    n = M.shape[0]
    if n == 0:
        return [1]
    H = [[int(x) for x in row] for row in M]
    for j in range(n - 2):
        pivot = next((i for i in range(j + 1, n) if H[i][j]), None)
        if pivot is None:
            continue
        if pivot != j + 1:
            H[pivot], H[j + 1] = H[j + 1], H[pivot]
            for row in H:
                row[pivot], row[j + 1] = row[j + 1], row[pivot]
        inv = pow(H[j + 1][j], p - 2, p)
        for i in range(j + 2, n):
            if H[i][j]:
                t = (H[i][j] * inv) % p
                for c in range(n):
                    H[i][c] = (H[i][c] - t * H[j + 1][c]) % p
                for r in range(n):
                    H[r][j + 1] = (H[r][j + 1] + t * H[r][i]) % p
    polys = [[1]]
    for m in range(1, n + 1):
        cm = m - 1
        term = gfpoly.mul([(-H[cm][cm]) % p, 1], polys[m - 1], p)
        prod = 1
        for i in range(1, m):
            prod = (prod * H[cm - i + 1][cm - i]) % p
            coeff = (H[cm - i][cm] * prod) % p
            if coeff:
                term = gfpoly.sub(term, gfpoly.scale(polys[m - 1 - i], coeff, p), p)
        polys.append(term)
    out = polys[n]
    return list(out) + [0] * (n + 1 - len(out))


@pytest.mark.parametrize("p", [2, 3, 5, 61])
def test_charpoly_matches_the_hessenberg_reference(p):
    # random matrices of every size up to 40 (from 32 on, mm takes its
    # float64 branch), and zero, nilpotent and permutation matrices, whose
    # zero subdiagonals send the reference down its pivot search
    rng = np.random.default_rng(p)
    mats = [rng.integers(0, p, (n, n)) for n in range(41)]
    for n in (1, 2, 5, 17, 33, 40):
        mats += [np.zeros((n, n), dtype=np.int64),
                 np.triu(rng.integers(0, p, (n, n)), 1),
                 np.eye(n, dtype=np.int64)[rng.permutation(n)]]
    for M in mats:
        assert charpoly(M, p) == hessenberg_charpoly(M, p)
    # a stack gives the per-matrix results, whatever its leading shape
    for shape in [(6, 5, 5), (3, 33, 33), (2, 3, 4, 4)]:
        S = rng.integers(0, p, shape)
        flat = [hessenberg_charpoly(M, p) for M in S.reshape(-1, *shape[-2:])]
        assert charpoly(S, p) == np.array(flat).reshape(*shape[:-2], -1).tolist()
    assert charpoly(np.zeros((3, 0, 0), dtype=np.int64), p) == [[1], [1], [1]]


def test_fingerprint_takes_one_charpoly_call_per_class(monkeypatch):
    # one stacked call for the fingerprint; the inertia exponent, the
    # isotypic parts and the structure checks read sigma's entry from it
    calls = []
    real = modrep.charpoly

    def counting(M, p):
        calls.append(1)
        return real(M, p)
    monkeypatch.setattr(modrep, "charpoly", counting)
    classes = simple_classes(build_tower(BaseField(2, 1, 0), 3))
    assert len(calls) == len(classes)
    calls.clear()
    result = enumerate_primitive(BaseField(2, 1, 0), 3)
    assert len(calls) == len(result.classes)


def least_monic_annihilator(M, p):
    """Exhaustive search, degree by degree and in value order, with the
    polynomial evaluated as a plain sum of matrix powers."""
    n = M.shape[0]
    powers = [np.eye(n, dtype=np.int64)]
    for _ in range(n):
        powers.append(powers[-1] @ M % p)
    for d in range(n + 1):
        for code in range(p ** d):
            f = [(code // p ** i) % p for i in range(d)] + [1]
            if not np.any(sum(c * P for c, P in zip(f, powers)) % p):
                return f


def test_chop_c3_regular_over_f2():
    classes = chop(c3_regular_gens(), 2)
    dims = sorted((c.dim, c.multiplicity) for c in classes)
    assert dims == [(1, 1), (2, 1)]


def test_chop_trivial_group_on_f2_cubed():
    classes = chop([np.eye(3, dtype=np.int64)], 2)
    assert len(classes) == 1
    assert classes[0].dim == 1 and classes[0].multiplicity == 3


@pytest.mark.parametrize("p", [2, 3])
def test_chop_of_a_regular_module_that_does_not_split(p):
    # F_p[C_p] is uniserial with trivial factors: one class of multiplicity p
    shift = np.roll(np.eye(p, dtype=np.int64), 1, axis=0)
    for seed in (0, 1, 2):
        [cls] = chop([shift], p, seed=seed)
        assert (cls.dim, cls.multiplicity) == (1, p)
        assert np.array_equal(cls.gens[0], [[1]])


def test_chop_multiplicities_seed_invariant():
    for seed in (0, 1, 2):
        classes = chop(c3_regular_gens(), 2, seed=seed)
        assert sorted((c.dim, c.multiplicity) for c in classes) == [(1, 1), (2, 1)]


def test_end_field_of_c3_plane_is_f4():
    classes = chop(c3_regular_gens(), 2)
    plane = next(c for c in classes if c.dim == 2)
    assert len(hom_space(plane.gens, plane.gens, 2)) == 2
    # brute force over all sixteen 2x2 matrices: the commutant has 4 elements
    M = plane.gens[0]
    comm = [E for code in range(16)
            for E in [np.array([[code & 1, (code >> 1) & 1],
                                [(code >> 2) & 1, (code >> 3) & 1]], dtype=np.int64)]
            if not np.any((E @ M - M @ E) % 2)]
    assert len(comm) == 4


def _kronecker_hom_space(gens_S, gens_V, p):
    """Equivariant maps S -> V from the Kronecker system
    (I (x) rho_S(g)^T - rho_V(g) (x) I) vec(X) = 0, one generator at a time."""
    n, N = gens_S[0].shape[0], gens_V[0].shape[0]
    basis = None
    for MS, MV in zip(gens_S, gens_V):
        block = (np.kron(np.eye(N, dtype=np.int64), MS.T)
                 - np.kron(MV, np.eye(n, dtype=np.int64))) % p
        if basis is None:
            basis = kernel(block, p)
        else:
            basis = (kernel((block @ basis.T) % p, p) @ basis) % p
    return basis


def _random_invertible(n, p, rng):
    while True:
        T = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(n)],
                     dtype=np.int64)
        if rank(T, p) == n:
            return T


def _block_sum(*pieces):
    """Generator matrices of the direct sum of modules (lists of matrices)."""
    dim = sum(c[0].shape[0] for c in pieces)
    gens = []
    for g in range(len(pieces[0])):
        M = np.zeros((dim, dim), dtype=np.int64)
        at = 0
        for c in pieces:
            k = c[g].shape[0]
            M[at:at + k, at:at + k] = c[g]
            at += k
        gens.append(M)
    return gens


def _random_sum(pieces, count, p, rng):
    """A direct sum of count pieces drawn with repetition, under a random
    change of basis."""
    gens = _block_sum(*(rng.choice(pieces) for _ in range(count)))
    T = _random_invertible(gens[0].shape[0], p, rng)
    T_inv = inv_mat(T, p)
    return [(T @ M @ T_inv) % p for M in gens]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_hom_space_matches_kronecker_reference(p):
    rng = random.Random(p)
    trivial = [np.eye(1, dtype=np.int64)] * 2
    cases = [(_random_sum([trivial], 2, p, rng), _random_sum([trivial], 3, p, rng))]
    for _ in range(60):
        pieces = [[np.array([[rng.randrange(p) for _ in range(k)] for _ in range(k)],
                            dtype=np.int64) for _ in range(2)]
                  for k in (rng.randrange(1, 4) for _ in range(3))] + [trivial]
        cases.append((_random_sum(pieces, rng.randrange(1, 3), p, rng),
                      _random_sum(pieces, rng.randrange(1, 4), p, rng)))
    for S, V in cases:
        _check_hom_space(S, V, p)
    # trivial^2 -> trivial^3: S is not cyclic, and every 3 x 2 matrix is a map
    assert len(hom_space(*cases[0], p)) == 6


def _check_hom_space(S, V, p, H=None):
    """hom_space(S, V), or the maps H, holds only equivariant maps and spans
    the same space as the reference Kronecker solve; returns its dimension."""
    H = hom_space(S, V, p) if H is None else H
    for X in H:
        assert X.shape == (V[0].shape[0], S[0].shape[0])
        for MS, MV in zip(S, V):
            assert not np.any((X @ MS - MV @ X) % p)
    ref = _kronecker_hom_space(S, V, p)
    got = np.array([X.ravel() for X in H], dtype=np.int64).reshape(len(H), ref.shape[1])
    assert len(H) == ref.shape[0]
    assert np.array_equal(rref(got, p)[0], rref(ref, p)[0])
    return len(H)


JORDAN = np.array([[1, 1], [0, 1]], dtype=np.int64)
SWAP = np.array([[0, 1], [1, 0]], dtype=np.int64)


def test_hom_space_non_semisimple_first_generator():
    # the first generator of S is a Jordan block (minimal polynomial
    # (x - 1)^2); End(S) is the scalars, since only they commute with SWAP
    p = 3
    rng = random.Random(7)
    S = [JORDAN, SWAP]
    trivial = [np.eye(1, dtype=np.int64)] * 2
    assert _check_hom_space(S, _random_sum([S], 2, p, rng), p) == 2
    for _ in range(10):
        _check_hom_space(S, _random_sum([S, trivial], rng.randrange(1, 4), p, rng), p)


def test_hom_space_is_empty_when_the_condensed_space_is():
    # c(g_V) is invertible: the eigenvalue 1 of g_S does not occur in g_V,
    # so the isotypic part is 0-dimensional and nothing maps into it
    p = 3
    S = [np.eye(1, dtype=np.int64)] * 2
    V = [2 * np.eye(3, dtype=np.int64), np.eye(3, dtype=np.int64)]
    W, part = isotypic_part(V, charpoly(S[0], p), p)
    assert W.shape == (0, 3) and [M.shape for M in part] == [(0, 0)] * 2
    assert hom_space(S, part, p) == []
    assert hom_space(S, V, p) == []
    assert _kronecker_hom_space(S, V, p).shape[0] == 0


def test_hom_space_when_the_second_generator_leaves_w():
    # W = ker(g_V - 1) = <e1, e3> is not stable under h_V (h_V e1 = e1 + e2),
    # and the only equivariant map from the trivial module sends 1 to e3
    p = 3
    S = [np.eye(1, dtype=np.int64)] * 2
    g_V = np.diag([1, 2, 1]).astype(np.int64)
    h_V = np.array([[1, 1, 0], [1, 2, 0], [0, 0, 1]], dtype=np.int64)
    W = kernel(poly_eval_matrix(charpoly(S[0], p), g_V, p), p)
    with pytest.raises(InvariantViolation, match="not stable"):
        restrict_action([g_V, h_V], W, p)
    [X] = hom_space(S, [g_V, h_V], p)
    assert X[2, 0] and not np.any(X[:2])
    assert _check_hom_space(S, [g_V, h_V], p) == 1


def test_hom_space_of_a_one_generator_module():
    # S = F_2[x]/(x - 1)^2: its maps to V are the vectors killed by
    # (g_V - 1)^2, here all of V = S + S + trivial
    p = 2
    V = _block_sum([JORDAN], [JORDAN], [np.eye(1, dtype=np.int64)])
    assert _check_hom_space([JORDAN], V, p) == 5
    T = _random_invertible(5, p, random.Random(3))
    V = [(T @ V[0] @ inv_mat(T, p)) % p]
    assert _check_hom_space([JORDAN], V, p) == 5


@pytest.mark.parametrize("base,n,level_bound,only_dim_n", [
    (BaseField(2, 1, 0), 2, None, False),
    (BaseField(3, 1, 0), 1, None, False),
    (BaseField(5, 1, 0), 1, None, False),
    (BaseField(2, 1, 2), 2, 5, False),
    (BaseField(2, 1, 0), 3, None, True),
], ids=["Q_2,n=2", "Q_3,n=1", "Q_5,n=1", "F_2((t)),n=2,B=5", "Q_2,n=3"])
def test_hom_space_on_tower_class_modules(base, n, level_bound, only_dim_n):
    # condensation against the plain Kronecker solve on the whole class
    # module, for the classes the enumerator meets: every simple class, or
    # those of dim n; the maps into the isotypic part W, composed with the
    # inclusion W^T, are all of Hom(S, V)
    tower = build_tower(base, n)
    p = tower.p
    mats = galois_matrices(kummer_basis(tower) if base.char == 0
                           else artinschreier_basis(tower, level_bound))
    V = [mats[tower.sigma], mats[tower.phi]]
    classes = [c for c in simple_classes(tower) if not only_dim_n or c.dim == n]
    assert classes
    for cls in classes:
        W, part = isotypic_part(V, charpoly(cls.sigma, p), p)
        H = [(W.T @ Y) % p for Y in hom_space(cls.gens(), part, p)]
        _check_hom_space(cls.gens(), V, p, H)


@pytest.mark.parametrize("base,n,level_bound", [
    (BaseField(2, 1, 0), 3, None), (BaseField(3, 1, 0), 2, None),
    (BaseField(7, 1, 0), 1, None), (BaseField(2, 2, 2), 2, 5),
], ids=["Q_2,n=3", "Q_3,n=2", "Q_7,n=1", "F_4((t)),n=2,B=5"])
def test_a_basis_from_the_part_times_w_is_rref(base, n, level_bound):
    # the enumerator maps each submodule basis back to V with one product
    # by the rref rows W of its isotypic part and emits the result as the
    # canonical rref basis, with no rref of its own
    tower = build_tower(base, n)
    p = tower.p
    mats = galois_matrices(kummer_basis(tower) if base.char == 0
                           else artinschreier_basis(tower, level_bound))
    V = [mats[tower.sigma], mats[tower.phi]]
    bases = 0
    for cls in (c for c in simple_classes(tower) if c.dim == n):
        W, part = isotypic_part(V, charpoly(cls.sigma, p), p)
        for rows in enumerate_simple_submodules(part, cls.gens(), cls.end_degree, p):
            image = (rows @ W) % p
            assert np.array_equal(image, rref(image, p)[0])
            bases += 1
    assert bases


@pytest.mark.parametrize("base,n,level_bound", [
    (BaseField(2, 1, 0), 2, None), (BaseField(3, 1, 0), 2, None),
    (BaseField(2, 1, 0), 3, None), (BaseField(2, 1, 2), 2, 5),
], ids=["Q_2,n=2", "Q_3,n=2", "Q_2,n=3", "F_2((t)),n=2,B=5"])
def test_condensation_at_charpoly_is_at_the_minimal_polynomial(base, n, level_bound):
    # sigma has order prime to p, so it acts semisimply on S and V, and
    # isotypic_part's W = ker c(sigma_V) is the kernel at the minimal polynomial
    tower = build_tower(base, n)
    p = tower.p
    sigma_V = galois_matrices(kummer_basis(tower) if base.char == 0
                              else artinschreier_basis(tower, level_bound))[tower.sigma]
    for cls in simple_classes(tower):
        sigma_S = cls.gens()[0]
        at_c = isotypic_part([sigma_V], charpoly(sigma_S, p), p)[0]
        at_m = kernel(poly_eval_matrix(least_monic_annihilator(sigma_S, p), sigma_V, p), p)
        assert np.array_equal(at_c, rref(at_m, p)[0])


def _solve_per_column(gens, rows, p):
    return [np.stack([solve(rows.T, col, p) for col in ((M @ rows.T) % p).T], axis=1)
            for M in gens]


def test_restrict_action_matches_per_column_solve():
    rng = random.Random(7)
    for p in (2, 3, 5):
        for _ in range(15):
            dim = rng.randrange(2, 7)
            gens = [np.array([[rng.randrange(p) for _ in range(dim)] for _ in range(dim)],
                             dtype=np.int64) for _ in range(2)]
            v = np.array([rng.randrange(p) for _ in range(dim)], dtype=np.int64)
            rows = spin(gens, v, p)
            if rows.shape[0] == 0:
                continue
            # the rref basis, and another basis of the same stable subspace
            T = _random_invertible(rows.shape[0], p, rng)
            for basis in (rows, (T @ rows) % p):
                got = restrict_action(gens, basis, p)
                for S, ref in zip(got, _solve_per_column(gens, basis, p)):
                    assert np.array_equal(S, ref)
    # a line that is not stable under the 3-cycle
    with pytest.raises(InvariantViolation, match="not stable"):
        restrict_action(c3_regular_gens(), np.array([[1, 0, 0]], dtype=np.int64), 2)


def test_a_non_equivariant_hom_map_is_an_invariant_violation(monkeypatch):
    # a map that is not equivariant is caught once per call, before any image
    real = modrep.hom_space
    bad = np.zeros((7, 2), dtype=np.int64)
    bad[0, 0] = 1  # g_V bad has row 0 = (1, 0), bad P3_PLANE has (0, 2)
    monkeypatch.setattr(modrep, "hom_space", lambda S, V, p: real(S, V, p) + [bad])
    with pytest.raises(InvariantViolation, match="not equivariant"):
        enumerate_simple_submodules(p3_module(), [P3_PLANE], 2, 3)


def test_a_non_simple_source_is_an_invariant_violation():
    # the Jordan block alone fixes the line of e1
    S = [JORDAN, np.eye(2, dtype=np.int64)]
    with pytest.raises(InvariantViolation, match="not simple"):
        enumerate_simple_submodules(_block_sum(S, S), S, 1, 3)


def test_enumerate_lines_under_trivial_group():
    gens = [np.eye(3, dtype=np.int64)]
    subs = enumerate_simple_submodules(gens, [np.eye(1, dtype=np.int64)], 1, 2)
    assert len(subs) == 7


def test_wrong_end_degree_is_an_invariant_violation():
    # too high: each trivial line is reached once, not 3 times
    with pytest.raises(InvariantViolation, match="reached by 1 lines"):
        enumerate_simple_submodules([np.eye(3, dtype=np.int64)],
                                    [np.eye(1, dtype=np.int64)], 2, 2)
    # too low: the C_3 plane (End = F_4) is reached 3 times, not once
    plane = next(c for c in chop(c3_regular_gens(), 2) if c.dim == 2)
    with pytest.raises(InvariantViolation, match="reached by 3 lines"):
        enumerate_simple_submodules(c3_regular_gens(), plane.gens, 1, 2)


def test_echelon_routines_match_rref_on_random_input():
    rng = np.random.default_rng(0)
    for p in (2, 3, 5):
        for _ in range(30):
            dim = int(rng.integers(1, 7))
            rows = rng.integers(0, p, (int(rng.integers(0, dim + 1)), dim))
            v = rng.integers(0, p, dim)
            assert in_row_space(rows, v, p) == (
                rank(np.vstack([rows, v]), p) == rank(rows, p))
            pivots = rref(rows, p)[1]
            free = [c for c in range(dim) if c not in pivots]
            # kernel: null vectors with the identity at the free columns, which
            # determines each of them
            K = kernel(rows, p)
            assert K.shape == (len(free), dim) and not np.any(rows @ K.T % p)
            assert np.array_equal(K[:, free], np.eye(len(free), dtype=np.int64))


def test_enumerate_c3_planes():
    gens = c3_regular_gens()
    classes = chop(gens, 2)
    plane = next(c for c in classes if c.dim == 2)
    subs = enumerate_simple_submodules(gens, plane.gens, 2, 2)
    assert len(subs) == 1
    # brute-force comparison over all 2-dimensional subspaces
    brute = brute_simple_submodules(gens, 2, 2)
    assert len(brute) == 1
    assert np.array_equal(subs[0], brute[0])


def test_brute_feasibility_rule():
    # at most 14 coordinates and 2^22 vectors
    assert brute_feasible(14, 2) and brute_feasible(13, 3)
    assert not brute_feasible(15, 2) and not brute_feasible(14, 3)
    with pytest.raises(ValueError, match="infeasible"):
        brute_simple_submodules([np.eye(14, dtype=np.int64)], 1, 3)


def test_enumerate_matches_brute_on_lines():
    gens = c3_regular_gens()
    classes = chop(gens, 2)
    triv = next(c for c in classes if c.dim == 1)
    subs = enumerate_simple_submodules(gens, triv.gens, 1, 2)
    brute = brute_simple_submodules(gens, 1, 2)
    assert len(subs) == len(brute) == 1


def test_enumerate_matches_brute_trivial_group():
    gens = [np.eye(3, dtype=np.int64)]
    subs = enumerate_simple_submodules(gens, [np.eye(1, dtype=np.int64)], 1, 2)
    brute = brute_simple_submodules(gens, 1, 2)
    assert [tuple(r.ravel()) for r in subs] == [tuple(r.ravel()) for r in brute]


def test_multiplicity_count_formula():
    # V = S ⊕ S for the 2-dim simple of C_3: Hom has End-dim 2, count (2^4-1)/3 = 5
    gens = c3_regular_gens()
    classes = chop(gens, 2)
    plane = next(c for c in classes if c.dim == 2)
    M = plane.gens[0]
    V = [np.block([[M, np.zeros((2, 2), dtype=np.int64)],
                   [np.zeros((2, 2), dtype=np.int64), M]]) % 2]
    subs = enumerate_simple_submodules(V, plane.gens, 2, 2)
    assert len(subs) == 5
    brute = brute_simple_submodules(V, 2, 2)
    assert [tuple(r.ravel()) for r in subs] == [tuple(r.ravel()) for r in brute]


# x^2 + 1 is irreducible mod 3: its companion matrix acts on a simple
# plane with End = F_9
P3_PLANE = np.array([[0, 2], [1, 0]], dtype=np.int64)


def p3_module():
    """Trivial line + two copies of the x^2 + 1 plane + a Jordan block, over
    F_3: 4 simple lines and (9^2 - 1)/(9 - 1) = 10 simple planes."""
    J = np.array([[1, 1], [0, 1]], dtype=np.int64)
    M = np.zeros((7, 7), dtype=np.int64)
    M[0, 0] = 1
    for k, B in ((1, P3_PLANE), (3, P3_PLANE), (5, J)):
        M[k:k + 2, k:k + 2] = B
    return [M]


# companion matrices of x^2 + x + 1 and x^3 + x + 1, irreducible over F_2
F2_PLANE = np.array([[0, 1], [1, 1]], dtype=np.int64)
F2_CUBE = np.array([[0, 0, 1], [1, 0, 1], [0, 1, 0]], dtype=np.int64)


def f2_module():
    """Trivial line + two copies of the x^2 + x + 1 plane + the x^3 + x + 1
    space, over F_2 under a change of basis: 1 simple line,
    (4^2 - 1)/(4 - 1) = 5 simple planes and 1 simple 3-space."""
    (M,) = _block_sum([np.eye(1, dtype=np.int64)], [F2_PLANE], [F2_PLANE],
                      [F2_CUBE])
    T = _random_invertible(8, 2, random.Random(8))
    return [(T @ M @ inv_mat(T, 2)) % 2]


def test_enumerate_matches_brute_at_p3():
    p = 3
    gens = p3_module()
    for gens_S, d, count in (([np.eye(1, dtype=np.int64)], 1, 4), ([P3_PLANE], 2, 10)):
        n = gens_S[0].shape[0]
        subs = enumerate_simple_submodules(gens, gens_S, d, p)
        brute = brute_simple_submodules(gens, n, p)
        assert len(subs) == count
        assert [tuple(r.ravel()) for r in subs] == [tuple(r.ravel()) for r in brute]


def test_brute_matches_full_scan_at_p3():
    # the reference spins every nonzero vector in full, where the brute scan
    # stops each spin once it passes n rows
    def digits(code, n, p):
        return np.array([(code // p ** i) % p for i in range(n)], dtype=np.int64)

    for p, gens, counts in ((3, p3_module(), ((1, 4), (2, 10))),
                            (2, f2_module(), ((1, 1), (2, 5), (3, 1)))):
        dim = gens[0].shape[0]
        spins = [spin(gens, digits(code, dim, p), p) for code in range(1, p ** dim)]
        for n, count in counts:
            full = set()
            for rows in spins:
                if rows.shape[0] == n and all(
                        spin(gens, digits(c, n, p) @ rows % p, p).shape[0] == n
                        for c in range(1, p ** n)):
                    full.add(tuple(rows.ravel()))
            brute = brute_simple_submodules(gens, n, p)
            assert len(full) == count
            assert [tuple(r.ravel()) for r in brute] == sorted(full)


def test_line_blocks_list_each_line_once_in_bounded_memory():
    # the vectors whose first nonzero coordinate is 1, lead by lead, the
    # coordinate after the lead varying fastest, in blocks of at most
    # LINE_BLOCK rows; a block is filled in place, so building one costs
    # little beyond its bytes
    n, p = 11, 3
    expected = [(0,) * lead + (1,) + tail[::-1] for lead in range(n)
                for tail in itertools.product(range(p), repeat=n - lead - 1)]
    blocks = list(modrep._line_blocks(n, p))
    assert [tuple(v) for block in blocks for v in block] == expected
    assert all(0 < len(block) <= modrep.LINE_BLOCK for block in blocks)
    tracemalloc.start()
    try:
        next(modrep._line_blocks(n, p))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * modrep.LINE_BLOCK * n * 8


def test_line_blocks_pack_consecutive_leads():
    # F_3^7 has 1,093 lines over seven leads, all in one block; F_2^13
    # has 8,191, one full block and the rest
    assert [len(block) for block in modrep._line_blocks(7, 3)] == [1093]
    n, p = 13, 2
    assert [len(block) for block in modrep._line_blocks(n, p)] == [
        modrep.LINE_BLOCK, 2 ** n - 1 - modrep.LINE_BLOCK]


def _brute_peak(dim):
    """tracemalloc's peak over the brute scan of the cyclic shift on F_2^dim."""
    shift = np.roll(np.eye(dim, dtype=np.int64), 1, axis=0)
    tracemalloc.start()
    try:
        brute_simple_submodules([shift], 1, 2)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_brute_scan_memory_is_bounded_by_the_line_block():
    # twice the lines, but no block holds more than LINE_BLOCK of them: at
    # dim 13 the first lead alone fills one block, at dim 14 it fills two
    assert _brute_peak(14) < 1.5 * _brute_peak(13)


def test_brute_scan_spins_each_line_block_in_lockstep(monkeypatch):
    # F_3((t)), n = 1, level bound 4: no spin of a single line, one
    # spin_stack per line block
    result = enumerate_primitive(BaseField(3, 1, 3), 1, level_bound=4)
    tower = result.tower
    V = [result.matrices[tower.sigma], result.matrices[tower.phi]]
    calls = []
    real = modrep.spin_stack

    def counting(*args):
        calls.append(1)
        return real(*args)

    def forbidden(*args):
        raise AssertionError("a line was spun on its own")
    monkeypatch.setattr(modrep, "spin_stack", counting)
    monkeypatch.setattr(modrep, "spin", forbidden)
    found = brute_simple_submodules(V, 1, 3)
    assert len(found) == len(result.records)
    assert 0 < len(calls) <= len(list(modrep._line_blocks(V[0].shape[0], 3)))


def test_is_simple_rejects_reducible():
    assert not modrep.is_simple(c3_regular_gens(), 2)
    classes = chop(c3_regular_gens(), 2)
    for c in classes:
        assert modrep.is_simple(c.gens, 2)


def test_split_budget_reports_instead_of_looping(monkeypatch):
    from wildprim.errors import IterationBudgetExceeded
    monkeypatch.setattr(modrep, "MAX_SPLIT_TRIES", 0)
    with pytest.raises(IterationBudgetExceeded):
        modrep.chop(c3_regular_gens(), 2)

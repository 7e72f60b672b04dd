"""Dense linear algebra over F_p and modular representation machinery.

Matrices are numpy int64 arrays with entries reduced mod p.  Action
matrices use the column convention: a group element g with matrix M sends
the column vector v to M @ v, so matrices compose like the group
(M_{gh} = M_g @ M_h).  Subspaces are stored as row matrices, normally in
reduced row echelon form, which doubles as the canonical form used for
deterministic ordering.  Every F_p product is one call of mm: int64 below
an inner width of BLAS_WIDTH, float64 on BLAS from there on, exact while
width * (p - 1)^2 < 2^53 (Dumas, Giorgi, Pernet 2008), else InvariantViolation.
Either way it is reduced once, in int64: a float64 product is cast first.

charpoly is Berkowitz's division-free recurrence (Berkowitz 1984): no
pivot, no swap, every product an mm, and a whole stack of same-size
matrices in one call (a fingerprint passes one per conjugacy class).

The module splitter (chop) is the usual randomized MeatAxe with Norton's
irreducibility certificate, driven by a caller-supplied seed.  It splits V
at a submodule U into U and V/U.  V/U is dual to the annihilator of U, which
the transposed generators keep stable, so its action is the transpose of
theirs there.  The pipeline builds its simple modules in closed form and
never calls chop; it is the reference implementation the simple-class
oracle in verify compares against.

The simple submodules of V isomorphic to a simple S are the images of the
nonzero maps in Hom(S, V), which lie in the isotypic part ker c(g_V), c the
characteristic polynomial of the first generator on S (condensation, Lux,
Mueller, Ringe 1994).  With g_V^e = 1 and p prime to e, that part is the
image of h(g_V), h = (x^e - 1)/gcd(c, x^e - 1): one combination of a table
of the powers of g_V, built once per module, and one elimination of rank
dim W.  hom_space spins S from greedy seeds and solves for the images of
the seeds (the MeatAxe standard basis, Parker 1984): dim V unknowns per
seed, not dim V * dim S.  enumerate_simple_submodules takes one map per
F_p-line of Hom(S, part) and groups the maps by image; it needs the End
degree of S, which the caller knows, and never builds End(S).

The brute-force oracle spins one vector per F_p-line of V, in blocks of
LINE_BLOCK lines spun in lockstep: spin_stack takes every spin of a block
one level at a time, each level one rref_stack over the whole block.
"""

from __future__ import annotations

import bisect
import random
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import gfpoly
from .errors import InvariantViolation, IterationBudgetExceeded

BLAS_WIDTH = 32  # from this inner width on float64 wins (2-core host)
LINE_BLOCK = 1 << 12  # lines spun in lockstep; a block peaks near 7 MB at dim 14
MAX_HOM_LINES = 1 << 18  # admits Q_{2^16}, n = 1: 2^18 - 1 lines, the largest scan
MAX_SPLIT_TRIES = 200  # random algebra elements the splitter tries per module
POWER_ROWS = 64  # rows of a power table that isotypic_part widens to int64 at a time


def as_fp(A, p: int) -> np.ndarray:
    return np.asarray(A, dtype=np.int64) % p


def mm(A, B, p: int) -> np.ndarray:
    width = np.shape(A)[-1]
    if width < BLAS_WIDTH:
        return np.matmul(A, B, dtype=np.int64) % p
    if width * (p - 1) ** 2 >= 1 << 53:
        raise InvariantViolation(f"a width-{width} product mod {p} is not exact in float64")
    return (np.asarray(A, dtype=np.float64) @ np.asarray(B, dtype=np.float64)).astype(np.int64) % p


def rref(A, p: int):
    """Reduced row echelon form and pivot columns (first-nonzero pivoting)."""
    A = as_fp(A, p).copy()
    nrows, ncols = A.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.flatnonzero(A[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            A[[r, i]] = A[[i, r]]
        if A[r, c] != 1:
            A[r] = (A[r] * pow(int(A[r, c]), p - 2, p)) % p
        hit = np.flatnonzero(A[:, c])
        hit = hit[hit != r]
        if hit.size:
            A[hit] = (A[hit] - np.outer(A[hit, c], A[r])) % p
        pivots.append(c)
        r += 1
    # a copy below full rank: a view would keep every eliminated row alive
    return (A[:r].copy() if r < nrows else A), pivots


def rank(A, p: int) -> int:
    return len(rref(A, p)[1])


def solve(A, b, p: int) -> np.ndarray:
    """One solution x of A @ x = b; for a 2-D b, one solution column per
    column of b, all from one rref.  Raises ValueError if any is
    inconsistent."""
    A = as_fp(A, p)
    b = as_fp(b, p)
    n = A.shape[1]
    R, pivots = rref(np.concatenate([A, b.reshape(len(b), -1)], axis=1), p)
    if pivots and pivots[-1] >= n:
        raise ValueError("inconsistent linear system")
    x = np.zeros((n,) + b.shape[1:], dtype=np.int64)
    x[pivots] = R[:, n:].reshape((len(pivots),) + b.shape[1:])
    return x


def kernel(A, p: int) -> np.ndarray:
    """Rows spanning {x : A @ x = 0}, canonical (free columns ascending)."""
    A = as_fp(A, p)
    ncols = A.shape[1]
    R, pivots = rref(A, p)
    free = [c for c in range(ncols) if c not in pivots]
    out = np.zeros((len(free), ncols), dtype=np.int64)
    out[np.arange(len(free)), free] = 1
    out[:, pivots] = -R[:, free].T % p
    return out


def inv_mat(A, p: int) -> np.ndarray:
    A = as_fp(A, p)
    n = A.shape[0]
    aug = np.concatenate([A, np.eye(n, dtype=np.int64)], axis=1)
    R, pivots = rref(aug, p)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return R[:, n:]


def poly_eval_matrix(f: list[int], M: np.ndarray, p: int) -> np.ndarray:
    """f(M) by Horner's rule from the leading coefficient: deg f - 1 products."""
    eye = np.eye(M.shape[0], dtype=np.int64)
    out = f[-1] * eye
    for i, c in enumerate(reversed(f[:-1])):
        out = ((mm(out, M, p) if i else f[-1] * M) + c * eye) % p
    return out % p


def _echelon_insert(rows: list, pivots: list, v: np.ndarray, p: int) -> tuple[np.ndarray, bool]:
    """Reduce v against echelon rows; returns (remainder, inserted).

    rows are kept in reduced row echelon form: sorted by pivot, entry 1 at
    their own pivot and 0 at every other row's pivot, so one pass zeroes
    every pivot column of the remainder.  A nonzero remainder is inserted,
    normalised, with its first nonzero entry as pivot and cleared from the
    other rows.  v is never modified.
    """
    for row, pc in zip(rows, pivots):
        if v[pc]:
            v = (v - v[pc] * row) % p
    nz = np.flatnonzero(v)
    if nz.size == 0:
        return v, False
    pc = int(nz[0])
    new = (v * pow(int(v[pc]), p - 2, p)) % p
    for i, row in enumerate(rows):
        if row[pc]:
            rows[i] = (row - row[pc] * new) % p
    idx = bisect.bisect(pivots, pc)
    rows.insert(idx, new)
    pivots.insert(idx, pc)
    return v, True


def charpoly(M, p: int) -> list:
    """Characteristic polynomial det(xI - M), constant term first, by
    Berkowitz's division-free recurrence.  M may be a stack (..., n, n):
    the result is a list of ints for one matrix and nested lists for a
    stack.  The leading block [[A, C], [R, a]] of size k + 1 multiplies the
    coefficients (leading first) of the block A by the lower-triangular
    Toeplitz matrix of 1, -a, -R C, -R A C, ..., -R A^(k-1) C."""
    M = as_fp(M, p)
    c = np.ones(M.shape[:-2] + (1, 1), dtype=np.int64)
    for k in range(M.shape[-1]):
        A, a = M[..., :k, :k], M[..., k:k + 1, k]
        krylov = [M[..., :k, k:k + 1]]
        for _ in range(1, k):
            krylov.append(mm(A, krylov[-1], p))
        # [..., :k] drops the one empty column at k = 0
        rac = mm(M[..., k:k + 1, :k], np.concatenate(krylov, axis=-1)[..., :k], p)[..., 0, :]
        t = np.concatenate([np.ones_like(a), -a, -rac], axis=-1)
        # entry (i, j) is t[i - j]; tril zeroes the wrapped indices i < j
        c = mm(np.tril(t[..., np.subtract.outer(np.arange(k + 2), np.arange(k + 1))]), c, p)
    return c[..., ::-1, 0].tolist()


def spin(gens, seeds, p: int) -> np.ndarray:
    """Canonical row basis of the smallest invariant subspace holding seeds."""
    gens_t = [np.ascontiguousarray(as_fp(M, p).T) for M in gens]  # v -> v M^T
    dim = gens_t[0].shape[0]
    rows: list[np.ndarray] = []
    pivots: list[int] = []
    queue = deque(as_fp(np.atleast_2d(seeds), p))
    while queue and len(rows) < dim:
        v, inserted = _echelon_insert(rows, pivots, queue.popleft(), p)
        if inserted and len(rows) < dim:
            for Mt in gens_t:
                queue.append(mm(v, Mt, p))
    return np.stack(rows) if rows else np.zeros((0, dim), dtype=np.int64)


def rref_stack(A, p: int) -> tuple[np.ndarray, np.ndarray]:
    """rref of every matrix of an (N, r, c) stack, column by column over the
    whole stack: the first ranks[i] rows of R[i] are rref(A[i], p)[0], the
    other rows are zero."""
    A = as_fp(A, p)  # a fresh array
    N, nrows, ncols = A.shape
    ranks = np.zeros(N, dtype=np.int64)
    for c in range(ncols):
        if np.all(ranks == nrows):
            break
        cand = (A[:, :, c] != 0) & (np.arange(nrows) >= ranks[:, None])
        sel = np.flatnonzero(cand.any(axis=1))
        at, r = cand[sel].argmax(axis=1), ranks[sel]
        pivot = A[sel, at]
        A[sel, at] = A[sel, r]
        # a^-1 = a^(p-2), by square and multiply over the stack
        a, inv, e = pivot[:, c], np.ones(len(sel), dtype=np.int64), p - 2
        while e:
            inv = inv * a % p if e & 1 else inv
            a, e = a * a % p, e >> 1
        pivot = pivot * inv[:, None] % p
        # rows from r on are zero left of c: eliminate from c, in place on a copy
        rows = A[sel, :, c:]
        rows -= rows[:, :, :1] * pivot[:, None, c:]
        rows %= p
        A[sel, :, c:] = rows
        A[sel, r] = pivot
        ranks[sel] += 1
    return A, ranks


def spin_stack(gens, seeds, p: int, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """Each seed row's spin, all in lockstep: S <- rref_stack of [S; S g for
    every g] per level, until a rank stops growing or reaches cap.  Returns
    rows (N, min(cap, dim), dim) and ranks clipped at cap: rows[i, :ranks[i]]
    is spin(gens, seeds[i], p) below cap, and cap independent rows of it at cap."""
    gens_t = [as_fp(M, p).T for M in gens]
    seeds = as_fp(seeds, p)
    rows = np.zeros((len(seeds), min(cap, seeds.shape[1]), seeds.shape[1]), dtype=np.int64)
    rows[:, :1], ranks = rref_stack(seeds[:, None, :], p)
    live = np.flatnonzero(ranks < cap)
    while live.size:
        S = rows[live, :ranks[live].max()]
        S, new = rref_stack(np.concatenate([S] + [mm(S, Mt, p) for Mt in gens_t], axis=1), p)
        rows[live, :S.shape[1]] = S[:, :rows.shape[1]]
        ranks[live], live = np.minimum(new, cap), live[(new > ranks[live]) & (new < cap)]
    return rows, ranks


def _echelon(rows: np.ndarray, p: int) -> tuple[list, list]:
    """Echelon rows and pivots of the span of rows, for _echelon_insert."""
    ech: list[np.ndarray] = []
    pivots: list[int] = []
    for row in as_fp(rows, p):
        _echelon_insert(ech, pivots, row, p)
    return ech, pivots


def in_row_space(rows: np.ndarray, v, p: int) -> bool:
    ech, pivots = _echelon(rows, p)
    return not _echelon_insert(ech, pivots, as_fp(v, p).reshape(-1), p)[1]


def restrict_action(gens, rows: np.ndarray, p: int) -> list[np.ndarray]:
    """Action matrices on a stable subspace, in the coordinates of its rows.
    Every caller's subspace is stable by construction or by theory, so one
    that is not raises InvariantViolation."""
    k = rows.shape[0]
    basis = as_fp(rows, p).T
    # columns k.. of [rows^T | images of the rows] reduce to the coordinates
    # of the images exactly when every pivot is among the first k columns
    R, pivots = rref(np.concatenate([basis] + [mm(as_fp(M, p), basis, p) for M in gens],
                                    axis=1), p)
    if pivots != list(range(k)):
        raise InvariantViolation("subspace is not stable under the action")
    return np.split(R[:, k:], len(gens), axis=1)


@dataclass
class Constituent:
    """One isomorphism class of composition factor."""
    dim: int
    gens: list[np.ndarray]
    multiplicity: int


def _random_algebra_element(gens, p, rng: random.Random, complexity: int):
    dim = gens[0].shape[0]
    theta = np.zeros((dim, dim), dtype=np.int64)
    for _ in range(2 + complexity):
        w = np.eye(dim, dtype=np.int64)
        for _ in range(1 + rng.randrange(1 + complexity)):
            w = mm(w, gens[rng.randrange(len(gens))], p)
        theta = (theta + rng.randrange(1, p) * w) % p
    return theta


def _split_once(gens, p, rng):
    """A proper nonzero submodule (row basis), or None when certified simple."""
    dim = gens[0].shape[0]
    if dim == 1:
        return None
    for attempt in range(MAX_SPLIT_TRIES):
        theta = _random_algebra_element(gens, p, rng, complexity=1 + attempt // 8)
        for factor in gfpoly.distinct_irreducible_factors(charpoly(theta, p), p):
            W = kernel(poly_eval_matrix(factor, theta, p), p)
            for w in W:
                U = spin(gens, w, p)
                if 0 < U.shape[0] < dim:
                    return U
            if W.shape[0] == len(factor) - 1:
                # Norton certificate: the transposed side must fill up too.
                Wt = kernel(poly_eval_matrix(factor, theta.T, p), p)
                Ut = spin([M.T for M in gens], Wt[0], p)
                if Ut.shape[0] < dim:
                    return kernel(Ut, p)  # annihilator, a proper submodule
                return None
    raise IterationBudgetExceeded(
        f"module splitter exhausted {MAX_SPLIT_TRIES} attempts at dimension {dim}")


def chop(gens, p: int, seed: int = 0) -> list[Constituent]:
    """Composition factors with multiplicities, grouped up to isomorphism.

    Output is sorted by dimension; callers wanting a finer canonical order
    sort by their own fingerprint.  Multiplicities are seed-independent.
    """
    rng = random.Random(seed)
    gens = [as_fp(M, p) for M in gens]
    classes: list[Constituent] = []
    stack = [gens]
    while stack:
        current = stack.pop()
        dim = current[0].shape[0]
        if dim == 0:
            continue
        U = _split_once(current, p, rng)
        if U is not None:
            stack.append(restrict_action(current, U, p))
            # V/U is dual to the annihilator of U under the transposes
            stack.append([A.T for A in restrict_action([M.T for M in current],
                                                        kernel(U, p), p)])
            continue
        for cls in classes:
            if cls.dim == dim and hom_space(current, cls.gens, p):
                cls.multiplicity += 1
                break
        else:
            classes.append(Constituent(dim=dim, gens=current, multiplicity=1))
    classes.sort(key=lambda c: c.dim)
    return classes


def hom_space(gens_S, gens_V, p: int) -> list[np.ndarray]:
    """Basis of equivariant maps S -> V as (dim V x dim S) matrices, by the
    standard-basis method (Parker 1984).  S is spun from greedy seeds, each
    unit vector not yet in the span, so every basis vector b_k is a seed or
    g b_i for an earlier b_i; a map X is fixed by the images y of the
    seeds, X b_k = Y_k y with Y_k the word of b_k in g_V.  X is equivariant
    exactly when g_V X b_k = X g_S b_k for every b_k and generator g, with
    g_S b_k in coordinates from one solve: kernels on y, dim V unknowns per
    seed, each relation cutting the solutions so far.  No relation among
    the generators, semisimplicity or cyclic S is assumed; callers condense
    V first."""
    gens_S = [as_fp(M, p) for M in gens_S]
    gens_V = [as_fp(M, p) for M in gens_V]
    m, n = gens_V[0].shape[0], gens_S[0].shape[0]
    ech, pivots, basis, origin = [], [], [], []  # origin of b_k: None (a seed) or (i, j): g_j b_i
    for seed in np.eye(n, dtype=np.int64):
        queue = deque([(seed, None)])
        while queue and len(basis) < n:
            v, source = queue.popleft()
            if _echelon_insert(ech, pivots, v, p)[1]:
                basis.append(v)
                origin.append(source)
                queue.extend((mm(M, v, p), (len(basis) - 1, j)) for j, M in enumerate(gens_S))
    unknowns = m * origin.count(None)
    Y = np.zeros((n, m, unknowns), dtype=np.int64)
    for k, source in enumerate(origin):
        if source is None:
            at = m * origin[:k].count(None)
            Y[k, :, at:at + m] = np.eye(m, dtype=np.int64)
        else:
            Y[k] = mm(gens_V[source[1]], Y[source[0]], p)
    B = np.stack(basis, axis=1)
    # the coordinates of g b_k for every generator g, and of the unit vectors
    *coords, B_inv = np.split(solve(B, np.concatenate(
        [mm(M, B, p) for M in gens_S] + [np.eye(n, dtype=np.int64)], axis=1), p),
        len(gens_S) + 1, axis=1)
    y = np.eye(unknowns, dtype=np.int64)
    for MV, C in zip(gens_V, coords):
        for block in (mm(MV, Y, p) - mm(C.T, Y.reshape(n, -1), p).reshape(Y.shape)) % p:
            if block.any():  # zero on a spanning-tree edge: g_j b_i is b_k
                y = mm(kernel(mm(block, y.T, p), p), y, p)
    # X B has columns Y_k y, so X = [Y_k y]_k B^-1
    XB = mm(Y.reshape(n * m, unknowns), y.T, p).reshape(n, m, len(y)).transpose(2, 1, 0)
    return list(mm(XB, B_inv, p))


def matrix_powers(M, count: int, p: int) -> np.ndarray:
    """M^k for k < count, stacked, in the narrowest signed dtype that holds
    0..p - 1: the 24 powers of sigma on the 1154-dim class module of Q_5
    n=2 take 32 MB in int8."""
    M = as_fp(M, p)
    out = np.empty((count,) + M.shape, dtype=np.min_scalar_type(1 - p))
    out[:1] = np.eye(len(M), dtype=np.int64)
    for k in range(1, count):
        out[k] = mm(out[k - 1], M, p)
    return out


def isotypic_part(gens_V, powers: np.ndarray, c: list[int],
                  p: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Rref rows W of ker c(g_V), g the first generator, and the action on W.

    For c the characteristic polynomial of g_S, every equivariant X: S -> V
    has c(g_V) X = X c(g_S) = 0 (Cayley-Hamilton), so its image lies in W.
    powers holds g_V^k for k < e, where g_V^e = 1 and p does not divide e:
    then x^e - 1 = r h with r = gcd(c, x^e - 1) and h coprime, and W is
    ker r(g_V) = ker c(g_V), the image of h(g_V), an elimination of rank
    dim W.  W is stable when the roots of c are closed under the group's
    conjugation of g (in the tower group sigma, of order e, with
    phi sigma phi^-1 = sigma^q); restrict_action certifies it."""
    e, dim = len(powers), len(gens_V[0])
    if e % p == 0:
        raise ValueError(f"x^{e} - 1 is not squarefree over F_{p}")
    cyclic = [p - 1] + [0] * (e - 1) + [1]
    # h mod x^e - 1: h itself, unless r = 1 and W = 0
    h = gfpoly.mod(gfpoly.divmod_poly(cyclic, gfpoly.gcd(c, cyclic, p), p)[0], cyclic, p)
    h = np.array(h + [0] * (e - len(h)), dtype=np.int64)
    # sum_k h_k g_V^k, a block of rows at a time: only that block is widened to int64
    image = np.concatenate([mm(h, powers[:, i:i + POWER_ROWS].reshape(e, -1), p)
                            for i in range(0, dim, POWER_ROWS)]).reshape(dim, dim)
    W = rref(image.T, p)[0]
    return W, restrict_action(gens_V, W, p)


def _mat_pow(M, e: int, p: int) -> np.ndarray:
    out = eye = np.eye(M.shape[0], dtype=np.int64)
    base = M % p
    while e:
        if e & 1:
            out = base if out is eye else mm(out, base, p)
        e >>= 1
        base = mm(base, base, p) if e else base
    return out


def enumerate_simple_submodules(gens_V, gens_S, end_degree: int,
                                p: int) -> list[np.ndarray]:
    """All submodules of V isomorphic to the simple module S, as canonical
    rref row bases sorted by the flattened basis.  V is normally an
    isotypic part, whose Hom from S is the Hom into the whole module.

    They are the images of the nonzero maps in H = Hom(S, V), and two maps
    share their image exactly when they differ by a unit of
    End(S) = F_{p^d}, d = end_degree.  One map per F_p-line of H therefore
    reaches each image (p^d - 1)/(p - 1) times; that count and the
    injectivity of every map are checked.  Once per call, S is checked to
    be simple and every basis map of H to be equivariant; an injective
    equivariant image of a simple S is stable and simple, so no image is
    restricted or spun.  A scan of more than MAX_HOM_LINES lines is refused
    with ValueError before the lines are built.
    """
    n = gens_S[0].shape[0]
    H = hom_space(gens_S, gens_V, p)
    if not H:
        return []
    if (p ** len(H) - 1) // (p - 1) > MAX_HOM_LINES:
        raise ValueError(f"Hom(S, V) has dimension {len(H)} over F_{p}: "
                         f"too many lines to scan (at most {MAX_HOM_LINES})")
    if not is_simple(gens_S, p):
        raise InvariantViolation("emitted subspace is not simple")
    stacked = np.stack(H)
    if any(np.any(mm(MV, stacked, p) != mm(stacked, MS, p)) for MV, MS in zip(gens_V, gens_S)):
        raise InvariantViolation("a map of Hom(S, V) is not equivariant")
    hits: dict[bytes, list] = {}  # image key -> [rows, times reached]
    for lines in _line_blocks(len(H), p):
        for h in mm(lines, stacked.reshape(len(H), -1), p).reshape(-1, *stacked.shape[1:]):
            ech = _echelon(h.T, p)[0]
            if len(ech) != n:
                raise InvariantViolation("hom from a simple module must be injective")
            rows = np.stack(ech)
            hits.setdefault(rows.tobytes(), [rows, 0])[1] += 1
    per_image = (p ** end_degree - 1) // (p - 1)
    for rows, times in hits.values():
        if times != per_image:
            raise InvariantViolation(
                f"an image is reached by {times} lines of Hom, {per_image} "
                f"expected at End degree {end_degree}")
    return sorted((rows for rows, _ in hits.values()), key=lambda rows: rows.ravel().tolist())


def _line_blocks(n: int, p: int):
    """One nonzero vector of F_p^n per line, those whose first nonzero
    coordinate is 1, lead by lead with the coordinate after the lead varying
    fastest, packed across leads into blocks of LINE_BLOCK rows (the last
    may be shorter).  A vector and its multiples spin the same subspace."""
    total = (p ** n - 1) // (p - 1)
    for start in range(0, total, LINE_BLOCK):
        block = np.zeros((min(LINE_BLOCK, total - start), n), dtype=np.int64)
        for lead in range(n):
            first = total - (p ** (n - lead) - 1) // (p - 1)  # the lead's first line
            lo, hi = max(start, first), min(start + len(block), first + p ** (n - lead - 1))
            if lo < hi:
                rows = block[lo - start:hi - start]
                rows[:, lead] = 1
                code = np.arange(lo - first, hi - first)
                for col in range(lead + 1, n):
                    np.remainder(code, p, out=rows[:, col])
                    code //= p
        yield block


def is_simple(sub_gens, p: int) -> bool:
    """Whether a module, given by its action matrices, is simple: every
    nonzero vector spins it up, checked exhaustively on one vector per
    line.  A line always is."""
    n = sub_gens[0].shape[0]
    return n == 1 or all(spin(sub_gens, v, p).shape[0] == n
                         for block in _line_blocks(n, p) for v in block)


def brute_feasible(dim: int, p: int) -> bool:
    """Whether an exhaustive scan of a dim-dimensional F_p-space is cheap."""
    return dim <= 14 and p ** dim <= 1 << 22


def brute_simple_submodules(gens_V, n: int, p: int):
    """Oracle: exhaustive scan over spins of one vector per line.

    Every simple submodule is the spin of each of its nonzero vectors, so
    collecting n-dimensional spins and filtering for simplicity is complete.
    One spin_stack per line block stops each spin once it passes n rows: its
    row count never shrinks, so it would be discarded, and no spin inside an
    n-dimensional submodule does.  Each distinct candidate is tested once.
    """
    gens_V = [as_fp(M, p) for M in gens_V]
    dim = gens_V[0].shape[0]
    if not brute_feasible(dim, p):
        raise ValueError(f"brute enumeration infeasible at dimension {dim}")
    simple: dict[tuple, bool] = {}  # every distinct candidate, certified once
    for block in _line_blocks(dim, p):
        rows, ranks = spin_stack(gens_V, block, p, n + 1)
        for sub in rows[ranks == n, :n]:
            if (key := tuple(sub.ravel().tolist())) not in simple:
                simple[key] = is_simple(restrict_action(gens_V, sub, p), p)
        del rows, ranks  # not held while the next block spins
    return [np.array(key, dtype=np.int64).reshape(n, dim) for key in sorted(simple) if simple[key]]

"""Univariate polynomial arithmetic over the prime field F_p.

Polynomials are lists of ints in [0, p), low degree first, trimmed so the
last entry is nonzero (the zero polynomial is the empty list).  One
Berlekamp algebra {b : b^p = b mod f} serves both polynomial decisions
(Berlekamp 1967): a squarefree f is irreducible exactly when the algebra is
F_p alone, and otherwise its elements split f.  Everything here is
deterministic; the splitter tries the c in F_p in ascending order and
factor lists are sorted by the value code sum(c_i * p^i), the canonical
ordering used across the package.
"""

from __future__ import annotations


def trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def poly_code(f: list[int], p: int) -> int:
    """Integer code of a polynomial: high-degree coefficient most significant."""
    code = 0
    for c in reversed(f):
        code = code * p + c
    return code


def sub(f, g, p):
    n = max(len(f), len(g))
    out = [0] * n
    for i, c in enumerate(f):
        out[i] = c
    for i, c in enumerate(g):
        out[i] = (out[i] - c) % p
    return trim(out)


def mul(f, g, p):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return trim([c % p for c in out])


def scale(f, a, p):
    a %= p
    return trim([(a * c) % p for c in f])


def divmod_poly(f, g, p):
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    f = list(f)
    q = [0] * max(len(f) - len(g) + 1, 0)
    inv_lead = pow(g[-1], p - 2, p)
    while len(f) >= len(g):
        if f[-1] == 0:
            f.pop()
            continue
        shift = len(f) - len(g)
        coeff = (f[-1] * inv_lead) % p
        q[shift] = coeff
        for i, c in enumerate(g):
            f[shift + i] = (f[shift + i] - coeff * c) % p
        f.pop()
    return trim(q), trim(f)


def mod(f, g, p):
    return divmod_poly(f, g, p)[1]


def monic(f, p):
    if not f:
        return f
    return scale(f, pow(f[-1], p - 2, p), p)


def gcd(f, g, p):
    while g:
        f, g = g, mod(f, g, p)
    return monic(f, p)


def pow_mod(f, e: int, m, p):
    """f^e mod m by square and multiply."""
    result = [1]
    base = mod(f, m, p)
    while e:
        if e & 1:
            result = mod(mul(result, base, p), m, p)
        base = mod(mul(base, base, p), m, p)
        e >>= 1
    return result


def derivative(f, p):
    return trim([(i * f[i]) % p for i in range(1, len(f))])


def is_irreducible(f, p) -> bool:
    """f is squarefree and its Berlekamp algebra is one-dimensional."""
    return (len(f) > 1 and gcd(f, derivative(f, p), p) == [1]
            and len(_berlekamp_fixed(f, p)) == 1)


def _pth_root_substitute(f, p):
    # f = h(x^p) with all exponents divisible by p; over F_p, c^(1/p) = c.
    return trim([f[i] for i in range(0, len(f), p)])


def _berlekamp_fixed(f, p):
    """Basis of the Berlekamp algebra {b : b^p = b mod f}, the kernel of
    Q - I with row i of Q the coefficients of x^(p*i) mod f."""
    from .modrep import kernel  # modrep imports this module
    d = len(f) - 1
    xp = pow_mod([0, 1], p, f, p)
    rows, cur = [], [1]
    for _ in range(d):
        rows.append(cur + [0] * (d - len(cur)))
        cur = mod(mul(cur, xp, p), f, p)
    q_minus_i_t = [[(rows[i][j] - (1 if i == j else 0)) % p for i in range(d)]
                   for j in range(d)]
    return [trim([int(c) for c in v]) for v in kernel(q_minus_i_t, p)]


def _berlekamp_split(f, p):
    """Distinct monic irreducible factors of a squarefree monic f."""
    fixed = _berlekamp_fixed(f, p)
    if len(fixed) == 1:
        return [f]
    b = next(v for v in fixed if len(v) > 1)
    pieces = []
    for c in range(p):
        g = gcd(sub(b, [c], p), f, p)
        if len(g) > 1 and len(g) < len(f):
            pieces.append(g)
    out = []
    for piece in pieces:
        out.extend([piece] if len(piece) - 1 == 1 else _berlekamp_split(piece, p))
    return out


def distinct_irreducible_factors(f, p) -> list[list[int]]:
    """The set of monic irreducible factors of f, sorted by value code."""
    f = monic(trim(list(f)), p)
    found: dict[int, list[int]] = {}

    def walk(g):
        g = monic(g, p)
        if len(g) <= 1:
            return
        d = derivative(g, p)
        if not d:
            walk(_pth_root_substitute(g, p))
            return
        r = gcd(g, d, p)
        if r == [1]:
            for piece in _berlekamp_split(g, p):
                found[poly_code(piece, p)] = piece
            return
        walk(divmod_poly(g, r, p)[0])
        walk(r)

    walk(f)
    return [found[k] for k in sorted(found)]

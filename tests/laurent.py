"""Reference arithmetic on equal-characteristic class elements: finite
Laurent polynomials held as dicts {exponent: nonzero coefficient}."""


def laurent_sum(x, y):
    out = dict(x)
    for k, v in y.items():
        s = out[k] + v if k in out else v
        if s.is_zero():
            out.pop(k, None)
        else:
            out[k] = s
    return out


def laurent_product(x, y):
    out = {}
    for i, a in x.items():
        for j, b in y.items():
            out = laurent_sum(out, {i + j: a * b})
    return out


def artin_schreier_image(x, p):
    """x^p - x: coefficientwise Frobenius with exponents times p, minus x."""
    return laurent_sum({k * p: v ** p for k, v in x.items()},
                       {k: -v for k, v in x.items()})


def random_laurent(F, rng, low, high):
    """Random coefficients at exponents low .. high - 1, zeros dropped."""
    coeffs = {k: F.from_code(rng.randrange(F.order)) for k in range(low, high)}
    return {k: v for k, v in coeffs.items() if not v.is_zero()}

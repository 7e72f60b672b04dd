"""Reference predicates on characteristic-0 ring elements, read off the
stored data and the validity window."""

from wildprim.errors import PrecisionExhausted


def is_zero_to_window(x):
    """Whether x is zero modulo pi^window."""
    v = x._stored_val()
    return v is None or v >= x.window


def agrees_with(x, y):
    """Equality up to the smaller validity window."""
    return is_zero_to_window(x - y)


def leading(x):
    """(valuation, residue of x / pi^valuation)."""
    v = x.val()
    return v, x.digit(v)


def val_at_most(x, bound):
    """x.val() if it is <= bound, else None (certified); needs window > bound."""
    if x.window <= bound:
        raise PrecisionExhausted(f"window {x.window} cannot certify valuations up to {bound}")
    v = x._stored_val()
    return None if v is None or v > bound else v

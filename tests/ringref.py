"""Reference predicates on characteristic-0 ring elements, read off the
stored data and the validity window."""


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

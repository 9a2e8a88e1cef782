"""Reference checks for the library's group code: the associativity check
it ran before Light's test, every triple at once as two n x n x n int64
grids, which tests compare with the library's verdict on tables that are
not all groups; and the power loop that Domain.element_orders replaces.
"""


def is_associative(mul):
    """(ab)c == a(bc) for every a, b, c of a table with entries in range."""
    return bool((mul[mul, :] == mul[:, mul]).all())


def element_order(domain, a):
    """The order of a by repeated products; ValueError when a power of a
    leaves the domain."""
    k, x = 1, a
    while x != domain.identity:
        x = domain.op(x, a)
        if x < 0:
            raise ValueError(
                f"power {k + 1} of element {a} leaves {domain.name}")
        k += 1
    return k

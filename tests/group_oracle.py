"""The associativity check the library ran before Light's test: every
triple at once, as two n x n x n int64 grids. Tests compare the library's
verdict with this one on tables that are not all groups.
"""


def is_associative(mul):
    """(ab)c == a(bc) for every a, b, c of a table with entries in range."""
    return bool((mul[mul, :] == mul[:, mul]).all())

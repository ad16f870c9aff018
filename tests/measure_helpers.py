"""Comparisons of Gabriel-Roiter measures the tests use and the package
does not: the package orders measures by `gr.measure_key` alone."""

from tamehall.gr import as_measure, measure_key


def compare_measures(I, J) -> str:
    """Total order on measures: smaller when the smallest element of the
    symmetric difference belongs to the other set."""
    a, b = measure_key(as_measure(I)), measure_key(as_measure(J))
    return "=" if a == b else "<" if a < b else ">"


def measure_less(I, J) -> bool:
    return compare_measures(I, J) == "<"


def starts_with(I, J) -> bool:
    """True when J equals I or continues I using strictly larger elements."""
    a, b = as_measure(I), as_measure(J)
    if a == b:
        return True
    sa, sb = set(a), set(b)
    if not sa < sb:
        return False
    return not a or max(a) < min(sb - sa)

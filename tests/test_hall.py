import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamehall import hall, homreg, reps
from tamehall.errors import (
    InternalInconsistencyError,
    InvalidInputError,
    VerificationError,
)
from tamehall.functors import build_preinjective, build_preprojective, reflect_plus
from tamehall.gf import field, rank
from tamehall.hall import (
    HallPolynomial,
    PINNED_SINK_POLYNOMIALS,
    SAMPLE_FIELDS,
    HallTableRow,
    gr_form_check,
    hall_number,
    hall_number_sink_fast,
    hall_number_sink_lines,
    hall_poly_f,
    hall_poly_for_root,
    hall_table,
    interpolate,
    necklace_count,
    sample_counts,
    table_mismatches,
)
from tamehall.homreg import build_homogeneous_simples
from tamehall.quiver import preset_quiver, radical_delta, reorient_toward
from tamehall.reps import (
    direct_sum,
    hom_basis,
    hom_combination,
    projective_rep,
    simple_rep,
)

from class_blocks import scalar_class_blocks
from rep_helpers import reps_equal

K = preset_quiver("kronecker")
D4 = preset_quiver("dtilde:4")
D4_SINK = 2


def unit(Q, i):
    return tuple(1 if j == i else 0 for j in range(Q.n))


def expected_quotient(Q, F, i):
    delta = radical_delta(Q)
    dims = tuple(d - (1 if j == i else 0) for j, d in enumerate(delta))
    return build_preinjective(Q, F, dims)


def first_regular(Q, F):
    return build_homogeneous_simples(Q, F)[0][1]


# ---------------------------------------------------------- polynomial type


def test_hall_polynomial_basics():
    p = HallPolynomial((7, -5, 1), ((3, 1), (4, 3), (5, 7)), (11, 13))
    assert p.degree() == 2
    assert p(3) == 1 and p(11) == 73
    assert p.format() == "q^2 - 5*q + 7"
    assert HallPolynomial((1,), ((3, 1),), ()).format() == "1"
    assert HallPolynomial((-3, 1), ((3, 0),), ()).format() == "q - 3"
    assert HallPolynomial((0, 2), (), ()).format() == "2*q"


# ------------------------------------------------------------ generic count


def test_generic_hall_numbers_a2():
    Q = preset_quiver("a:2")
    F = field(3)
    P = projective_rep(Q, F, 0)
    S0 = simple_rep(Q, F, 0)
    S1 = simple_rep(Q, F, 1)
    assert hall_number(P, S0, S1) == 1
    assert hall_number(P, S1, S0) == 0
    both = direct_sum(S0, S1)
    assert hall_number(both, S0, S1) == 1
    assert hall_number(both, S1, S0) == 1


def test_generic_hall_number_dim_mismatch_is_zero():
    Q = preset_quiver("a:2")
    F = field(3)
    P = projective_rep(Q, F, 0)
    S0 = simple_rep(Q, F, 0)
    assert hall_number(P, S0, S0) == 0


def test_generic_hall_number_rejects_mixed_fields():
    Q = preset_quiver("a:2")
    P = projective_rep(Q, field(3), 0)
    S0 = simple_rep(Q, field(5), 0)
    S1 = simple_rep(Q, field(3), 1)
    with pytest.raises(InvalidInputError):
        hall_number(P, S0, S1)


def test_generic_hall_number_builds_end_of_the_fixed_modules_once(monkeypatch):
    # R is a rigid brick: every subrep of dimension dim R and its quotient
    # are compared with R through dim End, which is kept on R
    R = build_preinjective(D4, field(3), (0, 1, 1, 1, 1))
    ends = []
    system = reps._hom_system
    monkeypatch.setattr(reps, "_hom_system",
                        lambda M, N: ends.append(M is R and N is R) or system(M, N))
    # the q + 1 lines of Hom(R, R + R), each with quotient R
    assert hall_number(direct_sum(R, R), R, R) == 4
    assert sum(ends) <= 1 and len(ends) > 2


# ---------------------------------------------------------- one-sink counts


def test_kronecker_sink_count_is_one_for_every_regular():
    F = field(3)
    I = expected_quotient(K, F, 1)
    S_sink = simple_rep(K, F, 1)
    for _, R in build_homogeneous_simples(K, F):
        assert hall_number_sink_fast(R, 1, I) == 1
        assert hall_number_sink_lines(R, 1) == 1
        assert hall_number(R, I, S_sink) == 1


def test_dtilde4_sink_counts_frozen():
    for q, expected in [(3, 0), (5, 2)]:
        F = field(q)
        R = first_regular(D4, F)
        I = expected_quotient(D4, F, D4_SINK)
        fast = hall_number_sink_fast(R, D4_SINK, I)
        assert fast == expected
        assert hall_number_sink_lines(R, D4_SINK) == expected
        assert hall_number(R, I, simple_rep(D4, F, D4_SINK)) == expected


def test_triple_route_agreement_kronecker_gf4():
    F = field(4)
    I = expected_quotient(K, F, 1)
    S_sink = simple_rep(K, F, 1)
    for _, R in build_homogeneous_simples(K, F):
        fast = hall_number_sink_fast(R, 1, I)
        assert fast == hall_number_sink_lines(R, 1)
        assert fast == hall_number(R, I, S_sink)
        assert fast == 1


def test_fast_count_rejects_bad_instances():
    F = field(3)
    R = first_regular(K, F)
    I = expected_quotient(K, F, 1)
    with pytest.raises(InvalidInputError):
        hall_number_sink_fast(R, 0, I)
    with pytest.raises(InvalidInputError):
        hall_number_sink_fast(simple_rep(K, F, 1), 1, I)
    with pytest.raises(InvalidInputError):
        hall_number_sink_fast(R, 1, simple_rep(K, F, 1))
    with pytest.raises(InvalidInputError):
        hall_number_sink_fast(R, 5, I)


def all_vertex_count(R, I):
    """Reference one-sink count: scalar classes of Hom(R, I) whose map is
    onto I_j at every vertex, each checked on the whole of I_j."""
    F = R.field
    basis = hom_basis(R, I)
    total = 0
    for block in scalar_class_blocks(F.q, len(basis)):
        for coeffs in block:
            phi = hom_combination(F, basis, coeffs)
            total += all(rank(F, phi[j]) == d for j, d in enumerate(I.dims) if d)
    return total


@pytest.mark.parametrize("name,q", [
    ("dtilde:4", 3), ("dtilde:4", 4), ("dtilde:5", 3), ("dtilde:6", 3),
    ("e6tilde", 3), ("e6tilde", 4), ("e7tilde", 3), ("e8tilde", 3),
    # extension fields, whose field ops are table lookups; of these cases
    # only e8tilde's rows reach tops of 2 x 2, 2 x 4 and 3 x 3
    ("dtilde:4", 8), ("dtilde:4", 9), ("e6tilde", 9), ("e8tilde", 4),
])
def test_top_only_count_matches_all_vertex_count_at_every_sink(name, q):
    Q = preset_quiver(name)
    F = field(q)
    delta = radical_delta(Q)
    for i in range(Q.n):
        if delta[i] > 4:
            continue  # the e8tilde rows m = 5, 6: seconds per count in the references
        Qi = reorient_toward(Q, i)
        R = next(homreg.homogeneous_simples(Qi, F))[1]
        I = expected_quotient(Qi, F, i)
        fast = hall_number_sink_fast(R, i, I)
        assert fast == all_vertex_count(R, I) == hall_number_sink_lines(R, i)
        assert fast == sum(c * q ** k for k, c in enumerate(PINNED_SINK_POLYNOMIALS[delta[i]]))


def test_fast_count_rejects_a_nonzero_quotient_with_zero_top(monkeypatch):
    F = field(3)
    R = first_regular(D4, F)
    I = expected_quotient(D4, F, D4_SINK)
    monkeypatch.setattr(hall, "top_projection",
                        lambda M: tuple(F.zeros(0, d) for d in M.dims))
    with pytest.raises(InternalInconsistencyError):
        hall_number_sink_fast(R, D4_SINK, I)


# ------------------------------------------------------------------ samples


def test_sample_counts_dtilde4_frozen():
    assert sample_counts(D4, D4_SINK, (3, 4, 5)) == [(3, 0), (4, 1), (5, 2)]


def test_sample_counts_rejects_two_element_field():
    with pytest.raises(InvalidInputError):
        sample_counts(D4, D4_SINK, (2, 3))


# ------------------------------------------------------------ interpolation


def test_interpolate_line():
    p = interpolate([(3, 0), (4, 1), (5, 2)], 1, [(11, 8), (13, 10)])
    assert p.coeffs == (-3, 1)
    assert p.samples == ((3, 0), (4, 1), (5, 2))
    assert p.verified_at == (11, 13)


def test_interpolate_rejects_non_integer_coefficients():
    with pytest.raises(VerificationError):
        interpolate([(3, 1), (5, 7), (7, 17)], 2)


def test_interpolate_rejects_degree_above_cap():
    with pytest.raises(VerificationError):
        interpolate([(3, 9), (4, 16), (5, 25)], 1)


def test_interpolate_rejects_verification_mismatch():
    with pytest.raises(VerificationError):
        interpolate([(3, 0), (4, 1), (5, 2)], 1, [(11, 9)])


def test_interpolate_rejects_bad_samples():
    with pytest.raises(InvalidInputError):
        interpolate([(3, 0), (3, 1)], 1)
    with pytest.raises(InvalidInputError):
        interpolate([(3, 0)], 1)


def lagrange_coefficients(points):
    """The Lagrange loop that `interpolate` ran before it solved the
    Vandermonde system, kept as its oracle: the coefficients, lowest
    degree first and trailing zeros trimmed, of the polynomial of degree
    below len(points) through the points."""
    coeffs = [Fraction(0)] * len(points)
    for k, (xk, yk) in enumerate(points):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j == k:
                continue
            new = [Fraction(0)] * (len(basis) + 1)
            for d, c in enumerate(basis):
                new[d] -= c * xj
                new[d + 1] += c
            basis = new
            denom *= xk - xj
        scale = Fraction(yk) / denom
        for d, c in enumerate(basis):
            coeffs[d] += c * scale
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


INTERPOLATION = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@INTERPOLATION
@given(st.lists(st.integers(-50, 50), min_size=1, max_size=6), st.booleans())
def test_interpolate_recovers_integer_polynomials_like_lagrange(coeffs, every_field):
    # values of a polynomial of degree <= 5 at the first deg + 1 sample
    # fields, or at all six
    n = len(SAMPLE_FIELDS) if every_field else len(coeffs)
    pts = [(q, sum(c * q ** d for d, c in enumerate(coeffs))) for q in SAMPLE_FIELDS[:n]]
    p = interpolate(pts, len(coeffs) - 1)
    expected = list(coeffs)
    while len(expected) > 1 and expected[-1] == 0:
        expected.pop()
    assert list(p.coeffs) == expected == lagrange_coefficients(pts)
    assert p.samples == tuple(pts)


@INTERPOLATION
@given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=6), st.data())
def test_interpolate_agrees_with_lagrange_on_arbitrary_counts(values, data):
    # arbitrary counts: the interpolant may have fractions or a high degree
    pts = list(zip(SAMPLE_FIELDS, values))
    cap = data.draw(st.integers(0, len(pts) - 1))
    oracle = lagrange_coefficients(pts)
    if any(c.denominator != 1 for c in oracle) or len(oracle) - 1 > cap:
        with pytest.raises(VerificationError):
            interpolate(pts, cap)
    else:
        assert list(interpolate(pts, cap).coeffs) == oracle


# -------------------------------------------------------- polynomial builds


def test_hall_poly_f_kronecker():
    p = hall_poly_f(K, 1)
    assert p.coeffs == (1,)
    assert p.samples == ((3, 1),)
    assert p.verified_at == (11, 13)


def test_hall_poly_f_dtilde4():
    p = hall_poly_f(D4, D4_SINK)
    assert p.coeffs == PINNED_SINK_POLYNOMIALS[2]
    assert p.samples == ((3, 0), (4, 1))
    assert p.verified_at == (11, 13)


def test_hall_poly_for_root_kronecker():
    p = hall_poly_for_root(K, (1, 2))
    assert p.coeffs == (1,)


def test_hall_poly_for_root_dtilde4_center():
    p = hall_poly_for_root(D4, unit(D4, D4_SINK))
    assert p.coeffs == PINNED_SINK_POLYNOMIALS[2]


def test_hall_poly_for_root_rejections():
    with pytest.raises(InvalidInputError):
        hall_poly_for_root(K, (1, 1))
    with pytest.raises(InvalidInputError):
        hall_poly_for_root(K, (1, 0))


# -------------------------------------------------------------------- table


def test_hall_table_dtilde4_matches_pinned():
    rows = hall_table(D4)
    assert [r.multiplicity for r in rows] == [1, 2]
    assert table_mismatches(rows) == []
    for r in rows:
        assert r.poly.coeffs == PINNED_SINK_POLYNOMIALS[r.multiplicity]
        assert 11 in r.poly.verified_at


def test_hall_table_e6tilde_matches_pinned():
    rows = hall_table(preset_quiver("e6tilde"))
    assert [r.multiplicity for r in rows] == [1, 2, 3]
    assert table_mismatches(rows) == []


def test_cross_type_agreement_for_double_sink():
    e7 = preset_quiver("e7tilde")
    delta = radical_delta(e7)
    i = min(j for j in range(e7.n) if delta[j] == 2)
    from tamehall.quiver import reorient_toward
    p_e7 = hall_poly_f(reorient_toward(e7, i), i)
    assert p_e7.coeffs == hall_poly_f(D4, D4_SINK).coeffs


def test_table_mismatch_reporting():
    fake = HallTableRow(2, 0, HallPolynomial((1, 1), (), ()))
    out = table_mismatches([fake])
    assert len(out) == 1 and "m=2" in out[0]


# ------------------------------------------------------- geometric-sum form


def test_gr_form_check_examples():
    assert gr_form_check((1,), 1) == 0
    assert gr_form_check((1, 1), 2) == 0
    assert gr_form_check((0, 1), 2) == 1
    assert gr_form_check((-3, 1), 2) is None
    assert gr_form_check((1, 1, 1), 3) == 0
    assert gr_form_check((0, 0, 1), 3) == 2
    for m in range(2, 7):
        assert gr_form_check(PINNED_SINK_POLYNOMIALS[m], m) is None
    assert gr_form_check(PINNED_SINK_POLYNOMIALS[1], 1) == 0
    assert gr_form_check(HallPolynomial((0, 1, 1), (), ()), 3) == 1
    with pytest.raises(InvalidInputError):
        gr_form_check((1,), 0)


# -------------------------------------------------- reflection invariance


def reflected_triple(M, N1, N2, i):
    return reflect_plus(M, i), reflect_plus(N1, i), reflect_plus(N2, i)


def test_reflection_invariance_a3():
    Q = preset_quiver("a:3")
    F = field(3)
    P0 = projective_rep(Q, F, 0)
    P1 = projective_rep(Q, F, 1)
    S0 = simple_rep(Q, F, 0)
    S1 = simple_rep(Q, F, 1)
    triples = [
        (P0, S0, P1),
        (P0, P1, S0),
        (direct_sum(S0, P1), S0, P1),
        (direct_sum(P0, S1), S1, P0),
        (direct_sum(S0, S1), S0, S1),
    ]
    for M, N1, N2 in triples:
        before = hall_number(M, N1, N2)
        RM, R1, R2 = reflected_triple(M, N1, N2, 2)
        assert hall_number(RM, R1, R2) == before


def test_reflection_invariance_dtilde4():
    F = field(3)
    X = build_preprojective(D4, F, (1, 0, 1, 0, 0))
    Y = build_preprojective(D4, F, (0, 1, 1, 0, 0))
    R = first_regular(D4, F)
    Z = build_preinjective(D4, F, (0, 1, 1, 1, 1))
    triples = [
        (direct_sum(X, Y), X, Y),
        (direct_sum(X, Y), Y, X),
        (R, Z, X),
    ]
    for M, N1, N2 in triples:
        before = hall_number(M, N1, N2)
        RM, R1, R2 = reflected_triple(M, N1, N2, D4_SINK)
        assert hall_number(RM, R1, R2) == before


# ---------------------------------------------------------------- necklaces


def _poly_mul(F, a, b):
    out = [np.int64(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = F.add(out[i + j], F.mul(x, y))
    return [int(v) for v in out]


def _brute_irreducible_count(q, l):
    """Count degree-l monic irreducibles by sieving out products."""
    F = field(q)
    monics = {}
    for deg in range(1, l + 1):
        monics[deg] = [tuple(list(c) + [1]) for c in
                       itertools.product(range(q), repeat=deg)]
    reducible = set()
    for d1 in range(1, l):
        for d2 in range(d1, l):
            if d1 + d2 > l:
                break
            for a in monics[d1]:
                for b in monics[d2]:
                    p = _poly_mul(F, [np.int64(v) for v in a], [np.int64(v) for v in b])
                    if len(p) - 1 <= l:
                        reducible.add(tuple(p))
    return sum(1 for m in monics[l] if m not in reducible)


def test_necklace_small_values():
    assert necklace_count(2, 1) == 2
    assert necklace_count(5, 1) == 5
    assert necklace_count(2, 2) == 1
    assert necklace_count(2, 3) == 2
    assert necklace_count(3, 2) == 3
    assert necklace_count(4, 2) == 6
    assert necklace_count(5, 3) == 40
    assert necklace_count(2, 12) == 335


def test_necklace_matches_irreducible_sieve():
    for q, l in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2), (5, 2)]:
        assert necklace_count(q, l) == _brute_irreducible_count(q, l)


def test_necklace_rejects_bad_degree():
    with pytest.raises(InvalidInputError):
        necklace_count(3, 0)


def test_sample_counts_builds_only_the_members_it_reads(monkeypatch):
    real = homreg.is_simple_homogeneous
    calls = []
    monkeypatch.setattr(homreg, "is_simple_homogeneous",
                        lambda M: calls.append(M) or real(M))
    # the family memo outlives a call: start from an empty one, so that D4
    # is the orientation each field's family is built in
    homreg._graph_family.cache_clear()
    # the exceptional tubes of D~4 sit at 0, 1 and inf, which are scanned
    # last: GF(5) tests two points, '2' and '3', the two members the count
    # and its cross-check read
    sample_counts(D4, D4_SINK, (5,))
    assert len(calls) == 2
    # over GF(4) the scan goes on to the second member ('3'), and over
    # GF(3), which carries one homogeneous module, to the end of the line
    calls.clear()
    sample_counts(D4, D4_SINK, (4,))
    assert len(calls) == 2
    calls.clear()
    sample_counts(D4, D4_SINK, (3,))
    assert len(calls) == 3 + 1
    # another orientation of the same graph reads the two built members,
    # moved by sink reflections and each tested once on its new quiver
    calls.clear()
    Q0 = reorient_toward(D4, 0)
    sample_counts(Q0, 0, (5,))
    assert [M.quiver for M in calls] == [Q0, Q0]


def test_hall_table_builds_one_family_per_field(monkeypatch):
    real = homreg.regular_pair
    calls = []
    monkeypatch.setattr(homreg, "regular_pair",
                        lambda Q, F: calls.append((Q, F.q)) or real(Q, F))
    homreg._graph_family.cache_clear()
    Q = preset_quiver("e7tilde")
    rows = hall_table(Q)
    # rows m = 1..4 sample GF(3), GF(3..4), GF(3..5), GF(3..7), each
    # verified at GF(11) and GF(13): 18 (row, field) pairs, 6 fields
    assert not table_mismatches(rows)
    assert sum(len(r.poly.samples) + len(r.poly.verified_at) for r in rows) == 18
    assert sorted(q for _, q in calls) == [3, 4, 5, 7, 11, 13]
    # every field's family is scanned in one base orientation of the graph
    assert len({Q for Q, _ in calls}) == 1


def test_sample_counts_cross_check_compares_two_modules(monkeypatch):
    seen = []

    def fake_count(R, i, I):
        seen.append(R)
        return len(seen)

    monkeypatch.setattr(hall, "hall_number_sink_fast", fake_count)
    homreg._graph_family.cache_clear()  # D4's own family, not a moved one
    with pytest.raises(VerificationError):
        sample_counts(D4, D4_SINK, (4,))
    fam = build_homogeneous_simples(D4, field(4))
    assert len(seen) == 2
    assert all(reps_equal(R, M) for R, (_, M) in zip(seen, fam))


@pytest.mark.parametrize("name, counts, checked_at", [
    ("kronecker", 4, [[3]]),
    ("dtilde:4", 9, [[11], [4]]),
    ("e7tilde", 22, [[11], [4], [4], [4]]),
])
def test_hall_table_cross_checks_each_polynomial_once(monkeypatch, name, counts, checked_at):
    real = hall.hall_number_sink_fast
    fields = []
    monkeypatch.setattr(hall, "hall_number_sink_fast",
                        lambda R, i, I: fields.append(R.field.q) or real(R, i, I))
    # a progress call opens each row
    rows = hall_table(preset_quiver(name), progress=lambda _: fields.append(None))
    assert not table_mismatches(rows)
    # one count per sample and per held-out field, and one cross-check
    assert len(fields) - len(rows) == counts == sum(
        len(r.poly.samples) + len(r.poly.verified_at) + 1 for r in rows)
    per_row = [[]]
    for q in fields[1:]:
        if q is None:
            per_row.append([])
        else:
            per_row[-1].append(q)
    assert [[q for q in set(row) if row.count(q) == 2] for row in per_row] == checked_at


def test_hall_poly_f_cross_check_compares_two_modules(monkeypatch):
    # the count is right on each field's first module and off by one on
    # any other, so only the module cross-check can see it
    real = hall.hall_number_sink_fast
    first = {}

    def fake_count(R, i, I):
        count = real(R, i, I)
        return count if first.setdefault(R.field.q, R) is R else count + 1

    monkeypatch.setattr(hall, "hall_number_sink_fast", fake_count)
    with pytest.raises(VerificationError, match="depends on the homogeneous module"):
        hall_poly_f(D4, D4_SINK)
    # GF(3) carries one homogeneous module on D~4, GF(4) two
    assert sorted(first) == [3, 4]

import itertools

import numpy as np
import pytest

from tamehall import hall, homreg
from tamehall.errors import (
    InvalidInputError,
    VerificationError,
)
from tamehall.functors import build_preinjective, build_preprojective, reflect_plus
from tamehall.gf import field
from tamehall.hall import (
    HallPolynomial,
    PINNED_SINK_POLYNOMIALS,
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
from tamehall.quiver import preset_quiver, radical_delta
from tamehall.reps import (
    direct_sum,
    projective_rep,
    reps_equal,
    simple_rep,
)

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


def _line_position(label, q):
    return q if label == "inf" else int(label)


def test_sample_counts_builds_only_the_members_it_reads(monkeypatch):
    real = homreg.is_simple_homogeneous
    calls = []
    monkeypatch.setattr(homreg, "is_simple_homogeneous",
                        lambda M: calls.append(M) or real(M))
    # without the cross-check the scan stops at the first homogeneous point
    first = build_homogeneous_simples(D4, field(5))[0][0]
    calls.clear()
    sample_counts(D4, D4_SINK, (5,), cross_check=False)
    assert len(calls) == _line_position(first, 5) + 1 < 5 + 1
    # with it, the scan goes on to the second member, and over GF(3), which
    # carries one homogeneous module, to the end of the line
    second = build_homogeneous_simples(D4, field(4))[1][0]
    calls.clear()
    sample_counts(D4, D4_SINK, (4,))
    assert len(calls) == _line_position(second, 4) + 1
    calls.clear()
    sample_counts(D4, D4_SINK, (3,))
    assert len(calls) == 3 + 1


def test_sample_counts_cross_check_compares_two_modules(monkeypatch):
    seen = []

    def fake_count(R, i, I):
        seen.append(R)
        return len(seen)

    monkeypatch.setattr(hall, "hall_number_sink_fast", fake_count)
    with pytest.raises(VerificationError):
        sample_counts(D4, D4_SINK, (4,))
    fam = build_homogeneous_simples(D4, field(4))
    assert len(seen) == 2
    assert all(reps_equal(R, M) for R, (_, M) in zip(seen, fam))

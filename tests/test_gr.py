import itertools

import numpy as np
import pytest

from tamehall.errors import (
    InfeasibleEnumerationError,
    InvalidInputError,
)
from tamehall.functors import build_preinjective, build_preprojective
from tamehall.gf import field
from tamehall.gr import (
    _rep_measure,
    _root_measure,
    as_measure,
    compare_measures,
    count_submodules_report,
    gr_measure,
    gr_submodules,
    is_indecomposable,
    max_measure,
    measure_less,
    starts_with,
    verify_main_theorem,
)
from tamehall.homreg import build_homogeneous_simples
from tamehall.quiver import defect, positive_real_roots, preset_quiver, radical_delta
from tamehall.reps import (
    Rep,
    direct_sum,
    end_dim,
    hom_basis,
    hom_combination,
    injective_classes,
    is_brick,
    is_injective_morphism,
    is_isomorphic,
    projective_rep,
    simple_rep,
)

from rep_helpers import zero_rep

K = preset_quiver("kronecker")
D4 = preset_quiver("dtilde:4")


def preproj_roots(Q, max_len):
    delta = radical_delta(Q)
    box = tuple(min(v, max_len) for v in tuple(2 * d for d in delta))
    out = [x for x in positive_real_roots(Q, box)
           if defect(Q, x) < 0 and sum(x) <= max_len]
    return out


def preinj_roots(Q, max_len):
    delta = radical_delta(Q)
    box = tuple(2 * d for d in delta)
    return [x for x in positive_real_roots(Q, box)
            if defect(Q, x) > 0 and sum(x) <= max_len]


def d4_pool(F, max_len=6):
    """Indecomposable preprojectives and preinjectives on D~4 up to length 6."""
    out = [build_preprojective(D4, F, x) for x in preproj_roots(D4, max_len)]
    out += [build_preinjective(D4, F, x) for x in preinj_roots(D4, max_len - 1)]
    return out


# ------------------------------------------------------------------- order


def test_compare_measures_examples():
    assert compare_measures({1, 2}, {1, 3}) == ">"
    assert compare_measures({1, 3}, {1, 2, 3}) == "<"
    assert compare_measures({1, 2, 5}, {1, 2, 5}) == "="
    assert compare_measures({1, 2}, {1, 2, 5}) == "<"
    assert compare_measures({1, 2, 5}, {1, 2, 6}) == ">"


def test_compare_measures_is_a_total_order():
    universe = [frozenset(s) for r in range(1, 4)
                for s in itertools.combinations(range(1, 5), r)]
    for a, b in itertools.combinations(universe, 2):
        ab, ba = compare_measures(a, b), compare_measures(b, a)
        assert {ab, ba} == {"<", ">"}
    for a, b, c in itertools.permutations(universe, 3):
        if measure_less(a, b) and measure_less(b, c):
            assert measure_less(a, c)


def test_starts_with_examples():
    assert starts_with({1, 2}, {1, 2, 6})
    assert not starts_with({1, 3}, {1, 2, 3})
    assert starts_with({1, 3}, {1, 3})
    assert starts_with({2}, {2, 3})
    assert not starts_with({2, 3}, {2})
    assert not starts_with({3}, {1, 3})


def test_measure_helpers():
    assert as_measure([3, 1, 2]) == (1, 2, 3)
    assert max_measure([(1,), (1, 2), (1, 3)]) == (1, 2)
    with pytest.raises(InvalidInputError):
        max_measure([])
    with pytest.raises(InvalidInputError):
        as_measure([0, 1])


# -------------------------------------------------------------- indec test


def test_is_indecomposable():
    F = field(3)
    S0 = simple_rep(K, F, 0)
    assert is_indecomposable(S0)
    assert not is_indecomposable(direct_sum(S0, S0))
    P = projective_rep(K, F, 0)
    assert is_indecomposable(P)
    assert not is_indecomposable(direct_sum(P, simple_rep(K, F, 1)))


def test_is_indecomposable_splits_off_simple_projectives_and_injectives():
    """S^4 at the sink or at the source of the Kronecker quiver over GF(3)
    has 3^16 endomorphisms, over the idempotent scan's budget; S^2 on a
    single vertex has no arrow at all."""
    F = field(3)
    for i in (0, 1):
        S = simple_rep(K, F, i)
        M = direct_sum(direct_sum(S, S), direct_sum(S, S))
        assert end_dim(M) == 16 and not is_indecomposable(M)
    S = simple_rep(preset_quiver("a:1"), F, 0)
    assert not is_indecomposable(direct_sum(S, S))


# ----------------------------------------------------------------- measure


def test_simple_measures():
    for name in ("a:2", "kronecker", "dtilde:4"):
        Q = preset_quiver(name)
        for q in (2, 3):
            F = field(q)
            for i in range(Q.n):
                assert gr_measure(simple_rep(Q, F, i)) == (1,)


def test_kronecker_measures():
    F = field(3)
    P = projective_rep(K, F, 0)
    assert gr_measure(P) == (1, 3)
    for _, R in build_homogeneous_simples(K, F):
        assert gr_measure(R) == (1, 2)


def test_kronecker_engines_agree():
    F = field(3)
    P = projective_rep(K, F, 0)
    assert _rep_measure(P, 2_000_000) == (1, 3)
    R = build_homogeneous_simples(K, F)[0][1]
    assert _rep_measure(R, 2_000_000) == (1, 2)


def test_dtilde4_regular_measure():
    for q in (3, 4, 5):
        F = field(q)
        for _, R in build_homogeneous_simples(D4, F):
            assert gr_measure(R) == (1, 2, 5, 6)


def test_dtilde4_engines_agree_on_small_roots():
    F = field(3)
    for x in [(0, 0, 1, 0, 0), (1, 0, 1, 0, 0), (1, 1, 2, 1, 0)]:
        M = build_preprojective(D4, F, x)
        assert gr_measure(M) == _rep_measure(M, 2_000_000)
    R = build_homogeneous_simples(D4, F)[0][1]
    assert _rep_measure(R, 2_000_000) == (1, 2, 5, 6)


def test_measure_rejects_oversize_inputs():
    """The length cap guards the exhaustive engine only, and the field cap
    is checked first: a long module over GF(7) is refused as invalid, and
    root-engine modules longer than the cap, the E~8 homogeneous simple
    and its GR submodule, are measured."""
    F = field(3)
    R = build_homogeneous_simples(D4, F)[0][1]
    big = direct_sum(direct_sum(R, R), R)
    with pytest.raises(InfeasibleEnumerationError) as info:
        gr_measure(big)
    assert (info.value.needed, info.value.budget) == (18, 14)
    with pytest.raises(InvalidInputError):
        gr_measure(simple_rep(K, field(7), 0))
    F7 = field(7)
    with pytest.raises(InvalidInputError):
        gr_measure(Rep(K, F7, (8, 8), (F7.zeros(8, 8), F7.zeros(8, 8))))
    with pytest.raises(InvalidInputError):
        gr_measure(zero_rep(K, F))
    E8 = preset_quiver("e8tilde")
    assert gr_measure(build_homogeneous_simples(E8, F)[0][1]) == (
        1, 2, 3, 4, 5, 6, 9, 10, 15, 20, 26, 30)
    assert gr_measure(build_preprojective(E8, F, (1, 2, 3, 4, 5, 5, 3, 1, 2))) == (
        1, 2, 3, 4, 5, 6, 9, 10, 15, 20, 26)


def test_measure_passes_its_budget_to_the_indecomposability_test():
    """The subrepresentation scan of this module needs 48, and its
    submodule (0,0,2,0,0), two copies of the simple at the centre, has
    3^4 endomorphisms."""
    M = build_preinjective(preset_quiver("dtilde:4", 4), field(3), (1, 1, 2, 1, 0))
    for entry in (gr_measure, gr_submodules):
        with pytest.raises(InfeasibleEnumerationError) as info:
            entry(M, budget=48)
        assert (info.value.needed, info.value.budget) == (81, 48)
    assert gr_measure(M, budget=81) == (1, 2, 5)


def test_a_remembered_measure_serves_no_smaller_budget():
    """Once the module above is measured under budget 81, the memo holds
    its measure, and budget 48 must still be refused as in a fresh
    process, for the module and for a second copy of its class."""
    M = build_preinjective(preset_quiver("dtilde:4", 4), field(3), (1, 1, 2, 1, 0))
    assert gr_measure(M, budget=81) == (1, 2, 5)
    for N in (M, Rep(M.quiver, M.field, M.dims, M.mats)):
        for entry in (gr_measure, gr_submodules):
            with pytest.raises(InfeasibleEnumerationError) as info:
                entry(N, budget=48)
            assert (info.value.needed, info.value.budget) == (81, 48)
        assert gr_measure(N, budget=81) == (1, 2, 5)


def test_gr_submodules_rejects_what_gr_measure_rejects():
    F = field(3)
    R = build_homogeneous_simples(D4, F)[0][1]
    cases = [(zero_rep(K, F), InvalidInputError),
             (direct_sum(direct_sum(R, R), R), InfeasibleEnumerationError),
             (simple_rep(K, field(7), 0), InvalidInputError)]
    for M, kind in cases:
        raised = []
        for entry in (gr_measure, gr_submodules):
            with pytest.raises(kind) as info:
                entry(M)
            raised.append((type(info.value), str(info.value), vars(info.value)))
        assert raised[0] == raised[1] and raised[0][0] is kind


# -------------------------------------------------------------- submodules


def test_gr_submodules_simple_is_empty():
    assert gr_submodules(simple_rep(K, field(3), 0)) == []


def test_gr_submodules_of_a_decomposable_module_is_empty():
    """P + P has measure (1, 3), which stops short of its length 6."""
    P = projective_rep(K, field(2), 0)
    assert gr_measure(direct_sum(P, P)) == (1, 3)
    assert gr_submodules(direct_sum(P, P)) == []


def test_gr_submodules_kronecker_regular():
    F = field(3)
    R = build_homogeneous_simples(K, F)[0][1]
    wits = gr_submodules(R)
    assert len(wits) == 1
    w = wits[0]
    assert w.dims == (0, 1)
    assert defect(K, w.dims) == -1
    assert w.quotient.dims == (1, 0)


def test_gr_submodules_kronecker_projective():
    F = field(3)
    P = projective_rep(K, F, 0)
    wits = gr_submodules(P)
    assert len(wits) == F.q + 1
    for w in wits:
        assert w.dims == (0, 1)
        assert is_isomorphic(w.sub, simple_rep(K, F, 1))


def test_gr_submodules_dtilde4_regular():
    F = field(3)
    R = build_homogeneous_simples(D4, F)[0][1]
    wits = gr_submodules(R)
    assert len(wits) == 4
    seen_dims = sorted(w.dims for w in wits)
    delta = radical_delta(D4)
    leaves = [j for j in range(5) if delta[j] == 1]
    expected = sorted(tuple(d - (1 if j == leaf else 0) for j, d in enumerate(delta))
                      for leaf in leaves)
    assert seen_dims == expected
    for w in wits:
        assert defect(D4, w.dims) == -1
        assert is_brick(w.sub)
        assert defect(D4, w.quotient.dims) == 1
        assert sum(w.quotient.dims) == 1


# ------------------------------------------------------------ count report


def test_count_report_kronecker_lines():
    F = field(3)
    rep = count_submodules_report(simple_rep(K, F, 1), projective_rep(K, F, 0))
    assert (rep.u, rep.h, rep.s, rep.e, rep.r) == (4, 2, 0, 1, 0)
    assert rep.u_brute == 4
    assert rep.singular_subspace


def test_count_report_identity():
    F = field(3)
    S = simple_rep(K, F, 0)
    rep = count_submodules_report(S, S)
    assert (rep.u, rep.h, rep.s, rep.e, rep.r) == (1, 1, 0, 1, 0)


def test_count_report_dtilde4_regular_pair():
    F = field(3)
    R = build_homogeneous_simples(D4, F)[0][1]
    w = gr_submodules(R)[0]
    rep = count_submodules_report(w.sub, R)
    assert (rep.u, rep.h, rep.s) == (1, 1, 0)
    assert rep.r == 0 and rep.e == 1
    assert rep.h > rep.s >= rep.r and rep.e > rep.r


def test_count_report_non_brick_indecomposable():
    # The Kronecker regular of quasi-length 2 at the point 0 has End of
    # dimension 2; it sits once in itself and once in quasi-length 3.
    F = field(3)
    J2, J3 = np.eye(2, k=1, dtype=np.int64), np.eye(3, k=1, dtype=np.int64)
    X = Rep(K, F, (2, 2), (np.eye(2, dtype=np.int64), J2))
    Y = Rep(K, F, (3, 3), (np.eye(3, dtype=np.int64), J3))
    for ambient in (X, Y):
        rep = count_submodules_report(X, ambient)
        assert (rep.u, rep.h, rep.s, rep.e, rep.r, rep.u_brute) == (1, 2, 1, 2, 1, 1)


def test_count_report_rejects_decomposable():
    F = field(3)
    S = simple_rep(K, F, 1)
    with pytest.raises(InvalidInputError):
        count_submodules_report(direct_sum(S, S), projective_rep(K, F, 0))
    with pytest.raises(InvalidInputError):
        count_submodules_report(zero_rep(K, F), S)


# ------------------------------------------------------------ verification


def test_verify_main_theorem_kronecker():
    report = verify_main_theorem(K, field(3))
    assert report.measure == (1, 2)
    assert report.submodule_defect == -1
    assert report.gr_submodule.dims == (0, 1)
    assert report.quotient_dims == (1, 0)
    assert report.quotient_defect == 1
    assert (report.hom_qp, report.hom_pq, report.ext_pq, report.ext_qp) == (0, 0, 0, 2)


def test_verify_main_theorem_dtilde4():
    for q in (3, 5):
        report = verify_main_theorem(D4, field(q))
        assert report.measure == (1, 2, 5, 6)
        assert report.submodule_defect == -1
        assert sum(report.gr_submodule.dims) == 5
        assert report.quotient_defect == 1
        assert report.ext_qp == 2
        js = report.to_json()
        assert set(js) == {"measure", "gr_submodule", "quotient", "kronecker_pair"}
        assert js["gr_submodule"]["defect"] == -1
        assert js["kronecker_pair"]["ext_qp"] == 2


def test_same_measure_across_regulars_gf5():
    F = field(5)
    measures = {gr_measure(R) for _, R in build_homogeneous_simples(D4, F)}
    assert measures == {(1, 2, 5, 6)}


def test_verify_main_theorem_rejections():
    """A non-affine quiver is refused by the homogeneous family, GF(2) by
    the verification itself and q > 5 by the measure search."""
    for Q, q in [(preset_quiver("a:3"), 3), (D4, 2), (D4, 7),
                 (preset_quiver("e8tilde"), 2), (preset_quiver("e8tilde"), 7)]:
        with pytest.raises(InvalidInputError):
            verify_main_theorem(Q, field(q))


# ----------------------------------------------------- chain order lemmas


def proper_indec_measure_checks(F):
    """Submodule measures strictly below ambient measures across the pool."""
    checks = 0
    from tamehall.reps import enumerate_subreps, sub_rep
    for Y in d4_pool(F):
        muY = gr_measure(Y)
        for spaces in enumerate_subreps(Y):
            d = tuple(int(U.shape[0]) for U in spaces)
            if sum(d) == 0 or d == Y.dims:
                continue
            X = sub_rep(Y, spaces)
            if not is_indecomposable(X):
                continue
            assert measure_less(gr_measure(X), muY)
            checks += 1
    return checks


def test_submodule_measures_strictly_smaller():
    assert proper_indec_measure_checks(field(2)) > 20


def test_middle_measure_forces_shorter_chain_top():
    # A measure strictly between a GR pair can only come from a longer module.
    F = field(3)
    z_pool = [build_preprojective(D4, F, x) for x in preproj_roots(D4, 6)]
    z_pool.append(build_homogeneous_simples(D4, F)[0][1])
    y_measures = [(_root_measure(D4, F, x), sum(x)) for x in preproj_roots(D4, 8)]
    y_measures += [(gr_measure(build_preinjective(D4, F, x)), sum(x))
                   for x in preinj_roots(D4, 5)]
    triples = 0
    for Z in z_pool:
        muZ = gr_measure(Z)
        for w in gr_submodules(Z):
            muX = gr_measure(w.sub)
            for muY, ylen in y_measures:
                if measure_less(muX, muY) and measure_less(muY, muZ):
                    assert ylen > sum(Z.dims)
                    triples += 1
    assert triples > 0


def test_mono_into_sum_has_injective_projection():
    F = field(2)
    pool = [M for M in d4_pool(F, 5)]
    checked = 0
    for X, Y1, Y2 in itertools.product(pool, repeat=3):
        if sum(X.dims) > min(sum(Y1.dims), sum(Y2.dims)):
            continue
        target = max_measure([gr_measure(Y1), gr_measure(Y2)])
        if not starts_with(gr_measure(X), target):
            continue
        Y = direct_sum(Y1, Y2)
        for phi in injective_classes(F, X, hom_basis(X, Y)):
            top = tuple(phi[j][:Y1.dims[j], :] for j in range(5))
            bot = tuple(phi[j][Y1.dims[j]:, :] for j in range(5))
            assert (is_injective_morphism(F, X, top)
                    or is_injective_morphism(F, X, bot))
            checked += 1
            break
    assert checked >= 10


def test_preprojective_measures_below_regular():
    F = field(3)
    muR = gr_measure(build_homogeneous_simples(D4, F)[0][1])
    for x in preproj_roots(D4, 6):
        assert measure_less(_root_measure(D4, F, x), muR)


def test_field_independence_small_roots():
    roots = preproj_roots(D4, 6)
    per_field = {}
    for q in (2, 3, 5):
        F = field(q)
        per_field[q] = [_root_measure(D4, F, x) for x in roots]
    assert per_field[2] == per_field[3] == per_field[5]


def test_gr_inclusion_sets_field_independent_small():
    roots = preproj_roots(D4, 6)
    per_field = {}
    for q in (2, 3, 5):
        F = field(q)
        found = {}
        for x in roots:
            M = build_preprojective(D4, F, x)
            found[tuple(x)] = sorted(w.dims for w in gr_submodules(M))
        per_field[q] = found
    assert per_field[2] == per_field[3] == per_field[5]

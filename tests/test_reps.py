import itertools
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, event, given, settings
from hypothesis import strategies as st

from tamehall import gf, reps
from tamehall.errors import InfeasibleEnumerationError, InvalidInputError
from tamehall.functors import build_preinjective, build_preprojective, reflect_minus
from tamehall.gf import enumerate_subspaces, field, rank
from tamehall.homreg import is_simple_homogeneous, sink_family
from tamehall.quiver import (
    Quiver,
    defect,
    euler_form,
    positive_real_roots,
    preset_quiver,
    radical_delta,
    reorient_toward,
    sink_sequence_to,
)
from tamehall.reps import (
    Rep,
    direct_sum,
    dual,
    end_dim,
    enumerate_subreps,
    ext1_dim,
    ext_space,
    hom_basis,
    hom_combination,
    hom_dim,
    injective_classes,
    injective_rep,
    is_brick,
    is_injective_morphism,
    is_isomorphic,
    middle_term,
    morphism_image,
    projective_rep,
    quotient_rep,
    simple_rep,
    sub_rep,
    top_projection,
)

from class_blocks import scalar_class_blocks
from rep_helpers import is_subrep, zero_rep

K = preset_quiver("kronecker")
A2 = preset_quiver("a:2")
AFFINE_PRESETS = ("kronecker", "dtilde:4", "dtilde:5", "dtilde:6", "e6tilde", "e7tilde",
                  "e8tilde")
# the preset list of tests/test_quiver.py
ALL_PRESETS = ("kronecker", "a:1", "a:2", "a:5", "d:4", "d:6", "e:6", "e:7", "e:8",
               "dtilde:4", "dtilde:6", "e6tilde", "e7tilde", "e8tilde")


def r_lambda(F, lam):
    """Kronecker module of dimension (1,1): first arrow 1, second arrow lam."""
    return Rep(K, F, (1, 1), (np.array([[1]]), np.array([[lam]])))


def r_infinity(F):
    return Rep(K, F, (1, 1), (np.array([[0]]), np.array([[1]])))


# ---------------------------------------------------------------- construction


def test_rep_validation():
    F = field(3)
    with pytest.raises(InvalidInputError):
        Rep(K, F, (1, 1, 1), (np.zeros((1, 1)), np.zeros((1, 1))))
    with pytest.raises(InvalidInputError):
        Rep(K, F, (1, 1), (np.zeros((1, 1)),))
    with pytest.raises(InvalidInputError):
        Rep(K, F, (1, 1), (np.zeros((2, 1)), np.zeros((1, 1))))
    with pytest.raises(InvalidInputError):
        Rep(K, F, (1, 1), (np.array([[3]]), np.array([[0]])))


def test_direct_sum_blocks():
    F = field(3)
    M = direct_sum(r_lambda(F, 1), r_lambda(F, 2))
    assert M.dims == (2, 2)
    assert np.array_equal(M.mats[0], np.eye(2, dtype=np.int64))
    assert np.array_equal(M.mats[1], np.diag([1, 2]).astype(np.int64))


def test_zero_and_simple():
    F = field(2)
    assert zero_rep(K, F).total_dim == 0
    S = simple_rep(K, F, 1)
    assert S.dims == (0, 1) and S.total_dim == 1


# ---------------------------------------------------------------- projectives


def _path_counts(Q, i):
    """Number of paths from i to each vertex, by dynamic programming."""
    counts = [0] * Q.n
    counts[i] = 1
    # relax repeatedly; quiver is acyclic so Q.n rounds suffice
    total = [0] * Q.n
    frontier = {i: 1}
    total[i] = 1
    while frontier:
        nxt = {}
        for v, c in frontier.items():
            for a in Q.outgoing(v):
                t = Q.arrows[a][1]
                nxt[t] = nxt.get(t, 0) + c
        for v, c in nxt.items():
            total[v] += c
        frontier = nxt
    return total


def test_projective_dims_match_path_counts():
    F = field(2)
    for name in ["a:3", "d:4", "kronecker", "dtilde:4", "e6tilde"]:
        Q = preset_quiver(name)
        for i in range(Q.n):
            P = projective_rep(Q, F, i)
            assert list(P.dims) == _path_counts(Q, i)


def test_injective_dims_match_reverse_path_counts():
    F = field(2)
    for name in ["a:3", "d:4", "kronecker", "dtilde:4"]:
        Q = preset_quiver(name)
        rev = Quiver(Q.n, tuple((t, s) for s, t in Q.arrows))
        for i in range(Q.n):
            I = injective_rep(Q, F, i)
            assert list(I.dims) == _path_counts(rev, i)


def _check_top_projection(M):
    """pi_j kills every arrow image into j and has rank t_j = dim M_j minus
    the rank of the arrows into j; returns the t_j."""
    F = M.field
    pi = top_projection(M)
    for j, p in enumerate(pi):
        into = [M.mats[a] for a in M.quiver.incoming(j)]
        rad = rank(F, np.concatenate(into, axis=1)) if into else 0
        assert p.shape == (M.dims[j] - rad, M.dims[j])
        assert rank(F, p) == p.shape[0]
        for A in into:
            assert not F.matmul(p, A).any()
    return tuple(p.shape[0] for p in pi)


@pytest.mark.parametrize("q", [2, 4])
def test_top_projection_of_projectives_simples_and_injectives(q):
    F = field(q)
    for name in ALL_PRESETS:
        Q = preset_quiver(name)
        for j in range(Q.n):
            e_j = tuple(1 if k == j else 0 for k in range(Q.n))
            assert _check_top_projection(projective_rep(Q, F, j)) == e_j
            S = simple_rep(Q, F, j)
            assert _check_top_projection(S) == e_j
            assert np.array_equal(top_projection(S)[j], np.eye(1, dtype=np.int64))
            # every arrow into k maps onto I_k, so the top of I is I_k at the
            # sources k and 0 elsewhere
            I = injective_rep(Q, F, j)
            tops = _check_top_projection(I)
            assert all(tops[k] == (I.dims[k] if not Q.incoming(k) else 0)
                       for k in range(Q.n))


def test_kronecker_projectives_and_injectives():
    F = field(3)
    assert projective_rep(K, F, 0).dims == (1, 2)
    assert projective_rep(K, F, 1).dims == (0, 1)
    assert injective_rep(K, F, 0).dims == (1, 0)
    assert injective_rep(K, F, 1).dims == (2, 1)


def test_projective_maps_are_path_composition():
    F = field(5)
    Q = preset_quiver("a:3")  # arrows 0->1->2
    P = projective_rep(Q, F, 0)
    assert P.dims == (1, 1, 1)
    assert all(np.array_equal(m, np.array([[1]])) for m in P.mats)


# ---------------------------------------------------------------- Hom


def _brute_hom_count(M, N):
    Q, F = M.quiver, M.field
    shapes = [(N.dims[j], M.dims[j]) for j in range(Q.n)]
    tot = sum(a * b for a, b in shapes)
    assert tot <= 9, "brute oracle only for tiny spaces"
    count = 0
    for vals in itertools.product(range(F.q), repeat=tot):
        mats = []
        pos = 0
        for a, b in shapes:
            mats.append(np.array(vals[pos:pos + a * b], dtype=np.int64).reshape(a, b))
            pos += a * b
        ok = True
        for idx, (s, t) in enumerate(Q.arrows):
            left = F.matmul(N.mats[idx], mats[s])
            right = F.matmul(mats[t], M.mats[idx])
            if not np.array_equal(left, right):
                ok = False
                break
        if ok:
            count += 1
    return count


def test_hom_dim_matches_brute_force():
    for q in (2, 3, 4):
        F = field(q)
        P0 = projective_rep(K, F, 0)
        cases = [
            (r_lambda(F, 1), r_lambda(F, 1)),
            (r_lambda(F, 1), r_lambda(F, 0)),
            (r_lambda(F, 0), r_infinity(F)),
            (P0, r_lambda(F, 1)),
            (r_lambda(F, 1), P0),
            (simple_rep(K, F, 0), r_lambda(F, 1)),
        ]
        for M, N in cases:
            assert F.q ** hom_dim(M, N) == _brute_hom_count(M, N)


def test_hom_from_projective_is_fiber_dimension():
    for q in (2, 4):
        F = field(q)
        for name in ["a:3", "d:4", "dtilde:4", "kronecker"]:
            Q = preset_quiver(name)
            targets = [projective_rep(Q, F, j) for j in range(Q.n)]
            targets += [injective_rep(Q, F, j) for j in range(Q.n)]
            for i in range(Q.n):
                P = projective_rep(Q, F, i)
                I = injective_rep(Q, F, i)
                for M in targets:
                    assert hom_dim(P, M) == M.dims[i]
                    assert hom_dim(M, I) == M.dims[i]


def test_hom_basis_elements_commute():
    F = field(4)
    Q = preset_quiver("dtilde:4")
    M = projective_rep(Q, F, 0)
    N = projective_rep(Q, F, 2)
    basis = hom_basis(N, M)
    assert len(basis) == hom_dim(N, M) == M.dims[2]
    for phi in basis:
        for a, (s, t) in enumerate(Q.arrows):
            left = F.matmul(M.mats[a], phi[s])
            right = F.matmul(phi[t], N.mats[a])
            assert np.array_equal(left, right)


def test_hom_between_inhomogeneous_modules():
    F = field(5)
    assert hom_dim(r_lambda(F, 1), r_lambda(F, 2)) == 0
    assert hom_dim(r_lambda(F, 2), r_lambda(F, 2)) == 1
    assert hom_dim(r_lambda(F, 1), r_infinity(F)) == 0
    assert end_dim(r_infinity(F)) == 1


def test_euler_form_is_hom_minus_ext():
    for q in (2, 3):
        F = field(q)
        for name in ["a:2", "kronecker", "dtilde:4"]:
            Q = preset_quiver(name)
            mods = [simple_rep(Q, F, i) for i in range(Q.n)]
            mods += [projective_rep(Q, F, i) for i in range(Q.n)]
            for M in mods:
                for N in mods:
                    assert hom_dim(M, N) - ext1_dim(M, N) == euler_form(Q, M.dims, N.dims)


@lru_cache(maxsize=None)
def _roots_below_delta(Q, sign):
    """The real roots x <= delta of Q whose defect has the given sign."""
    return tuple(x for x in positive_real_roots(Q, radical_delta(Q))
                 if defect(Q, x) * sign > 0)


@lru_cache(maxsize=None)
def _homogeneous_on(Q, F):
    """A homogeneous simple of Q: built on the one-sink orientation at a
    vertex i, then taken back to Q by the source reflections that undo the
    word of sink reflections from Q to that orientation."""
    i = radical_delta(Q).index(1)
    E = next(sink_family(reorient_toward(Q, i), F))
    for v in reversed(sink_sequence_to(Q, i)):
        E = reflect_minus(E, v)
    assert E.quiver == Q and is_simple_homogeneous(E)
    return E


@st.composite
def affine_sums(draw):
    """Two direct sums of two indecomposables each, every summand a
    preprojective or preinjective with root below delta or a homogeneous
    simple, on one random orientation of an affine preset."""
    base = preset_quiver(draw(st.sampled_from(AFFINE_PRESETS)))
    flips = draw(st.lists(st.booleans(), min_size=len(base.arrows), max_size=len(base.arrows)))
    if base.n == 2:                                # the Kronecker pair flips together
        flips = [flips[0]] * 2
    Q = Quiver(base.n, tuple((t, s) if f else (s, t) for f, (s, t) in zip(flips, base.arrows)))
    F = field(draw(st.sampled_from((3, 4, 5))))

    def summand():
        kind = draw(st.sampled_from(("prep", "prei", "homog")))
        event(kind)
        if kind == "homog":
            return _homogeneous_on(Q, F)
        if kind == "prep":
            return build_preprojective(Q, F, draw(st.sampled_from(_roots_below_delta(Q, -1))))
        return build_preinjective(Q, F, draw(st.sampled_from(_roots_below_delta(Q, 1))))

    return direct_sum(summand(), summand()), direct_sum(summand(), summand())


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(affine_sums())
def test_euler_form_is_hom_minus_ext_on_generated_sums(case):
    M, N = case
    assert hom_dim(M, N) - ext1_dim(M, N) == euler_form(M.quiver, M.dims, N.dims)


def test_projectives_and_injectives_have_no_ext():
    F = field(3)
    for name in ["a:3", "kronecker", "dtilde:4"]:
        Q = preset_quiver(name)
        mods = [simple_rep(Q, F, i) for i in range(Q.n)]
        for i in range(Q.n):
            P = projective_rep(Q, F, i)
            I = injective_rep(Q, F, i)
            for M in mods:
                assert ext1_dim(P, M) == 0
                assert ext1_dim(M, I) == 0


def test_brick_detection():
    F = field(3)
    assert is_brick(r_lambda(F, 1))
    assert is_brick(simple_rep(K, F, 0))
    assert not is_brick(direct_sum(simple_rep(K, F, 0), simple_rep(K, F, 0)))
    assert end_dim(direct_sum(r_lambda(F, 1), r_lambda(F, 1))) == 4


def test_end_dim_builds_one_hom_system_per_module_object(monkeypatch):
    systems = []
    system = reps._hom_system
    monkeypatch.setattr(reps, "_hom_system", lambda M, N: systems.append((M, N)) or system(M, N))
    M = direct_sum(r_lambda(field(3), 1), simple_rep(K, field(3), 0))
    assert end_dim(M) == end_dim(M) == 3
    assert systems == [(M, M)]
    # a module that shares M's arrays is another object, and builds its
    # own; the dual reads End(D M) = End(M)^op off M and builds none
    N, D = Rep(M.quiver, M.field, M.dims, M.mats), dual(M)
    assert end_dim(N) == end_dim(D) == 3
    assert systems == [(M, M), (N, N)]


# ---------------------------------------------------------------- Ext and extensions


def test_ext_space_a2():
    F = field(3)
    S_source = simple_rep(A2, F, 0)
    S_sink = simple_rep(A2, F, 1)
    ext = ext_space(S_source, S_sink)  # extensions of S_source by S_sink
    assert ext.dim == 1
    E = middle_term(S_sink, S_source, ext.cocycles[0])
    assert E.dims == (1, 1)
    assert is_brick(E)
    assert hom_dim(projective_rep(A2, F, 0), E) == 1
    # the reverse direction splits
    assert ext_space(S_sink, S_source).dim == 0


def test_ext_space_kronecker_regular_family():
    F = field(3)
    S0, S1 = simple_rep(K, F, 0), simple_rep(K, F, 1)
    ext = ext_space(S0, S1)
    assert ext.dim == 2
    for f in ext.cocycles:
        E = middle_term(S1, S0, f)
        assert E.dims == (1, 1)
        assert is_brick(E)
    # zero cocycle gives the split extension
    zero = tuple(np.zeros_like(c) for c in ext.cocycles[0])
    E0 = middle_term(S1, S0, zero)
    assert end_dim(E0) == 2


def _simples_projectives_injectives(Q, F):
    return [make(Q, F, i) for make in (simple_rep, projective_rep, injective_rep)
            for i in range(Q.n)]


def test_ext_dim_agrees_with_defect_of_euler_form():
    for q in (2, 3):
        F = field(q)
        for name in AFFINE_PRESETS:
            Q = preset_quiver(name)
            mods = _simples_projectives_injectives(Q, F)
            for X in mods:
                for Y in mods:
                    got = ext_space(X, Y).dim
                    assert got == hom_dim(X, Y) - euler_form(Q, X.dims, Y.dims), (name, q)


def test_injective_classes_count_every_injective_vector_once():
    Q = preset_quiver("dtilde:4")
    for q in (2, 3):
        F = field(q)
        mods = _simples_projectives_injectives(Q, F)
        checked = 0
        for X in mods:
            for Y in mods:
                basis = hom_basis(X, Y)
                if not basis:
                    continue
                brute = sum(
                    1 for coeffs in itertools.product(range(q), repeat=len(basis))
                    if any(coeffs) and is_injective_morphism(
                        F, X, hom_combination(F, basis, coeffs)))
                classes = sum(1 for _ in injective_classes(F, X, basis))
                assert classes * (q - 1) == brute, (X.dims, Y.dims, q)
                checked += brute > 0
        assert checked


def _injective_classes_by_combination(F, X, basis):
    """The monomorphism scan before `injective_classes` read
    `scalar_class_images`: one `hom_combination` per class of the
    coefficient blocks, in their lexicographic order."""
    for block in scalar_class_blocks(F.q, len(basis)):
        for coeffs in block:
            phi = hom_combination(F, basis, coeffs)
            if is_injective_morphism(F, X, phi):
                yield phi


@st.composite
def hom_spaces(draw):
    """(F, X, basis, cap): a basis of Hom(X, Y) of dimension 0..4, X and Y
    random modules on kronecker, a:3 or dtilde:4 with at most two
    dimensions per vertex, Y often a direct sum with X so that Hom is not
    zero, and a block cap for `scalar_class_images`, the real one or small
    enough to spread the classes over many blocks."""
    F = field(draw(st.sampled_from((2, 3, 4, 5, 7, 8, 9))))
    Q = preset_quiver(draw(st.sampled_from(("kronecker", "a:3", "dtilde:4"))))

    def module():
        dims = tuple(draw(st.integers(0, 2)) for _ in range(Q.n))
        mats = [np.array(draw(st.lists(st.integers(0, F.q - 1), min_size=dims[t] * dims[s],
                                       max_size=dims[t] * dims[s])),
                         dtype=np.int64).reshape(dims[t], dims[s]) for s, t in Q.arrows]
        return Rep(Q, F, dims, tuple(mats))

    X, Y = module(), module()
    if draw(st.booleans()):
        Y = direct_sum(X, Y)
    basis = hom_basis(X, Y)
    assume(len(basis) <= 4)
    event(f"h = {len(basis)}")
    return F, X, basis, draw(st.sampled_from((gf._IMAGE_BLOCK_ENTRIES, 7, 40)))


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(hom_spaces())
def test_injective_classes_match_the_combination_scan_in_order(case):
    F, X, basis, cap = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gf, "_IMAGE_BLOCK_ENTRIES", cap)
        got = list(injective_classes(F, X, basis))
    want = list(_injective_classes_by_combination(F, X, basis))
    event("an injective class" if want else "no injective class")
    assert len(got) == len(want)
    for phi, ref in zip(got, want):
        assert len(phi) == len(ref)
        for a, b in zip(phi, ref):
            assert a.dtype == np.int64 and a.shape == b.shape and np.array_equal(a, b)


def test_injective_classes_checks_budget_before_work():
    F = field(3)
    Y = direct_sum(simple_rep(K, F, 1), simple_rep(K, F, 1))
    basis = hom_basis(simple_rep(K, F, 1), Y)
    with pytest.raises(InfeasibleEnumerationError) as err:
        next(injective_classes(F, simple_rep(K, F, 1), basis, budget=3))
    assert err.value.needed == 4


# ---------------------------------------------------------------- subreps


def test_sub_and_quotient_of_regular_module():
    F = field(3)
    M = r_lambda(F, 2)
    spaces = (F.zeros(0, 1), np.eye(1, dtype=np.int64))
    S = sub_rep(M, spaces)
    assert S.dims == (0, 1)
    Qt = quotient_rep(M, spaces)
    assert Qt.dims == (1, 0)
    assert is_isomorphic(S, simple_rep(K, F, 1))
    assert is_isomorphic(Qt, simple_rep(K, F, 0))


def test_sub_rep_rejects_non_invariant_spaces():
    F = field(3)
    M = r_lambda(F, 1)
    bad = (np.eye(1, dtype=np.int64), F.zeros(0, 1))  # image of vertex 0 not inside
    assert not is_subrep(M, bad)
    with pytest.raises(InvalidInputError):
        sub_rep(M, bad)


def _brute_subreps(M):
    F = M.field
    per_vertex = []
    for d in M.dims:
        opts = []
        for k in range(d + 1):
            opts.extend(enumerate_subspaces(F, d, k))
        per_vertex.append(opts)
    out = []
    for combo in itertools.product(*per_vertex):
        if is_subrep(M, combo):
            out.append(combo)
    return out


def _subrep_keys(spaces_list):
    keys = set()
    for spaces in spaces_list:
        keys.add(tuple((U.shape[0], U.tobytes()) for U in spaces))
    return keys


def test_enumerate_subreps_matches_brute_filter():
    F2, F3 = field(2), field(3)
    Q4 = preset_quiver("dtilde:4")
    cases = [
        r_lambda(F3, 1),
        projective_rep(K, F2, 0),
        direct_sum(simple_rep(K, F3, 0), simple_rep(K, F3, 0)),
        direct_sum(simple_rep(Q4, F2, 2), projective_rep(Q4, F2, 0)),
    ]
    for M in cases:
        got = list(enumerate_subreps(M))
        assert _subrep_keys(got) == _subrep_keys(_brute_subreps(M))
        assert len(_subrep_keys(got)) == len(got)  # no duplicates
        for spaces in got:
            assert is_subrep(M, spaces)


def test_subrep_counts_frozen():
    F = field(3)
    assert len(list(enumerate_subreps(r_lambda(F, 1)))) == 3
    assert len(list(enumerate_subreps(projective_rep(K, F, 0)))) == 7  # q + 4
    two_simples = direct_sum(simple_rep(K, F, 0), simple_rep(K, F, 0))
    assert len(list(enumerate_subreps(two_simples)))== 6  # q + 3


def test_enumerate_subreps_with_dims_filter():
    F = field(3)
    P = projective_rep(K, F, 0)
    lines = list(enumerate_subreps(P, dims=(0, 1)))
    assert len(lines) == 4  # q + 1
    assert list(enumerate_subreps(P, dims=(1, 0))) == []
    full = list(enumerate_subreps(P, dims=(1, 2)))
    assert len(full) == 1


def test_enumerate_subreps_budget():
    F = field(5)
    M = direct_sum(direct_sum(r_lambda(F, 1), r_lambda(F, 2)), r_lambda(F, 3))
    with pytest.raises(InfeasibleEnumerationError):
        list(enumerate_subreps(M, budget=10))


def test_quotient_dims_are_complementary():
    F = field(2)
    Q4 = preset_quiver("dtilde:4")
    M = projective_rep(Q4, F, 2)
    for spaces in enumerate_subreps(M):
        S = sub_rep(M, spaces)
        Qt = quotient_rep(M, spaces)
        assert tuple(a + b for a, b in zip(S.dims, Qt.dims)) == M.dims


# ---------------------------------------------------------------- morphisms


def test_hom_combination_and_image():
    F = field(3)
    M = simple_rep(K, F, 1)
    N = r_lambda(F, 2)
    basis = hom_basis(M, N)
    assert len(basis) == 1
    phi = hom_combination(F, basis, (2,))
    assert is_injective_morphism(F, M, phi)
    img = morphism_image(F, phi)
    assert img[0].shape == (0, 1) and img[1].shape == (1, 1)
    S = sub_rep(N, img)
    assert is_isomorphic(S, M)


def test_isomorphism_basics():
    F = field(4)
    assert is_isomorphic(r_lambda(F, 2), r_lambda(F, 2))
    assert not is_isomorphic(r_lambda(F, 2), r_lambda(F, 3))
    assert not is_isomorphic(r_lambda(F, 1), r_infinity(F))
    assert not is_isomorphic(simple_rep(K, F, 0), simple_rep(K, F, 1))
    A = direct_sum(simple_rep(K, F, 0), r_lambda(F, 1))
    B = direct_sum(r_lambda(F, 1), simple_rep(K, F, 0))
    assert is_isomorphic(A, B)


def test_isomorphism_respects_base_change_of_regular_modules():
    # scaling the second arrow by a unit is an isomorphism of (1,1)-modules
    F = field(5)
    M = Rep(K, F, (1, 1), (np.array([[2]]), np.array([[3]])))
    lam = F.mul(np.int64(3), F.inv(np.int64(2)))
    assert is_isomorphic(M, r_lambda(F, int(lam)))


def test_isomorphism_budget_guard():
    F = field(5)
    M = direct_sum(direct_sum(simple_rep(K, F, 0), simple_rep(K, F, 0)),
                   direct_sum(simple_rep(K, F, 0), simple_rep(K, F, 0)))
    big = direct_sum(M, M)  # End has dimension 64
    with pytest.raises(InfeasibleEnumerationError):
        is_isomorphic(big, big, budget=1000)

"""The lifted constructors against the walk they replace, and the one-map
translate test against the isomorphism scan and the brick test it absorbs.

`build_preinjective` and `build_preprojective` keep one module per
(quiver, field, root): the walk over GF(3), and over any other field that
module lifted into the field, falling back to the Phi^-1 walk there when
the lift is not a brick.  These tests compare the lift with the walk on
generated quivers, roots and fields, force the fallback, and check that
the table rows never need it.
"""

from functools import lru_cache
from math import prod

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from tamehall import functors
from tamehall.functors import build_preinjective, build_preprojective, tau
from tamehall.gf import field
from tamehall.hall import SAMPLE_FIELDS, VERIFY_FIELD, VERIFY_FIELD_EXTRA, _minus_unit
from tamehall.homreg import is_simple_homogeneous, regular_pair
from tamehall.quiver import (
    Quiver,
    defect,
    is_affine,
    opposite,
    positive_real_roots,
    preset_quiver,
    radical_delta,
    reorient_toward,
)
from tamehall.reps import (
    direct_sum,
    dual,
    enumerate_subreps,
    ext_space,
    hom_basis,
    hom_combination,
    hom_dim,
    is_brick,
    is_injective_morphism,
    is_isomorphic,
    middle_term,
    quotient_rep,
    sub_rep,
)

from rep_helpers import reps_equal

AFFINE = ("kronecker", "dtilde:4", "dtilde:5", "dtilde:6", "e6tilde", "e7tilde", "e8tilde")
GRAPHS = AFFINE + ("a:3", "a:5", "d:4", "d:5", "e:6")
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def quivers(draw):
    """A random acyclic orientation of one of GRAPHS (all are trees but
    the Kronecker quiver, whose two arrows flip together)."""
    Q = preset_quiver(draw(st.sampled_from(GRAPHS)))
    if Q.n == 2:
        flips = [draw(st.booleans())] * len(Q.arrows)
    else:
        flips = draw(st.lists(st.booleans(), min_size=len(Q.arrows), max_size=len(Q.arrows)))
    return Quiver(Q.n, tuple((t, s) if f else (s, t) for f, (s, t) in zip(flips, Q.arrows)))


@lru_cache(maxsize=None)
def _roots(Q):
    """(root, kind) for the preinjective and preprojective real roots inside
    2 delta (affine; none of defect 0; inside delta on E~8, whose 2 delta
    box is too large to scan) or inside the box of 3s (Dynkin, where every
    root is both)."""
    if is_affine(Q):
        delta = radical_delta(Q)
        box = delta if prod(2 * d + 1 for d in delta) > 10**6 else tuple(2 * d for d in delta)
        return [(x, "preinjective" if defect(Q, x) > 0 else "preprojective")
                for x in positive_real_roots(Q, box) if defect(Q, x)]
    return [(x, kind) for x in positive_real_roots(Q, (3,) * Q.n)
            for kind in ("preinjective", "preprojective")]


def _walked(Q, F, x, kind):
    """The module the walk over F itself builds."""
    if kind == "preinjective":
        return functors._walk(Q, F, x, kind)
    return dual(functors._walk(opposite(Q), F, x, kind))


@PROPERTY
@given(quivers(), st.sampled_from((2, 4, 5, 8, 9)), st.data())
def test_lift_is_a_brick_isomorphic_to_the_walk(Q, q, data):
    F = field(q)
    x, kind = data.draw(st.sampled_from(_roots(Q)))
    M = (build_preinjective if kind == "preinjective" else build_preprojective)(Q, F, x)
    assert M.dims == x
    # the memo keeps dim End = 1 on M; build End afresh
    assert hom_dim(M, M) == 1
    W = _walked(Q, F, x, kind)
    assert is_isomorphic(M, W)
    event("lift equals the walk" if reps_equal(M, W) else "lift isomorphic to the walk")


@pytest.fixture
def walks(monkeypatch):
    """The argument tuples of every `functors._walk` call from here on."""
    calls = []
    walk = functors._walk
    monkeypatch.setattr(functors, "_walk", lambda *a: calls.append(a) or walk(*a))
    return calls


def test_lift_that_is_no_brick_falls_back_to_the_walk(monkeypatch, fresh_memo, walks):
    Q, F = preset_quiver("dtilde:4"), field(5)
    x = (1, 1, 1, 1, 1)                       # defect 1: preinjective, sincere
    monkeypatch.setattr(functors, "is_brick", lambda M: False)
    M = build_preinjective(Q, F, x)
    # the GF(3) walk the lift is read from, then the walk over F itself
    assert [w[1] for w in walks] == [field(3), F]
    assert reps_equal(M, _walked(Q, F, x, "preinjective"))


def test_equal_arguments_give_the_same_module():
    Q, F = preset_quiver("dtilde:4"), field(5)
    x = (1, 1, 1, 1, 1)
    M = build_preinjective(Q, F, x)
    assert build_preinjective(Q, F, list(x)) is M
    assert build_preinjective(Q, F, np.array(x)) is M
    # a preprojective is a fresh dual of the one kept for Q^op
    P, R = build_preprojective(opposite(Q), F, x), build_preprojective(opposite(Q), F, list(x))
    assert P is not R
    assert all(np.shares_memory(A, B) for A, B in zip(P.mats, R.mats))


def test_built_modules_are_read_only():
    Q = reorient_toward(preset_quiver("e6tilde"), 0)
    x = _minus_unit(radical_delta(Q), 0)
    for q in (2, 3, 4, 5, 9):
        F = field(q)
        for M in (build_preinjective(Q, F, x), build_preprojective(opposite(Q), F, x)):
            for A in M.mats:
                assert set(A.flat) <= {0, 1, int(F.neg(1))}
                with pytest.raises(ValueError):
                    A[...] = 0


@pytest.mark.parametrize("name", AFFINE)
def test_table_rows_take_no_fallback(name, fresh_memo, walks):
    """Every preinjective a table row builds lifts without the walk over
    its field: the only walks are over GF(3), one per quiver and root."""
    Q = preset_quiver(name)
    delta = radical_delta(Q)
    for m in sorted(set(delta)):
        i = delta.index(m)
        Qi = reorient_toward(Q, i)
        fields = SAMPLE_FIELDS[:m] + (VERIFY_FIELD,) + ((VERIFY_FIELD_EXTRA,) if m <= 4 else ())
        for q in fields:
            F = field(q)
            regular_pair(Qi, F)
            build_preinjective(Qi, F, _minus_unit(radical_delta(Qi), i))
    assert walks
    assert all(F.q == 3 for _, F, _, _ in walks)
    assert len({(Q, x) for Q, _, x, _ in walks}) == len(walks)


@pytest.mark.parametrize("name", AFFINE)
def test_lift_brick_verdict_depends_on_the_characteristic_only(name):
    """The lift has prime-field entries, so its End system has the same
    rank over GF(p^k) as over GF(p).  On every preinjective a table row
    builds the verdict is a brick in every field: over GF(2), GF(4), GF(8)
    and GF(9) the module kept is the GF(3) walk with 2 read as -1, and
    over GF(3) it is the walk itself."""
    Q = preset_quiver(name)
    delta = radical_delta(Q)
    for m in sorted(set(delta)):
        i = delta.index(m)
        Qi = reorient_toward(Q, i)
        for x in (_minus_unit(radical_delta(Qi), i), regular_pair(Qi, field(3))[1].dims):
            W = functors._walk(Qi, field(3), x, "preinjective")
            assert reps_equal(build_preinjective(Qi, field(3), x), W)
            for q in (2, 4, 8, 9):
                F = field(q)
                M = build_preinjective(Qi, F, x)
                assert M.field is F and hom_dim(M, M) == 1
                assert all(np.array_equal(A, np.where(B == 2, F.neg(1), B))
                           for A, B in zip(M.mats, W.mats))


def _brick_and_one_map(M):
    """The translate test as it was with its End-system rank: a brick whose
    Hom(tau M, M) has one basis map, invertible at every vertex."""
    if not is_affine(M.quiver) or M.dims != radical_delta(M.quiver) or not is_brick(M):
        return False
    T = tau(M)
    if T.dims != M.dims:
        return False
    basis = hom_basis(T, M)
    return len(basis) == 1 and is_injective_morphism(M.field, T, basis[0])


@pytest.mark.parametrize("name", ("kronecker", "dtilde:4", "dtilde:5", "e6tilde"))
@pytest.mark.parametrize("q", (2, 3, 4, 5))
def test_one_map_translate_test_matches_the_isomorphism_scan(name, q):
    """On every brick of the extension line, homogeneous or in an
    exceptional tube, the one-map test agrees with `is_isomorphic` and with
    the brick test it absorbs."""
    Q, F = preset_quiver(name), field(q)
    P, I = regular_pair(Q, F)
    ext = ext_space(I, P)
    points = [(1, lam) for lam in range(q)] + [(0, 1)]
    bricks = [E for E in (middle_term(P, I, hom_combination(F, ext.cocycles, c)) for c in points)
              if is_brick(E)]
    assert len(bricks) == len(points)
    verdicts = [is_simple_homogeneous(E) for E in bricks]
    assert verdicts == [is_isomorphic(tau(E), E) for E in bricks]
    assert verdicts == [_brick_and_one_map(E) for E in bricks]
    tubes = 0 if name == "kronecker" else 3   # one point in each exceptional tube
    assert verdicts.count(True) == q + 1 - tubes


@pytest.mark.parametrize("name", ("kronecker", "dtilde:4", "dtilde:5", "e6tilde"))
def test_one_map_test_rejects_the_split_extension(name):
    """P + I, the extension at the zero cocycle, is no brick, and tau P = 0
    leaves tau M with the wrong dimension vector."""
    Q, F = preset_quiver(name), field(3)
    P, I = regular_pair(Q, F)
    split = middle_term(P, I, tuple(c * 0 for c in ext_space(I, P).cocycles[0]))
    assert reps_equal(split, direct_sum(P, I))
    assert not is_simple_homogeneous(split) and not _brick_and_one_map(split)


def test_one_map_test_rejects_a_translate_fixed_non_brick():
    """X + E/X, for E a point of dtilde:4 over GF(3) in a rank-2 exceptional
    tube and X its regular socle: dimension vector delta and tau M = M (tau
    swaps the two regular simples), but End M = k^2, and the one-map test
    sees that as dim Hom(tau M, M) = 2."""
    Q, F = preset_quiver("dtilde:4"), field(3)
    P, I = regular_pair(Q, F)
    ext = ext_space(I, P)
    line = [middle_term(P, I, hom_combination(F, ext.cocycles, c))
            for c in [(1, lam) for lam in range(3)] + [(0, 1)]]
    E = next(E for E in line if not is_simple_homogeneous(E))
    assert is_brick(E)
    # a submodule of a regular module has no preinjective summand, so the
    # proper nonzero ones of defect 0 are regular: here only the socle X
    socles = [U for U in enumerate_subreps(E)
              if 0 < sum(u.shape[0] for u in U) < sum(E.dims)
              and defect(Q, tuple(u.shape[0] for u in U)) == 0]
    assert len(socles) == 1
    M = direct_sum(sub_rep(E, socles[0]), quotient_rep(E, socles[0]))
    assert M.dims == radical_delta(Q)
    assert is_isomorphic(tau(M), M)
    assert not is_brick(M)
    T = tau(M)
    basis = hom_basis(T, M)
    assert len(basis) == 2
    # an invertible map exists, so only the dimension count rejects M
    assert is_injective_morphism(F, T, hom_combination(F, basis, (1, 1)))
    assert not is_simple_homogeneous(M) and not _brick_and_one_map(M)

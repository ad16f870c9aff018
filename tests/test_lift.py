"""The lifted constructors against the walk they replace, and the one-map
translate test against the isomorphism scan and the brick test it absorbs.

`build_preinjective` and `build_preprojective` build each module once per
quiver over GF(3) and lift it into the target field, falling back to the
Phi^-1 walk there when the lift is not a brick.  These tests compare the
lift with the walk on generated quivers, roots and fields, force the
fallback, and check that the table rows never need it.
"""

from functools import lru_cache
from math import prod

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
    assert is_brick(M)
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


def test_lift_that_is_no_brick_falls_back_to_the_walk(monkeypatch, walks):
    Q, F = preset_quiver("dtilde:4"), field(5)
    x = (1, 1, 1, 1, 1)                       # defect 1: preinjective, sincere
    real = functors._signed_form(Q, x, "preinjective")
    walks.clear()                             # the GF(3) walk behind `real`
    # zero one arrow: the lift splits into two summands
    monkeypatch.setattr(functors, "_signed_form", lambda *a: (real[0] * 0,) + real[1:])
    # the brick verdicts are kept per characteristic: start from none, so
    # that an earlier verdict on the real form is not read
    monkeypatch.setattr(functors, "_lift_is_brick",
                        lru_cache(maxsize=None)(functors._lift_is_brick.__wrapped__))
    M = build_preinjective(Q, F, x)
    assert [w[1] for w in walks] == [F]
    assert reps_equal(M, _walked(Q, F, x, "preinjective"))


def test_signed_form_is_read_only():
    Q = preset_quiver("e6tilde")
    x = _minus_unit(radical_delta(Q), 0)
    for S in functors._signed_form(reorient_toward(Q, 0), x, "preinjective"):
        assert set(S.flat) <= {-1, 0, 1}
        with pytest.raises(ValueError):
            S[...] = 0


@pytest.mark.parametrize("name", AFFINE)
def test_table_rows_take_no_fallback(name, walks):
    """Every preinjective a table row builds (the expected quotient I and
    the one of `regular_pair`) lifts without the walk over its field: the
    only walks are the GF(3) ones behind fresh signed forms."""
    misses = functors._signed_form.cache_info().misses
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
    assert len(walks) == functors._signed_form.cache_info().misses - misses
    assert all(F.q == 3 for _, F, _, _ in walks)


@pytest.mark.parametrize("name", AFFINE)
def test_lift_brick_verdict_depends_on_the_characteristic_only(name):
    """The lift has prime-field entries, so its End system has the same
    rank over GF(p^k) as over GF(p): on every preinjective a table row
    builds, the verdict over GF(4), GF(8) and GF(9) is the one over GF(2)
    and GF(3), and over GF(3) the lift is the GF(3) walk itself."""
    Q = preset_quiver(name)
    delta = radical_delta(Q)
    for m in sorted(set(delta)):
        i = delta.index(m)
        Qi = reorient_toward(Q, i)
        for x in (_minus_unit(radical_delta(Qi), i), regular_pair(Qi, field(3))[1].dims):
            lift = {q: functors._lift(Qi, field(q), x, "preinjective") for q in (2, 3, 4, 8, 9)}
            assert is_brick(lift[4]) == is_brick(lift[8]) == is_brick(lift[2])
            assert is_brick(lift[9]) == is_brick(lift[3])
            assert reps_equal(lift[3], functors._walk(Qi, field(3), x, "preinjective"))


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

"""The rigid rule of `reps.is_isomorphic` against the scan alone, and the
exhaustive GR memo, keyed by dimension vector alone.

Two modules of dimension vector x with <x, x> >= 1 and unequal End
dimensions are not isomorphic, and two with dim End = <x, x> are rigid and
isomorphic.  The oracle is `rep_helpers.is_isomorphic_by_scan`: Hom bases
both ways and a scan of the scalar classes, with no rigid rule.  Random
modules (the ranges of `test_gr_engines.random_modules`) are paired with a
random base change of themselves and with an independent module of the
same dimensions, and fixed Kronecker and D~4 pairs cover the branches of
the rule.  On rigid isomorphic pairs with a budget below the class count,
both tests refuse alike.  The one refusal the rule drops, a pair with
<x, x> >= 1, unequal End dimensions and an over-budget scan, is checked
to be exactly that.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tamehall import gr
from tamehall.errors import InfeasibleEnumerationError
from tamehall.functors import build_preinjective
from tamehall.gf import field, rref
from tamehall.gr import gr_measure
from tamehall.quiver import defect, positive_real_roots, preset_quiver, radical_delta, tits_form
from tamehall.reps import (
    Rep,
    direct_sum,
    end_dim,
    is_isomorphic,
    projective_rep,
    simple_rep,
)

from rep_helpers import is_isomorphic_by_scan
from test_gr_engines import PROPERTY, random_modules

K = preset_quiver("kronecker")
D4 = preset_quiver("dtilde:4")
BUDGET = 1000


def _outcome(test, M, N, budget):
    """The answer of `test`, or the (needed, budget) of its refusal."""
    try:
        return test(M, N, budget)
    except InfeasibleEnumerationError as exc:
        return ("refused", exc.needed, exc.budget)


def _classes(M):
    q = M.field.q
    return (q ** end_dim(M) - 1) // (q - 1)


def _assert_agrees_with_the_scan(M, N, budget=BUDGET):
    fast, scan = _outcome(is_isomorphic, M, N, budget), _outcome(is_isomorphic_by_scan, M, N, budget)
    if fast is False and isinstance(scan, tuple):
        # the one refusal the rule drops: End dimensions differ above the form
        assert tits_form(M.quiver, M.dims) >= 1 and end_dim(M) != end_dim(N)
    else:
        assert fast == scan
    t = tits_form(M.quiver, M.dims)
    if M.dims == N.dims and sum(M.dims) and t >= 1 and end_dim(M) == t == end_dim(N):
        # rigid, so isomorphic: a budget below the class count refuses alike
        assert fast is True or fast == ("refused", _classes(M), budget)
        below = _classes(M) - 1
        refused = ("refused", _classes(M), below)
        assert _outcome(is_isomorphic, M, N, below) == refused
        assert _outcome(is_isomorphic_by_scan, M, N, below) == refused
    return fast


@st.composite
def _invertible(draw, F, d):
    """g = P L D U with P a permutation, L and U unitriangular and D an
    invertible diagonal, with its inverse read off the reduced [g | 1]."""
    entry = st.integers(0, F.q - 1)
    L, U = np.eye(d, dtype=np.int64), np.eye(d, dtype=np.int64)
    for i in range(d):
        for j in range(i):
            L[i, j], U[j, i] = draw(entry), draw(entry)
    D = np.diag(np.array([draw(st.integers(1, F.q - 1)) for _ in range(d)], dtype=np.int64))
    P = np.eye(d, dtype=np.int64)[list(draw(st.permutations(range(d))))]
    g = F.matmul(F.matmul(P, L), F.matmul(D, U))
    R, _ = rref(F, np.hstack([g, np.eye(d, dtype=np.int64)]))
    return g, R[:, d:]


@st.composite
def _base_changes(draw, M):
    """M with every arrow matrix M_a replaced by g_t M_a g_s^-1."""
    F = M.field
    gs = [draw(_invertible(F, d)) for d in M.dims]
    return Rep(M.quiver, F, M.dims,
               tuple(F.matmul(F.matmul(gs[t][0], M.mats[a]), gs[s][1])
                     for a, (s, t) in enumerate(M.quiver.arrows)))


@st.composite
def _same_dims(draw, M):
    F = M.field
    return Rep(M.quiver, F, M.dims, tuple(
        np.array(draw(st.lists(st.integers(0, F.q - 1), min_size=M.dims[t] * M.dims[s],
                               max_size=M.dims[t] * M.dims[s])),
                 dtype=np.int64).reshape(M.dims[t], M.dims[s])
        for s, t in M.quiver.arrows))


@st.composite
def module_pairs(draw):
    M = draw(random_modules())
    return M, draw(_base_changes(M)), draw(_same_dims(M))


@PROPERTY
@given(module_pairs())
def test_rigid_rule_matches_the_scan_on_random_modules(pair):
    M, G, N = pair
    assert _assert_agrees_with_the_scan(M, G) in (True, ("refused", _classes(M), BUDGET))
    _assert_agrees_with_the_scan(G, M)
    _assert_agrees_with_the_scan(M, N)
    _assert_agrees_with_the_scan(N, M)


def _r(F, lam):
    return Rep(K, F, (1, 1), (np.array([[1]]), np.array([[lam]])))


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_rigid_rule_matches_the_scan_on_fixed_pairs(q):
    F = field(q)
    S = simple_rep(K, F, 0)
    # R_0 against R_1 and itself: the form is 0, so the scan decides
    assert _assert_agrees_with_the_scan(_r(F, 0), _r(F, 1)) is False
    assert _assert_agrees_with_the_scan(_r(F, 1), _r(F, 1)) is True
    # R_0 + S against the indecomposable of the root (2, 1): the form is 1,
    # the End dimensions 3 and 1
    A, X = direct_sum(_r(F, 0), S), build_preinjective(K, F, (2, 1))
    assert tits_form(K, A.dims) == 1 and (end_dim(A), end_dim(X)) == (3, 1)
    assert _assert_agrees_with_the_scan(A, X) is False
    assert _assert_agrees_with_the_scan(X, A) is False
    # R_0 + S against R_1 + S: equal End dimensions above the form, so the scan runs
    B = direct_sum(_r(F, 1), S)
    assert end_dim(B) == 3
    assert _assert_agrees_with_the_scan(A, B) is False
    assert _assert_agrees_with_the_scan(A, direct_sum(S, _r(F, 0))) is True
    # rigid decomposables against the same summands in the other order
    for P, Q in ((simple_rep(K, F, 1), projective_rep(K, F, 0)),
                 (projective_rep(D4, F, 0), projective_rep(D4, F, 2))):
        M = direct_sum(P, Q)
        assert end_dim(M) == tits_form(M.quiver, M.dims) >= 2
        assert _assert_agrees_with_the_scan(M, direct_sum(Q, P)) is True


# -- the exhaustive GR memo -----------------------------------------------

# (q, dims, measure) of every entry the memo holds after the measures of
# the D~4 preinjectives of length <= 7 over GF(2) and GF(3), one per
# isomorphism class; GF(3) has one more class of dimension delta than
# GF(2)
_PREINJ_MEMO_BASE = [
    ((0, 0, 0, 0, 1), (1,)), ((0, 0, 0, 1, 0), (1,)), ((0, 0, 1, 0, 0), (1,)),
    ((0, 0, 1, 0, 1), (1, 2)), ((0, 0, 1, 1, 0), (1, 2)), ((0, 0, 1, 1, 1), (1, 2, 3)),
    ((0, 1, 0, 0, 0), (1,)), ((0, 1, 1, 0, 0), (1, 2)), ((0, 1, 1, 0, 1), (1, 2, 3)),
    ((0, 1, 1, 1, 0), (1, 2, 3)), ((0, 1, 1, 1, 1), (1, 2, 3, 4)), ((0, 1, 2, 1, 1), (1, 2, 5)),
    ((1, 0, 0, 0, 0), (1,)), ((1, 0, 1, 0, 0), (1, 2)), ((1, 0, 1, 0, 1), (1, 2, 3)),
    ((1, 0, 1, 1, 0), (1, 2, 3)), ((1, 0, 1, 1, 1), (1, 2, 3, 4)), ((1, 0, 2, 1, 1), (1, 2, 5)),
    ((1, 1, 1, 0, 0), (1, 2, 3)), ((1, 1, 1, 0, 1), (1, 2, 3, 4)), ((1, 1, 1, 1, 0), (1, 2, 3, 4)),
    ((1, 1, 1, 1, 1), (1, 2, 3, 4, 5)), ((1, 1, 2, 0, 1), (1, 2, 5)), ((1, 1, 2, 1, 0), (1, 2, 5)),
] + [((1, 1, 2, 1, 1), (1, 2, 3, 6))] * 6 + [
    ((1, 1, 2, 1, 2), (1, 2, 3, 6, 7)), ((1, 1, 2, 2, 1), (1, 2, 3, 6, 7)),
    ((1, 2, 2, 1, 1), (1, 2, 3, 6, 7)), ((2, 1, 2, 1, 1), (1, 2, 3, 6, 7)),
]
PREINJ_MEMO = sorted([(2, d, m) for d, m in _PREINJ_MEMO_BASE]
                     + [(3, d, m) for d, m in _PREINJ_MEMO_BASE + [((1, 1, 2, 1, 1), (1, 2, 5, 6))]])


def test_exhaustive_memo_keys_each_class_by_its_dimension_vector(monkeypatch):
    monkeypatch.setattr(gr, "_REP_MEMO", {})
    box = tuple(2 * d for d in radical_delta(D4))
    roots = [x for x in positive_real_roots(D4, box) if defect(D4, x) > 0 and sum(x) <= 7]
    for q in (2, 3):
        for x in sorted(roots, key=lambda v: (sum(v), v)):
            gr_measure(build_preinjective(D4, field(q), x))
    entries = [(key, X, measure) for key, es in gr._REP_MEMO.items() for X, measure, _ in es]
    assert len(entries) == len(PREINJ_MEMO) == 69
    assert sorted((X.field.q, X.dims, m) for _, X, m in entries) == PREINJ_MEMO
    for i, (_, X, _) in enumerate(entries):
        for _, Y, _ in entries[i + 1:]:
            assert not is_isomorphic_by_scan(X, Y)
    for key, X, _ in entries:
        assert key == (X.quiver, X.field.q, X.dims)
    # a real root names at most one brick, the rigid one; delta, with
    # <delta, delta> = 0, names several
    bricks = {key: sum(1 for X, _, _ in es if end_dim(X) == 1) for key, es in gr._REP_MEMO.items()}
    assert all(n <= 1 for (Q, _, x), n in bricks.items() if tits_form(Q, x) == 1)
    assert max(n for (_, _, x), n in bricks.items() if x == radical_delta(D4)) > 1

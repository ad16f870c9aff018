"""Property tests of the plus/minus duality on generated inputs.

Quivers are random acyclic orientations of the affine presets, of small
Dynkin diagrams and of the 4-cycle; fields are GF(2..5); modules are
projectives, injectives and the indecomposables of the real roots
inside delta (or inside a small box on Dynkin diagrams).  The modules
that the reflection layer, `sub_rep` and `quotient_rep` build without
validation are rebuilt here with the validating constructor, which serves
as their oracle; the submodules are generated by a random vector.
"""

from contextlib import contextmanager

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from tamehall.errors import QuiverStructureError
from tamehall.functors import (
    build_preinjective,
    build_preprojective,
    reflect_minus,
    reflect_plus,
    tau,
    tau_minus,
)
from tamehall.gf import field, rref
from tamehall.quiver import (
    Quiver,
    coxeter_inverse,
    coxeter_matrix,
    defect,
    is_affine,
    opposite,
    positive_real_roots,
    preset_quiver,
    radical_delta,
)
from tamehall.reps import (
    Rep,
    dual,
    injective_rep,
    is_isomorphic,
    projective_rep,
    quotient_rep,
    sub_rep,
)

from rep_helpers import is_subrep, reps_equal

GRAPHS = ("kronecker", "dtilde:4", "dtilde:5", "dtilde:6", "e6tilde", "e7tilde", "e8tilde",
          "a:1", "a:2", "a:3", "a:5", "d:4", "d:5", "e:6", "atilde:3")
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])


def _edges(name):
    if name == "atilde:3":
        return (4, ((0, 1), (1, 2), (2, 3), (3, 0)))
    Q = preset_quiver(name)
    return Q.n, Q.arrows


@st.composite
def quivers(draw):
    """A random acyclic orientation of one of GRAPHS."""
    n, edges = _edges(draw(st.sampled_from(GRAPHS)))
    if len(set(edges)) < len(edges):          # the Kronecker pair flips together
        flips = [draw(st.booleans())] * len(edges)
    else:
        flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    arrows = tuple((t, s) if f else (s, t) for f, (s, t) in zip(flips, edges))
    try:
        return Quiver(n, arrows)
    except QuiverStructureError:              # an oriented cycle: turn one arrow
        return Quiver(n, ((arrows[0][1], arrows[0][0]),) + arrows[1:])


def _roots(Q):
    """Real roots inside delta (affine) or inside the box of 3s (Dynkin),
    each with the function that builds its module."""
    if is_affine(Q):
        out = []
        for x in positive_real_roots(Q, radical_delta(Q)):
            d = defect(Q, x)
            if d:
                out.append((x, build_preprojective if d < 0 else build_preinjective))
        return out
    return [(x, build_preprojective) for x in positive_real_roots(Q, (3,) * Q.n)]


@st.composite
def modules(draw):
    """(quiver, module): a projective, an injective or a root module."""
    Q = draw(quivers())
    F = field(draw(st.sampled_from((2, 3, 4, 5))))
    kind = draw(st.sampled_from(("proj", "inj", "root")))
    if kind == "root":
        x, build = draw(st.sampled_from(_roots(Q)))
        return Q, build(Q, F, x)
    i = draw(st.integers(0, Q.n - 1))
    return Q, (projective_rep if kind == "proj" else injective_rep)(Q, F, i)


@PROPERTY
@given(quivers())
def test_opposite_is_an_involution(Q):
    assert opposite(opposite(Q)) == Q
    assert opposite(Q).sinks() == tuple(v for v in range(Q.n) if Q.is_source(v))


@PROPERTY
@given(quivers())
def test_coxeter_inverse_inverts_coxeter_matrix(Q):
    assert np.array_equal(coxeter_matrix(Q) @ coxeter_inverse(Q), np.eye(Q.n, dtype=np.int64))


@PROPERTY
@given(modules())
def test_dual_is_an_involution(case):
    _, M = case
    assert reps_equal(dual(dual(M)), M)


@PROPERTY
@given(modules())
def test_tau_minus_undoes_tau_off_the_projectives(case):
    _, M = case
    T = tau(M)
    assume(T.total_dim != 0)                  # M is indecomposable, so not projective
    assert is_isomorphic(tau_minus(T), M)


@PROPERTY
@given(modules(), st.data())
def test_reflect_minus_undoes_reflect_plus_at_a_sink(case, data):
    Q, M = case
    i = data.draw(st.sampled_from(Q.sinks()))
    N = reflect_plus(M, i)
    if M.dims == tuple(int(j == i) for j in range(Q.n)):
        assert N.total_dim == 0               # M is S(i), the one summand the functor kills
    else:
        assert is_isomorphic(reflect_minus(N, i), M)


@contextmanager
def _unvalidated_builds():
    """Collect every module made by `Rep._built` inside the block."""
    real = Rep.__dict__["_built"]
    seen = []

    def record(cls, *parts):
        M = real.__func__(cls, *parts)
        seen.append(M)
        return M

    Rep._built = classmethod(record)
    try:
        yield seen
    finally:
        Rep._built = real


def _generated_spaces(M, v, x):
    """Reduced row bases of the smallest subrepresentation of M holding
    the vector x at vertex v: images along the arrows until nothing grows."""
    Q, F = M.quiver, M.field
    spaces = [F.zeros(0, n) for n in M.dims]
    spaces[v] = rref(F, x[None, :])[0]
    for _ in range(Q.n):                      # the longest path has < n arrows
        for a, (s, t) in enumerate(Q.arrows):
            images = F.matmul(M.mats[a], spaces[s].T).T
            spaces[t] = rref(F, np.vstack([spaces[t], images]))[0]
    return tuple(spaces)


@st.composite
def subreps(draw):
    """(quiver, module, the row bases of a random generated submodule)."""
    Q, M = draw(modules())
    v = draw(st.sampled_from([i for i, n in enumerate(M.dims) if n]))
    x = np.array(draw(st.lists(st.integers(0, M.field.q - 1), min_size=M.dims[v],
                               max_size=M.dims[v])), dtype=np.int64)
    x[draw(st.integers(0, M.dims[v] - 1))] = draw(st.integers(1, M.field.q - 1))
    return Q, M, _generated_spaces(M, v, x)


@PROPERTY
@given(subreps())
def test_unvalidated_builds_pass_validation(case):
    Q, M, spaces = case
    assert is_subrep(M, spaces)
    with _unvalidated_builds() as seen:
        dual(M)
        tau(M)
        tau_minus(M)
        for i in Q.sinks():
            reflect_plus(M, i)
        for i in [v for v in range(Q.n) if Q.is_source(v)]:
            reflect_minus(M, i)
        sub, quotient = sub_rep(M, spaces), quotient_rep(M, spaces)
    assert seen[-2:] == [sub, quotient]
    for N in seen:
        assert type(N.dims) is tuple and all(type(d) is int for d in N.dims)
        assert type(N.mats) is tuple and all(A.dtype == np.int64 for A in N.mats)
        assert reps_equal(Rep(N.quiver, N.field, N.dims, N.mats), N)


def _path_counts(Q):
    """P[j, i] = number of paths from j to i: the sum of the powers of the
    arrow-count matrix, which is nilpotent on an acyclic quiver."""
    A = np.zeros((Q.n, Q.n), dtype=np.int64)
    for s, t in Q.arrows:
        A[s, t] += 1
    P, power = np.eye(Q.n, dtype=np.int64), np.eye(Q.n, dtype=np.int64)
    for _ in range(Q.n):
        power = power @ A
        P += power
    return P


@PROPERTY
@given(quivers(), st.sampled_from((2, 3, 4, 5)))
def test_injective_dims_count_paths(Q, q):
    P = _path_counts(Q)
    for i in range(Q.n):
        assert injective_rep(Q, field(q), i).dims == tuple(int(v) for v in P[:, i])

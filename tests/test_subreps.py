"""`enumerate_subreps` against the generate-and-test walk it replaced, kept
here as the oracle.

The walk now enumerates, at each vertex, only the subspaces of the
preimage of the chosen target spaces under the outgoing arrows.  On random
orientations of the Kronecker quiver, A3, D~4 and D~5 (whose centres can
carry several outgoing arrows to different targets), over GF(2..5), and
on random modules, direct sums, preprojectives and homogeneous modules,
it must yield the same tuples of arrays, byte for byte and in the same
order, with and without a dimension vector, and raise the same budget
error.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from tamehall.errors import InfeasibleEnumerationError, InvalidInputError
from tamehall.functors import build_preprojective
from tamehall.gf import enumerate_subspaces, field, gaussian_binomial, in_rowspace
from tamehall.homreg import build_homogeneous_simples
from tamehall.quiver import (
    Quiver,
    admissible_sink_order,
    defect,
    positive_real_roots,
    preset_quiver,
    radical_delta,
)
from tamehall.reps import Rep, direct_sum, enumerate_subreps

GRAPHS = ("kronecker", "a:3", "dtilde:4", "dtilde:5")
PROPERTY = settings(max_examples=120, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _oracle_subreps(M, budget=2_000_000, dims=None):
    """Every subspace of every vertex, tested against the chosen targets
    with one product and one row-space test per outgoing arrow."""
    Q, F = M.quiver, M.field
    if dims is not None and (len(dims) != Q.n or any(d < 0 or d > M.dims[j] for j, d in enumerate(dims))):
        return
    est = 1
    for j, d in enumerate(M.dims):
        if dims is None:
            est *= sum(gaussian_binomial(d, k, F.q) for k in range(d + 1))
        else:
            est *= gaussian_binomial(d, dims[j], F.q)
    if est > budget:
        raise InfeasibleEnumerationError(
            f"subrepresentation scan of size about {est}", needed=est, budget=budget)
    order = admissible_sink_order(Q)
    chosen = {}

    def options(v):
        n_v = M.dims[v]
        ds = range(n_v + 1) if dims is None else [dims[v]]
        for d in ds:
            for U in enumerate_subspaces(F, n_v, d, budget=budget):
                ok = True
                for a in Q.outgoing(v):
                    t = Q.arrows[a][1]
                    if U.shape[0]:
                        images = F.matmul(M.mats[a], U.T).T
                        if not in_rowspace(F, chosen[t], images):
                            ok = False
                            break
                if ok:
                    yield U

    def walk(k):
        if k == len(order):
            yield tuple(chosen[j] for j in range(Q.n))
            return
        v = order[k]
        for U in options(v):
            chosen[v] = U
            yield from walk(k + 1)
        chosen.pop(v, None)

    yield from walk(0)


@st.composite
def quivers(draw):
    """A random acyclic orientation of one of GRAPHS (the Kronecker
    quiver's two arrows flip together)."""
    Q = preset_quiver(draw(st.sampled_from(GRAPHS)))
    if Q.n == 2:
        flips = [draw(st.booleans())] * len(Q.arrows)
    else:
        flips = draw(st.lists(st.booleans(), min_size=len(Q.arrows), max_size=len(Q.arrows)))
    return Quiver(Q.n, tuple((t, s) if f else (s, t) for f, (s, t) in zip(flips, Q.arrows)))


@st.composite
def random_reps(draw, Q, F, top=2):
    dims = tuple(draw(st.lists(st.integers(0, top), min_size=Q.n, max_size=Q.n)))
    mats = tuple(np.array(draw(st.lists(st.integers(0, F.q - 1), min_size=dims[t] * dims[s],
                                        max_size=dims[t] * dims[s])),
                          dtype=np.int64).reshape(dims[t], dims[s])
                 for s, t in Q.arrows)
    return Rep(Q, F, dims, mats)


@lru_cache(maxsize=None)
def _small_preprojective_roots(Q):
    return tuple(x for x in positive_real_roots(Q, radical_delta(Q)) if defect(Q, x) < 0)


@lru_cache(maxsize=None)
def _homogeneous(Q, F):
    """The homogeneous modules of dimension delta, or none when no
    projective of defect -1 fits under delta in this orientation."""
    try:
        return tuple(R for _, R in build_homogeneous_simples(Q, F))
    except InvalidInputError:
        return ()


@st.composite
def modules(draw):
    Q = draw(quivers())
    F = field(draw(st.sampled_from((2, 3, 4, 5))))
    kinds = ["random", "sum"]
    if Q.n > 3:
        kinds.append("preprojective")
        if _homogeneous(Q, F):
            kinds += ["homogeneous"] * 2
    kind = draw(st.sampled_from(kinds))
    event(kind)
    top = 3 if Q.n == 2 else 2
    if kind == "random":
        return draw(random_reps(Q, F, top))
    if kind == "sum":
        return direct_sum(draw(random_reps(Q, F, 1)), draw(random_reps(Q, F, 1)))
    if kind == "preprojective":
        return build_preprojective(Q, F, draw(st.sampled_from(_small_preprojective_roots(Q))))
    return draw(st.sampled_from(_homogeneous(Q, F)))


@st.composite
def dim_filters(draw, M):
    """None, random, all zero, or full at some vertices and random elsewhere."""
    kind = draw(st.sampled_from(("none", "random", "zero", "some full")))
    event(f"dims {kind}")
    if kind == "none":
        return None
    if kind == "zero":
        return (0,) * len(M.dims)
    dims = [draw(st.integers(0, n)) for n in M.dims]
    if kind == "some full":
        full = draw(st.lists(st.booleans(), min_size=len(dims), max_size=len(dims)))
        dims = [n if f else d for f, n, d in zip(full, M.dims, dims)]
    return tuple(dims)


def _record(spaces_seq):
    return [tuple((U.dtype.str, U.shape, U.flags.c_contiguous, U.tobytes()) for U in spaces)
            for spaces in spaces_seq]


@PROPERTY
@given(st.data())
def test_walk_yields_the_oracle_sequence(data):
    M = data.draw(modules())
    dims = data.draw(dim_filters(M))
    got = _record(enumerate_subreps(M, dims=dims))
    assert got == _record(_oracle_subreps(M, dims=dims))
    event("no subrep" if not got else "some subreps")


@PROPERTY
@given(st.data(), st.integers(1, 40))
def test_walk_raises_the_oracle_budget_error(data, budget):
    M = data.draw(modules())
    dims = data.draw(dim_filters(M))

    def outcome(gen):
        try:
            return "ok", _record(gen)
        except InfeasibleEnumerationError as exc:
            return "raised", str(exc), exc.needed, exc.budget

    got = outcome(enumerate_subreps(M, budget=budget, dims=dims))
    assert got == outcome(_oracle_subreps(M, budget=budget, dims=dims))
    event(got[0])


def test_centre_with_four_targets_matches_the_oracle():
    """The D~4 centre with arrows out to all four leaves, so its preimage
    meets four target spaces: the walk and the oracle agree on every
    preprojective inside delta."""
    Q = Quiver(5, ((2, 0), (2, 1), (2, 3), (2, 4)))
    for q in (2, 3):
        F = field(q)
        for x in _small_preprojective_roots(Q):
            M = build_preprojective(Q, F, x)
            assert _record(enumerate_subreps(M)) == _record(_oracle_subreps(M)), (q, x)


@pytest.mark.parametrize("dims", [None, (1, 1, 2, 1, 1), (0, 0, 0, 0, 0), (1, 1, 1, 1, 1)])
def test_homogeneous_d4_module_matches_the_oracle(dims):
    Q = preset_quiver("dtilde:4")
    for q in (3, 5):
        R = build_homogeneous_simples(Q, field(q))[0][1]
        assert _record(enumerate_subreps(R, dims=dims)) == _record(_oracle_subreps(R, dims=dims))

"""The root GR engine against its oracles, and the exhaustive engine's
one scan per module.

The root engine ranks the preprojective roots below dim M by their
measures and tests embeddings best first, skipping the roots whose Euler
form with dim M is not positive.  Its oracle here is the full scan it
replaced: one Hom(X, M) basis for every preprojective root below dim M,
then `max_measure` over the roots that embed, compared measure by measure
and witness by witness, in order.  The skip rests on
hom(X, M) = max(<x, m>, 0) for X preprojective and M preprojective or
homogeneous, and the ranking on `measure_key` ordering measures by the
symmetric-difference rule; both are checked on generated inputs.  On random
orientations of small affine quivers the root engine is compared with the
exhaustive engine, which enumerates every submodule.  The exhaustive
engine reads both the measure and the witnesses of a module off one
enumeration of its submodules, and its memo key reads hom(S_i, M) and
hom(M, S_i) off ranks; both are checked against the Hom computations they
replaced.
"""

from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tamehall import gr
from tamehall.functors import build_preinjective, build_preprojective
from tamehall.gf import field
from tamehall.gr import (
    _rep_measure,
    compare_measures,
    gr_measure,
    gr_submodules,
    is_indecomposable,
    max_measure,
    measure_key,
)
from tamehall.homreg import build_homogeneous_simples
from tamehall.quiver import (
    Quiver,
    defect,
    euler_form,
    positive_real_roots,
    preset_quiver,
    radical_delta,
)
from tamehall.reps import (
    Rep,
    direct_sum,
    enumerate_subreps,
    hom_basis,
    hom_dim,
    injective_classes,
    morphism_image,
    simple_rep,
    sub_rep,
)

D4 = preset_quiver("dtilde:4")
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _witness_spaces(M):
    return [tuple(U.tobytes() for U in w.spaces) for w in gr_submodules(M)]


def _full_scan(M):
    """(measure, witness spaces) of M from the full scan: a Hom(X, M) basis
    for every preprojective root below dim M, then `max_measure` over the
    roots whose module X embeds, and the images of every monomorphism
    class of the roots of that measure, in root order."""
    Q, F = M.quiver, M.field
    embedded = []
    for d in positive_real_roots(Q, M.dims):
        if defect(Q, d) >= 0 or d == M.dims:
            continue
        X = build_preprojective(Q, F, d)
        images = [tuple(U.tobytes() for U in morphism_image(F, phi))
                  for phi in injective_classes(F, X, hom_basis(X, M))]
        if images:
            embedded.append((_full_scan_root_measure(Q, F, d), images))
    target = max_measure(m for m, _ in embedded) if embedded else ()
    return target + (sum(M.dims),), [w for m, ims in embedded if m == target for w in ims]


@lru_cache(maxsize=None)
def _full_scan_root_measure(Q, F, d):
    return _full_scan(build_preprojective(Q, F, d))[0]


def _assert_matches_the_full_scan(M):
    measure, witnesses = _full_scan(M)
    assert gr._measure_over_roots(M) == measure, (M.quiver, M.field, M.dims)
    assert gr._measure_and_submodules(M)[0] == measure, (M.quiver, M.field, M.dims)
    assert _witness_spaces(M) == witnesses, (M.quiver, M.field, M.dims)


def _d4_roots():
    delta = radical_delta(D4)
    roots = [x for x in positive_real_roots(D4, tuple(2 * d for d in delta))
             if defect(D4, x) < 0 and sum(x) <= 12]
    assert len(roots) == 18
    return roots


def _homogeneous_modules():
    out = [(name, q, label, R)
           for name in ("dtilde:4", "dtilde:5", "dtilde:6", "e6tilde")
           for q in (3, 4, 5)
           for label, R in build_homogeneous_simples(preset_quiver(name), field(q))]
    assert len(out) == 24
    return out


def test_best_first_scan_matches_the_full_scan_on_d4_roots():
    for q in (2, 3, 5):
        for x in _d4_roots():
            _assert_matches_the_full_scan(build_preprojective(D4, field(q), x))


def test_best_first_scan_matches_the_full_scan_on_homogeneous_modules():
    for name, q, label, R in _homogeneous_modules():
        assert _full_scan(R)[1], (name, q, label)
        _assert_matches_the_full_scan(R)


@PROPERTY
@given(st.lists(st.integers(1, 12), max_size=8), st.lists(st.integers(1, 12), max_size=8))
@example([1, 2], [1, 2, 3])
@example([], [1])
@example([2, 5], [5, 2, 2])
def test_measure_key_orders_as_compare_measures(I, J):
    # the rule itself: I < J when the smallest element of the symmetric
    # difference lies in J
    a, b = set(I), set(J)
    rule = "=" if a == b else "<" if min(a ^ b) in b else ">"
    kI, kJ = measure_key(I), measure_key(J)
    key = "<" if kI < kJ else ">" if kI > kJ else "="
    assert compare_measures(I, J) == key == rule


# -- root engine against the exhaustive engine ----------------------------


@lru_cache(maxsize=None)
def _short_real_roots(name):
    """Real roots of length <= 8 of the underlying graph; the Tits form does
    not depend on the orientation."""
    Q = preset_quiver(name)
    return [x for x in positive_real_roots(Q, (8,) * Q.n) if sum(x) <= 8]


def _draw_orientation(draw, name):
    """A random orientation of the preset `name` (the Kronecker pair flips together)."""
    P = preset_quiver(name)
    if P.n == 2:
        flips = [draw(st.booleans())] * len(P.arrows)
    else:
        flips = draw(st.lists(st.booleans(), min_size=len(P.arrows), max_size=len(P.arrows)))
    return Quiver(P.n, tuple((t, s) if f else (s, t) for f, (s, t) in zip(flips, P.arrows)))


def _draw_preprojective_root(draw, name, Q):
    return draw(st.sampled_from([x for x in _short_real_roots(name) if defect(Q, x) < 0]))


@st.composite
def preprojective_bricks(draw):
    """A preprojective of length <= 8 on a random orientation of the
    Kronecker quiver, D~4 or D~5, over GF(2) or GF(3)."""
    name = draw(st.sampled_from(("kronecker", "dtilde:4", "dtilde:5")))
    Q = _draw_orientation(draw, name)
    x = _draw_preprojective_root(draw, name, Q)
    return build_preprojective(Q, field(draw(st.sampled_from((2, 3)))), x)


@lru_cache(maxsize=None)
def _homogeneous_family(Q, q):
    return [R for _, R in build_homogeneous_simples(Q, field(q))]


@st.composite
def preprojective_targets(draw):
    """(X, M) on a random orientation of the Kronecker quiver, D~4 or D~5
    over GF(2..5): X a preprojective of length <= 8, and M a preprojective
    of length <= 8 or a homogeneous module of dimension delta."""
    name = draw(st.sampled_from(("kronecker", "dtilde:4", "dtilde:5")))
    Q = _draw_orientation(draw, name)
    F = field(draw(st.sampled_from((2, 3, 4, 5))))
    X = build_preprojective(Q, F, _draw_preprojective_root(draw, name, Q))
    family = _homogeneous_family(Q, F.q)
    if family and draw(st.booleans()):
        return X, draw(st.sampled_from(family))
    return X, build_preprojective(Q, F, _draw_preprojective_root(draw, name, Q))


@settings(PROPERTY, max_examples=150)
@given(preprojective_targets())
def test_hom_from_a_preprojective_is_read_off_the_euler_form(case):
    X, M = case
    assert hom_dim(X, M) == max(euler_form(X.quiver, X.dims, M.dims), 0)


def _keyed(wits):
    """Dimension vectors and witness spaces, in a canonical order."""
    return sorted((w.dims, tuple(U.tobytes() for U in w.spaces)) for w in wits)


@PROPERTY
@given(preprojective_bricks())
# the Kronecker (3, 4) over GF(3): its submodule (0, 4) has 3^16 endomorphisms,
# over the idempotent scan's budget, unless its simple summands are split off first
@example(build_preprojective(preset_quiver("kronecker"), field(3), (3, 4)))
def test_root_engine_matches_the_exhaustive_engine(M):
    assert gr._uses_root_engine(M)
    root = gr_submodules(M)
    measure = _rep_measure(M, 2_000_000)
    with mock.patch.object(gr, "_uses_root_engine", lambda M: False):
        exhaustive = gr_submodules(M)
    assert gr._measure_over_roots(M) == measure
    assert _keyed(root) == _keyed(exhaustive)
    _assert_matches_the_full_scan(M)


# -- exhaustive engine ----------------------------------------------------


def _second_pass_witnesses(M):
    """Witness spaces of the GR submodules of M on the exhaustive engine as
    a second scan of the submodules after the measure."""
    measure = gr_measure(M)
    if measure[-1] != sum(M.dims):
        return []
    out = []
    for spaces in enumerate_subreps(M):
        d = tuple(U.shape[0] for U in spaces)
        if 0 < sum(d) < sum(M.dims):
            U = sub_rep(M, spaces)
            if is_indecomposable(U) and gr_measure(U) == measure[:-1]:
                out.append(tuple(U.tobytes() for U in spaces))
    return out


@pytest.fixture
def scans(monkeypatch):
    """The modules `gr` enumerates the submodules of, one entry per scan,
    with an empty measure memo."""
    calls = []
    enumerate_ = gr.enumerate_subreps
    monkeypatch.setattr(gr, "enumerate_subreps", lambda M, **kw: calls.append(M) or enumerate_(M, **kw))
    monkeypatch.setattr(gr, "_REP_MEMO", {})
    return calls


@pytest.mark.parametrize("x", [(1, 1, 2, 1, 2), (1, 1, 2, 2, 1), (1, 2, 2, 1, 1), (2, 1, 2, 1, 1)])
def test_exhaustive_gr_submodules_scans_the_module_once(scans, x):
    M = build_preinjective(D4, field(3), x)
    assert not gr._uses_root_engine(M)
    wits = gr_submodules(M)
    assert sum(1 for N in scans if N is M) == 1
    assert wits and [tuple(U.tobytes() for U in w.spaces) for w in wits] == _second_pass_witnesses(M)
    # a second module of the class: the memo gives the measure, and one
    # scan still gives the witnesses
    N = Rep(M.quiver, M.field, M.dims, M.mats)
    scans.clear()
    assert [w.spaces[2].tobytes() for w in gr_submodules(N)] == [w.spaces[2].tobytes() for w in wits]
    assert sum(1 for K in scans if K is N) == 1


def test_exhaustive_gr_submodules_of_a_remembered_decomposable_module_scans_nothing(scans):
    F = field(3)
    M = direct_sum(simple_rep(D4, F, 0), simple_rep(D4, F, 2))
    assert gr_measure(M) == (1,)
    scans.clear()
    assert gr_submodules(M) == []
    assert scans == []


def _probe_signature_by_hom(M):
    Q, F = M.quiver, M.field
    probes = [simple_rep(Q, F, i) for i in range(Q.n)]
    return (Q, F.q, M.dims, tuple(hom_dim(P, M) for P in probes),
            tuple(hom_dim(M, P) for P in probes))


@st.composite
def random_modules(draw):
    P = preset_quiver(draw(st.sampled_from(("kronecker", "a:3", "dtilde:4", "dtilde:5"))))
    if P.n == 2:
        flips = [draw(st.booleans())] * len(P.arrows)
    else:
        flips = draw(st.lists(st.booleans(), min_size=len(P.arrows), max_size=len(P.arrows)))
    Q = Quiver(P.n, tuple((t, s) if f else (s, t) for f, (s, t) in zip(flips, P.arrows)))
    F = field(draw(st.sampled_from((2, 3, 4, 5, 7, 8, 9))))
    dims = draw(st.lists(st.integers(0, 3), min_size=Q.n, max_size=Q.n))
    mats = tuple(np.array(draw(st.lists(st.integers(0, F.q - 1), min_size=dims[t] * dims[s],
                                        max_size=dims[t] * dims[s])),
                          dtype=np.int64).reshape(dims[t], dims[s])
                 for s, t in Q.arrows)
    return Rep(Q, F, tuple(dims), mats)


@PROPERTY
@given(random_modules())
def test_probe_signature_reads_the_simple_hom_dimensions_off_ranks(M):
    sig = gr._probe_signature(M)
    assert sig == _probe_signature_by_hom(M)
    assert all(type(v) is int for v in sig[3] + sig[4])

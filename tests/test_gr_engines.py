"""The root GR engine against its oracles, and the exhaustive engine's
one scan per module.

`gr_submodules` takes its target measure from the same list of embedded
roots that it scans for witnesses.  The two-pass form it replaced, a full
`gr_measure` and then a second scan of the roots, is kept here as the
oracle, witness by witness and in order.  On random orientations of small
affine quivers the root engine is compared with the exhaustive engine,
which enumerates every submodule.  The exhaustive engine reads both the
measure and the witnesses of a module off one enumeration of its
submodules, and its memo key reads hom(S_i, M) and hom(M, S_i) off ranks;
both are checked against the Hom computations they replaced.
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
from tamehall.gr import _rep_measure, _root_measure, gr_measure, gr_submodules, is_indecomposable
from tamehall.homreg import build_homogeneous_simples
from tamehall.quiver import Quiver, defect, positive_real_roots, preset_quiver, radical_delta
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


def _two_pass_gr_submodules(M):
    """Witness spaces of the GR submodules of M: a full gr_measure, then a
    second scan of the preprojective roots inside dim M."""
    target = gr_measure(M)[:-1]
    if not target:
        return []
    Q, F = M.quiver, M.field
    out = []
    for d in positive_real_roots(Q, M.dims):
        if defect(Q, d) >= 0 or d == M.dims or _root_measure(Q, F, d) != target:
            continue
        X = build_preprojective(Q, F, d)
        for phi in injective_classes(F, X, hom_basis(X, M)):
            out.append(tuple(U.tobytes() for U in morphism_image(F, phi)))
    return out


def _witness_spaces(M):
    return [tuple(U.tobytes() for U in w.spaces) for w in gr_submodules(M)]


def test_one_pass_submodules_match_the_two_pass_form_on_d4_roots():
    delta = radical_delta(D4)
    roots = [x for x in positive_real_roots(D4, tuple(2 * d for d in delta))
             if defect(D4, x) < 0 and sum(x) <= 12]
    assert len(roots) == 18
    for q in (2, 3, 5):
        F = field(q)
        for x in roots:
            M = build_preprojective(D4, F, x)
            assert _witness_spaces(M) == _two_pass_gr_submodules(M), (x, q)


def test_one_pass_submodules_match_the_two_pass_form_on_homogeneous_modules():
    checked = 0
    for name in ("dtilde:4", "dtilde:5", "dtilde:6", "e6tilde"):
        Q = preset_quiver(name)
        for q in (3, 4, 5):
            for label, R in build_homogeneous_simples(Q, field(q)):
                got = _witness_spaces(R)
                assert got and got == _two_pass_gr_submodules(R), (name, q, label)
                checked += 1
    assert checked == 24


# -- root engine against the exhaustive engine ----------------------------


@lru_cache(maxsize=None)
def _short_real_roots(name):
    """Real roots of length <= 8 of the underlying graph; the Tits form does
    not depend on the orientation."""
    Q = preset_quiver(name)
    return [x for x in positive_real_roots(Q, (8,) * Q.n) if sum(x) <= 8]


@st.composite
def preprojective_bricks(draw):
    """A preprojective of length <= 8 on a random orientation of the
    Kronecker quiver, D~4 or D~5, over GF(2) or GF(3)."""
    name = draw(st.sampled_from(("kronecker", "dtilde:4", "dtilde:5")))
    P = preset_quiver(name)
    if P.n == 2:
        flips = [draw(st.booleans())] * len(P.arrows)
    else:
        flips = draw(st.lists(st.booleans(), min_size=len(P.arrows), max_size=len(P.arrows)))
    Q = Quiver(P.n, tuple((t, s) if f else (s, t) for f, (s, t) in zip(flips, P.arrows)))
    x = draw(st.sampled_from([x for x in _short_real_roots(name) if defect(Q, x) < 0]))
    return build_preprojective(Q, field(draw(st.sampled_from((2, 3)))), x)


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

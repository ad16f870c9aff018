"""The root GR engine against its oracles.

`gr_submodules` takes its target measure from the same list of embedded
roots that it scans for witnesses.  The two-pass form it replaced, a full
`gr_measure` and then a second scan of the roots, is kept here as the
oracle, witness by witness and in order.  On random orientations of small
affine quivers the root engine is compared with the exhaustive engine,
which enumerates every submodule.
"""

from functools import lru_cache
from unittest import mock

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tamehall import gr
from tamehall.functors import build_preprojective
from tamehall.gf import field
from tamehall.gr import _rep_measure, _root_measure, gr_measure, gr_submodules
from tamehall.homreg import build_homogeneous_simples
from tamehall.quiver import Quiver, defect, positive_real_roots, preset_quiver, radical_delta
from tamehall.reps import hom_basis, injective_classes, morphism_image

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

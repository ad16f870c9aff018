import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tamehall import homreg
from tamehall.errors import InvalidInputError
from tamehall.functors import build_preinjective, reflect_minus, reflect_plus, tau
from tamehall.gf import field
from tamehall.hall import hall_number_sink_fast
from tamehall.homreg import (
    build_homogeneous_simples,
    homogeneous_simples,
    is_simple_homogeneous,
    regular_pair,
    sink_family,
)
from tamehall.quiver import Quiver, preset_quiver, radical_delta, reorient_toward
from tamehall.reps import (
    Rep,
    direct_sum,
    is_brick,
    is_isomorphic,
    simple_rep,
)

from rep_helpers import reps_equal

K = preset_quiver("kronecker")


def r_lambda(F, lam):
    return Rep(K, F, (1, 1), (np.array([[1]]), np.array([[lam]])))


def test_regular_pair_kronecker():
    F = field(3)
    P, I = regular_pair(K, F)
    assert P.dims == (0, 1)
    assert I.dims == (1, 0)


def test_regular_pair_rejects_dynkin():
    with pytest.raises(InvalidInputError):
        regular_pair(preset_quiver("a:3"), field(3))


def test_kronecker_family_is_the_classical_one():
    for q in (2, 3, 4, 5):
        F = field(q)
        fam = build_homogeneous_simples(K, F)
        assert len(fam) == q + 1
        labels = [lab for lab, _ in fam]
        assert labels == [str(i) for i in range(q)] + ["inf"]
        for lab, M in fam:
            assert M.dims == (1, 1)
            if lab == "inf":
                target = Rep(K, F, (1, 1), (np.array([[0]]), np.array([[1]])))
            else:
                target = r_lambda(F, int(lab))
            assert is_isomorphic(M, target)
        # pairwise distinct
        for (_, A), (_, B) in itertools.combinations(fam, 2):
            assert not is_isomorphic(A, B)


def test_kronecker_family_exhausts_length_two_indecomposables():
    # directly classify all (1,1)-modules up to isomorphism
    F = field(3)
    fam = [M for _, M in build_homogeneous_simples(K, F)]
    reps = []
    for a, b in itertools.product(range(F.q), repeat=2):
        if (a, b) == (0, 0):
            continue
        M = Rep(K, F, (1, 1), (np.array([[a]]), np.array([[b]])))
        if not any(is_isomorphic(M, N) for N in reps):
            reps.append(M)
    assert len(reps) == F.q + 1
    for M in reps:
        assert any(is_isomorphic(M, N) for N in fam)


def test_affine_family_counts():
    # three finite tubes eat three points of the line
    assert len(build_homogeneous_simples(preset_quiver("dtilde:4"), field(2))) == 0
    assert len(build_homogeneous_simples(preset_quiver("dtilde:4"), field(3))) == 1
    assert len(build_homogeneous_simples(preset_quiver("dtilde:4"), field(4))) == 2
    assert len(build_homogeneous_simples(preset_quiver("dtilde:4"), field(5))) == 3
    assert len(build_homogeneous_simples(preset_quiver("dtilde:5"), field(3))) == 1
    assert len(build_homogeneous_simples(preset_quiver("e6tilde"), field(3))) == 1


@pytest.mark.parametrize("name, tubes", [
    ("kronecker", 0), ("dtilde:4", 3), ("dtilde:5", 3), ("dtilde:6", 3),
    ("e6tilde", 3), ("e7tilde", 3), ("e8tilde", 3)])
def test_tube_count_and_lazy_family_on_every_affine_preset(name, tubes):
    # q + 1 - t points of the extension line are homogeneous, t the number
    # of exceptional tubes (Dlab-Ringel, Mem. AMS 173)
    Q, F = preset_quiver(name), field(4)
    fam = build_homogeneous_simples(Q, F)
    assert len(fam) == F.q + 1 - tubes
    # the list is in line order; the lazy scan finds the same members in
    # its own order (points other than 0, +-1 and inf first)
    labels = [lab for lab, _ in fam]
    assert labels == sorted(labels, key=lambda lab: F.q if lab == "inf" else int(lab))
    lazy = list(homogeneous_simples(Q, F))
    assert sorted(lab for lab, _ in lazy) == sorted(labels)
    members = dict(lazy)
    assert all(reps_equal(members[lab], M) for lab, M in fam)


def test_family_members_are_simple_homogeneous():
    for name, q in [("dtilde:4", 4), ("e6tilde", 3), ("kronecker", 3)]:
        Q = preset_quiver(name)
        F = field(q)
        d = radical_delta(Q)
        for _, M in build_homogeneous_simples(Q, F):
            assert M.dims == d
            assert is_brick(M)
            assert is_isomorphic(tau(M), M)
            assert is_simple_homogeneous(M)


def test_family_members_pairwise_non_isomorphic():
    Q = preset_quiver("dtilde:4")
    F = field(5)
    fam = build_homogeneous_simples(Q, F)
    assert len(fam) == 3
    for (_, A), (_, B) in itertools.combinations(fam, 2):
        assert not is_isomorphic(A, B)


def test_is_simple_homogeneous_rejects():
    F = field(3)
    assert not is_simple_homogeneous(simple_rep(K, F, 0))
    # decomposable module with the right dimension vector
    S01 = direct_sum(simple_rep(K, F, 0), simple_rep(K, F, 1))
    assert not is_simple_homogeneous(S01)
    # Dynkin modules are never homogeneous regulars
    A2 = preset_quiver("a:2")
    assert not is_simple_homogeneous(simple_rep(A2, F, 0))


def test_larger_types_build():
    F = field(3)
    for name in ["e7tilde", "e8tilde"]:
        Q = preset_quiver(name)
        fam = build_homogeneous_simples(Q, F)
        assert len(fam) == 1
        _, M = fam[0]
        assert M.dims == radical_delta(Q)
        assert is_brick(M)


# ------------------------------------------------ the family moved by reflections

AFFINE_PRESETS = ("kronecker", "dtilde:4", "dtilde:5", "dtilde:6", "e6tilde", "e7tilde", "e8tilde")


def _sink_count(R, i):
    Q, F = R.quiver, R.field
    dims = tuple(d - (j == i) for j, d in enumerate(radical_delta(Q)))
    return hall_number_sink_fast(R, i, build_preinjective(Q, F, dims))


@pytest.mark.parametrize("name", AFFINE_PRESETS)
@pytest.mark.parametrize("q", [3, 4])
def test_moved_family_matches_the_per_orientation_build(name, q):
    """The family is built at the first sink asked for and moved to every
    other sink; the oracle builds it afresh in each orientation."""
    Q, F = preset_quiver(name), field(q)
    delta = radical_delta(Q)
    sinks = [i for i in range(Q.n) if delta[i] <= 4]  # seconds per count above
    homreg._graph_family.cache_clear()
    try:
        for i in sinks:
            Qi = reorient_toward(Q, i)
            moved = list(itertools.islice(sink_family(Qi, F), 2))
            direct = next(homogeneous_simples(Qi, F))[1]
            assert moved, f"no homogeneous module at sink {i}"
            for M in moved:
                assert M.quiver == Qi and M.dims == delta
                assert is_simple_homogeneous(M)
                assert _sink_count(M, i) == _sink_count(direct, i)
    finally:
        homreg._graph_family.cache_clear()


def test_sink_family_rejects_quivers_with_several_sinks():
    with pytest.raises(InvalidInputError):
        next(sink_family(Quiver(5, ((2, 0), (2, 1), (3, 2), (4, 2))), field(3)))


def test_sink_family_rejects_a_cycle():
    # a one-sink orientation of a cycle has no reflection word to move by
    Q = Quiver(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
    for _ in range(2):  # a rejected cycle leaves no base orientation behind
        with pytest.raises(InvalidInputError):
            next(sink_family(Q, field(3)))
    family = homreg._graph_family((4, tuple(sorted(Q.underlying_edges()))))
    assert family.base is None and not family.scans


@st.composite
def one_sink_homogeneous(draw):
    """A homogeneous simple on a random one-sink orientation of an affine
    preset, read through the moved family."""
    name = draw(st.sampled_from(AFFINE_PRESETS))
    Q = preset_quiver(name)
    i = draw(st.integers(0, Q.n - 1))
    F = field(draw(st.sampled_from((3, 4, 5))))
    members = list(itertools.islice(sink_family(reorient_toward(Q, i), F), 2))
    return i, draw(st.sampled_from(members))


@settings(max_examples=30, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(one_sink_homogeneous())
def test_reflect_minus_undoes_reflect_plus_on_homogeneous(case):
    i, E = case
    N = reflect_plus(E, i)
    assert N.dims == E.dims and is_simple_homogeneous(N)
    assert is_isomorphic(reflect_minus(N, i), E)

import itertools

import numpy as np
import pytest

from tamehall.errors import InvalidInputError
from tamehall.functors import tau
from tamehall.gf import field
from tamehall.homreg import (
    build_homogeneous_simples,
    homogeneous_simples,
    is_simple_homogeneous,
    regular_pair,
)
from tamehall.quiver import preset_quiver, radical_delta
from tamehall.reps import (
    Rep,
    direct_sum,
    is_brick,
    is_isomorphic,
    reps_equal,
    simple_rep,
)

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
    lazy = list(homogeneous_simples(Q, F))
    assert [lab for lab, _ in lazy] == [lab for lab, _ in fam]
    assert all(reps_equal(A, B) for (_, A), (_, B) in zip(lazy, fam))


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

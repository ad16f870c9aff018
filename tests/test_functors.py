import numpy as np
import pytest

from tamehall.errors import InvalidInputError
from tamehall.functors import (
    build_preinjective,
    build_preprojective,
    reflect_minus,
    reflect_plus,
    tau,
    tau_minus,
)
from tamehall.gf import field
from tamehall.quiver import (
    coxeter_matrix,
    defect,
    positive_real_roots,
    preset_quiver,
    radical_delta,
    sigma_reverse,
)
from tamehall.reps import (
    Rep,
    direct_sum,
    end_dim,
    hom_dim,
    injective_rep,
    is_brick,
    is_isomorphic,
    projective_rep,
    simple_rep,
)

K = preset_quiver("kronecker")


def r_lambda(F, lam):
    return Rep(K, F, (1, 1), (np.array([[1]]), np.array([[lam]])))


def test_reflect_plus_requires_sink():
    F = field(3)
    M = projective_rep(K, F, 0)
    with pytest.raises(InvalidInputError):
        reflect_plus(M, 0)


def test_reflect_minus_requires_source():
    F = field(3)
    M = projective_rep(K, F, 0)
    with pytest.raises(InvalidInputError):
        reflect_minus(M, 1)


@pytest.mark.parametrize("i", [-1, 2])
def test_reflections_reject_vertices_outside_the_quiver(i):
    F = field(3)
    with pytest.raises(InvalidInputError, match="not in 0..1"):
        reflect_plus(simple_rep(K, F, 0), i)
    with pytest.raises(InvalidInputError, match="not in 0..1"):
        reflect_minus(simple_rep(K, F, 1), i)
    with pytest.raises(InvalidInputError, match="not in 0..1"):
        sigma_reverse(K, i)


def test_reflect_plus_kills_simple_at_sink():
    F = field(3)
    S = simple_rep(K, F, 1)
    M = reflect_plus(S, 1)
    assert M.dims == (0, 0)


def test_reflect_plus_then_minus_recovers():
    F = field(3)
    for M in [projective_rep(K, F, 0), r_lambda(F, 2),
              direct_sum(projective_rep(K, F, 0), r_lambda(F, 1))]:
        M1 = reflect_plus(M, 1)
        assert M1.quiver == sigma_reverse(K, 1)
        back = reflect_minus(M1, 1)
        assert back.quiver == K
        assert is_isomorphic(back, M)


def test_reflect_minus_then_plus_recovers():
    F = field(5)
    Q = preset_quiver("dtilde:4")
    src = Q.sources()[0]
    # the simple at the source is killed instead of recovered
    S = simple_rep(Q, F, src)
    assert reflect_minus(S, src).total_dim == 0
    for M in [projective_rep(Q, F, 2), projective_rep(Q, F, src),
              injective_rep(Q, F, 2)]:
        M1 = reflect_minus(M, src)
        back = reflect_plus(M1, src)
        assert is_isomorphic(back, M)


def test_reflected_dims_follow_simple_reflection():
    # for an indecomposable that is not the simple at the sink
    F = field(3)
    Q = preset_quiver("a:2")
    P = projective_rep(Q, F, 0)  # dims (1, 1)
    M = reflect_plus(P, 1)
    assert M.dims == (1, 0)


def test_tau_kills_projectives_and_tau_minus_kills_injectives():
    F = field(3)
    for name in ["kronecker", "a:3", "dtilde:4"]:
        Q = preset_quiver(name)
        for j in range(Q.n):
            assert tau(projective_rep(Q, F, j)).total_dim == 0
            assert tau_minus(injective_rep(Q, F, j)).total_dim == 0


def test_tau_fixes_homogeneous_regulars():
    for q in (3, 4, 5):
        F = field(q)
        for lam in range(q):
            M = r_lambda(F, lam)
            assert is_isomorphic(tau(M), M)
            assert is_isomorphic(tau_minus(M), M)
        inf = Rep(K, F, (1, 1), (np.array([[0]]), np.array([[1]])))
        assert is_isomorphic(tau(inf), inf)


def test_tau_dims_follow_coxeter_matrix():
    F = field(3)
    I0 = injective_rep(K, F, 0)
    T = tau(I0)
    Phi = coxeter_matrix(K)
    assert T.dims == tuple(Phi @ np.array(I0.dims))
    assert T.dims == (3, 2)
    assert is_brick(T)
    back = tau_minus(T)
    assert is_isomorphic(back, I0)


def test_tau_round_trip_on_preinjectives():
    F = field(2)
    Q = preset_quiver("dtilde:4")
    I = injective_rep(Q, F, 0)
    T = tau(I)
    assert T.total_dim > 0
    assert is_isomorphic(tau_minus(T), I)


def test_build_preprojective_kronecker_series():
    F = field(5)
    for x, proj in [((0, 1), 1), ((1, 2), 0)]:
        M = build_preprojective(K, F, x)
        assert M.dims == x
        assert is_isomorphic(M, projective_rep(K, F, proj))
    M = build_preprojective(K, F, (2, 3))
    assert M.dims == (2, 3)
    assert is_brick(M)
    assert end_dim(M) == 1
    M2 = build_preprojective(K, F, (3, 4))
    assert M2.dims == (3, 4)
    # the translate of (3,4) is (1,2)
    assert is_isomorphic(tau(M2), build_preprojective(K, F, (1, 2)))


def test_build_preinjective_kronecker_series():
    F = field(5)
    for x, inj in [((1, 0), 0), ((2, 1), 1)]:
        N = build_preinjective(K, F, x)
        assert N.dims == x
        assert is_isomorphic(N, injective_rep(K, F, inj))
    N = build_preinjective(K, F, (3, 2))
    assert N.dims == (3, 2)
    assert is_brick(N)


def test_build_preprojective_rejects_wrong_roots():
    F = field(3)
    with pytest.raises(InvalidInputError):
        build_preprojective(K, F, (1, 1))      # imaginary
    with pytest.raises(InvalidInputError):
        build_preprojective(K, F, (1, 0))      # preinjective
    with pytest.raises(InvalidInputError):
        build_preinjective(K, F, (1, 2))       # preprojective
    with pytest.raises(InvalidInputError):
        build_preprojective(K, F, (0, 0))


def test_build_preprojective_rejects_regular_roots():
    F = field(3)
    Q = preset_quiver("dtilde:4")
    with pytest.raises(InvalidInputError):
        build_preprojective(Q, F, (0, 0, 1, 1, 1))  # defect zero
    with pytest.raises(InvalidInputError):
        build_preinjective(Q, F, (0, 0, 1, 1, 1))


def test_build_all_small_preprojectives_affine():
    F = field(2)
    for name in ["kronecker", "dtilde:4", "e6tilde"]:
        Q = preset_quiver(name)
        d = radical_delta(Q)
        for x in positive_real_roots(Q, d):
            df = defect(Q, x)
            if df < 0:
                M = build_preprojective(Q, F, x)
            elif df > 0:
                M = build_preinjective(Q, F, x)
            else:
                continue
            assert M.dims == x
            assert is_brick(M)


def test_build_preprojective_dynkin():
    F = field(3)
    Q = preset_quiver("a:3")
    for x in positive_real_roots(Q, (1, 1, 1)):
        M = build_preprojective(Q, F, x)
        assert M.dims == x
        assert is_brick(M)
    Q = preset_quiver("d:4")
    for x in positive_real_roots(Q, (1, 1, 2, 1)):
        M = build_preprojective(Q, F, x)
        assert M.dims == x
        assert is_brick(M)


def test_preprojective_homs_respect_order():
    # no nonzero maps from later preprojectives to earlier ones
    F = field(3)
    P1 = build_preprojective(K, F, (1, 2))
    P2 = build_preprojective(K, F, (2, 3))
    assert hom_dim(P2, P1) == 0
    assert hom_dim(P1, P2) == 2

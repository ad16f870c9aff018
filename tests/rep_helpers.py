"""Small constructions and comparisons the tests use and the package does
not: random orientations of the presets, unit dimension vectors, the zero
module, structural equality of modules, whether per-vertex subspaces form
a submodule, and the isomorphism test by scan alone, the oracle of
`reps.is_isomorphic`."""

import numpy as np

from tamehall.errors import DEFAULT_BUDGET
from tamehall.gf import in_rowspace
from tamehall.quiver import Quiver, preset_quiver
from tamehall.reps import Rep, hom_basis, injective_classes


def random_orientation(name, rng):
    """The preset with each arrow flipped at random; the two arrows of the
    Kronecker quiver flip together, so that it stays acyclic."""
    base = preset_quiver(name)
    flips = [rng.random() < 0.5 for _ in base.arrows]
    if name == "kronecker":
        flips = [flips[0]] * 2
    return Quiver(base.n, tuple((t, s) if f else (s, t) for f, (s, t) in zip(flips, base.arrows)))


def unit_vector(n, i):
    return tuple(1 if j == i else 0 for j in range(n))


def zero_rep(Q, F):
    return Rep(Q, F, (0,) * Q.n, tuple(F.zeros(0, 0) for _ in Q.arrows))


def reps_equal(M, N):
    """Same quiver, field, dimensions and arrow matrices."""
    return (M.quiver == N.quiver and M.field == N.field and M.dims == N.dims
            and all(np.array_equal(a, b) for a, b in zip(M.mats, N.mats)))


def is_subrep(M, spaces):
    """Whether the per-vertex reduced row bases `spaces` inside M are
    carried into each other by every arrow."""
    F = M.field
    return all(in_rowspace(F, spaces[t], F.matmul(M.mats[a], spaces[s].T).T)
               for a, (s, t) in enumerate(M.quiver.arrows) if spaces[s].shape[0])


def is_isomorphic_by_scan(M, N, budget=DEFAULT_BUDGET):
    """The isomorphism test with no rigid rule: the Hom bases both ways,
    then a scan of the scalar classes of Hom(M, N) for one invertible at
    every vertex, refused as `injective_classes` refuses."""
    if M.quiver != N.quiver or M.field != N.field or M.dims != N.dims:
        return False
    if M.total_dim == 0:
        return True
    basis = hom_basis(M, N)
    if not basis or len(hom_basis(N, M)) != len(basis):
        return False
    return next(injective_classes(M.field, M, basis, budget), None) is not None

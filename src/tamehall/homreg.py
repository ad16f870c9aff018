"""Homogeneous regular simple modules of a tame quiver.

They arise as extensions of a preinjective by a preprojective whose
dimension vectors add up to the radical generator: the extension space is
a plane, its projective line parameterizes candidate modules, and the ones
that are bricks fixed by the translate form the homogeneous family.

`homogeneous_simples` yields the family lazily, testing each point of the
line only when the caller asks for the next member: the one-sink table
reads one or two members per field and the GR check reads one.
`build_homogeneous_simples` lists the whole family for callers that index
into it or count it.
"""

from __future__ import annotations

from collections.abc import Iterator

from .errors import InternalInconsistencyError, InvalidInputError
from .functors import build_preinjective, tau
from .gf import Field
from .quiver import Quiver, defect, euler_form, is_affine, radical_delta
from .reps import (
    Rep,
    ext_space,
    hom_basis,
    hom_combination,
    hom_dim,
    is_injective_morphism,
    middle_term,
    projective_rep,
)


def regular_pair(Q: Quiver, F: Field) -> tuple[Rep, Rep]:
    """(P, I): an indecomposable preprojective of defect -1 and the
    preinjective with complementary dimension vector inside delta.

    P is the projective at the smallest vertex j with delta_j = 1 whose
    dimension vector fits under delta.
    """
    if not is_affine(Q):
        raise InvalidInputError("homogeneous regulars need an affine quiver")
    delta = radical_delta(Q)
    P = None
    for j in range(Q.n):
        if delta[j] != 1:
            continue
        cand = projective_rep(Q, F, j)
        if all(a <= b for a, b in zip(cand.dims, delta)):
            P = cand
            break
    if P is None:
        raise InvalidInputError(
            "no projective of defect -1 fits under delta; "
            "use an orientation with a single sink")
    if defect(Q, P.dims) != -1:
        raise InternalInconsistencyError("chosen projective has wrong defect")
    rest = tuple(b - a for a, b in zip(P.dims, delta))
    I = build_preinjective(Q, F, rest)
    if hom_dim(I, P) != 0 or hom_dim(P, I) != 0:
        raise InternalInconsistencyError("pair admits unexpected morphisms")
    # with Hom(P, I) = 0, dim Ext^1(P, I) = -<P, I>
    if euler_form(Q, P.dims, I.dims) != 0:
        raise InternalInconsistencyError("pair admits backward extensions")
    return P, I


def is_simple_homogeneous(M: Rep) -> bool:
    """Brick with dimension vector delta, fixed by the translate.

    One basis map decides both: the test is that Hom(tau M, M) has
    dimension 1 and its basis map phi is invertible at every vertex.
    If M is a brick with tau M = M, then Hom(tau M, M) = End M = k and
    every nonzero map in it is invertible, so M passes.  Conversely, if
    M passes, psi -> psi phi is an isomorphism End M -> Hom(tau M, M)
    (its inverse is composition with phi^-1), so dim End M = 1: M is a
    brick, and phi is an isomorphism tau M = M."""
    Q = M.quiver
    if not is_affine(Q):
        return False
    if M.dims != radical_delta(Q):
        return False
    T = tau(M)
    if T.dims != M.dims:
        return False
    basis = hom_basis(T, M)
    return len(basis) == 1 and is_injective_morphism(M.field, T, basis[0])


def homogeneous_simples(Q: Quiver, F: Field) -> Iterator[tuple[str, Rep]]:
    """The homogeneous regular simples with dimension vector delta, yielded
    in the order of the extension line they come from: '0', '1', ...,
    'inf', each labelled by its point.

    The projective line of the two-dimensional extension space carries one
    candidate per point; candidates sitting in finite tubes fail the brick
    or translate test and are skipped.  A point is built and tested only
    when the next member is asked for."""
    P, I = regular_pair(Q, F)
    ext = ext_space(I, P)
    if ext.dim != 2:
        raise InternalInconsistencyError(
            f"extension space has dimension {ext.dim}, expected 2")
    lines = [(str(lam), (1, lam)) for lam in range(F.q)] + [("inf", (0, 1))]
    for label, coeffs in lines:
        cocycle = hom_combination(F, ext.cocycles, coeffs)
        E = middle_term(P, I, cocycle)
        if is_simple_homogeneous(E):
            yield label, E


def build_homogeneous_simples(Q: Quiver, F: Field) -> list[tuple[str, Rep]]:
    """The whole homogeneous family as a list, in `homogeneous_simples`
    order."""
    return list(homogeneous_simples(Q, F))

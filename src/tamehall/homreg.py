"""Homogeneous regular simple modules of a tame quiver.

They arise as extensions of a preinjective by a preprojective whose
dimension vectors add up to the radical generator: the extension space is
a plane, its projective line parameterizes candidate modules, and the ones
that are bricks fixed by the translate form the homogeneous family.

`homogeneous_simples` yields the family lazily, testing each point of the
line only when the caller asks for the next member: the one-sink table
reads one or two members per field and the GR check reads one.  It tests
the points 0, 1, -1 and infinity last, since the exceptional tubes of the
D~ and E~ quivers sit at three of them (Dlab-Ringel, Mem. AMS 173, 1976;
Ringel, LNM 1099, 3.6).  `build_homogeneous_simples` lists the whole
family in line order, for callers that index into it or count it.

`sink_family` serves the one-sink table, whose rows orient one
underlying graph toward different sinks.  It keeps one base orientation
per underlying graph, that of the first row to ask for any field, and
scans each field's family once, in that orientation.  It moves each
member another row reads to that row's orientation along a word of sink
reflections (`quiver.sink_sequence_to`), which exists when the graph is a
tree or the double edge.  So `regular_pair` builds its P and I on one
quiver for every field.
The move is sound: s_v delta = delta, since delta is radical; sigma_v^+
is an equivalence between the modules with no summand S_v on the two
orientations, so it keeps End; and it commutes with tau on regular
modules (Bernstein-Gelfand-Ponomarev 1973; Dlab-Ringel, Mem. AMS 173,
1976).  So a homogeneous simple moves to a homogeneous simple.  Each
moved module read is still put through `is_simple_homogeneous` on its
new quiver.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import count

from .errors import InternalInconsistencyError, InvalidInputError
from .functors import build_preinjective, reflect_plus, tau
from .gf import Field
from .quiver import Quiver, defect, euler_form, is_affine, radical_delta, sink_sequence_to
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
    """The homogeneous regular simples with dimension vector delta, each
    labelled by its point of the extension line: '0', '1', ..., 'inf'.

    The projective line of the two-dimensional extension space carries one
    candidate per point; candidates sitting in finite tubes fail the brick
    or translate test and are skipped.  A point is built and tested only
    when the next member is asked for.  The scan takes the points other
    than 0, 1, -1 and 'inf' first, in line order, then 1 and -1, then 0
    and 'inf', so the exceptional points of the D~ and E~ presets are
    tested last.  The order decides which member comes first, never which
    points are members."""
    P, I = regular_pair(Q, F)
    ext = ext_space(I, P)
    if ext.dim != 2:
        raise InternalInconsistencyError(
            f"extension space has dimension {ext.dim}, expected 2")
    lines = [(str(lam), (1, lam)) for lam in range(F.q)] + [("inf", (0, 1))]
    # sort key 0 for the points scanned first; -1 is 1 in characteristic 2
    late = {"1": 1, str(F.neg(1)): 2, "0": 3, "inf": 3}
    for label, coeffs in sorted(lines, key=lambda point: late.get(point[0], 0)):
        cocycle = hom_combination(F, ext.cocycles, coeffs)
        E = middle_term(P, I, cocycle)
        if is_simple_homogeneous(E):
            yield label, E


def build_homogeneous_simples(Q: Quiver, F: Field) -> list[tuple[str, Rep]]:
    """The whole homogeneous family as a list, in line order '0', '1', ...,
    'inf', whatever order `homogeneous_simples` tests the points in."""
    return sorted(homogeneous_simples(Q, F),
                  key=lambda member: F.q if member[0] == "inf" else int(member[0]))


@dataclass
class _Family:
    """One underlying graph's homogeneous families, as far as they have
    been read: the orientation of the first quiver that asked for any of
    them, and per field the scan of that orientation's extension line and
    the members the scan has yielded."""

    base: Quiver | None = None
    scans: dict[Field, tuple[Iterator[tuple[str, Rep]], list[Rep]]] = field(default_factory=dict)


@lru_cache(maxsize=None)
def _graph_family(graph: tuple[int, tuple[tuple[int, int], ...]]) -> _Family:
    return _Family()


def sink_family(Q: Quiver, F: Field) -> Iterator[Rep]:
    """The homogeneous simples of the one-sink quiver Q over F, yielded
    lazily.  Q's underlying graph keeps one base orientation, that of the
    first quiver to ask for a family of it over any field, and each
    field's family is scanned once, in that orientation.  Another
    orientation gets each member moved to it by the sink reflections of
    `sink_sequence_to`, in the same order, and a moved member that fails
    `is_simple_homogeneous` on Q raises InternalInconsistencyError.  A
    cycle has no reflection word and raises InvalidInputError."""
    sinks = Q.sinks()
    if len(sinks) != 1:
        raise InvalidInputError("the homogeneous family is moved only between one-sink quivers")
    family = _graph_family((Q.n, tuple(sorted(Q.underlying_edges()))))
    word = sink_sequence_to(family.base or Q, sinks[0])
    family.base = family.base or Q
    scan, members = family.scans.setdefault(F, (homogeneous_simples(family.base, F), []))
    for k in count():
        if k == len(members):
            member = next(scan, None)
            if member is None:
                return
            members.append(member[1])
        M = members[k]
        for v in word:
            M = reflect_plus(M, v)
        if word and not is_simple_homogeneous(M):
            raise InternalInconsistencyError(
                f"module moved to sink {sinks[0]} is not homogeneous simple")
        yield M

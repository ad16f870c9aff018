"""Reflection functors at sinks and sources, the translate built from a
full sweep of them, and constructors for the indecomposable of a given
preprojective or preinjective root.

Only the plus side is computed: each minus-side construction is its twin
read through the k-dual D, rep(Q) -> rep(Q^op), as sigma_i^- = D sigma_i^+ D
and tau^- = D tau D (Bernstein-Gelfand-Ponomarev 1973; Auslander-Reiten-
Smalo, ch. VIII)."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import InternalInconsistencyError, InvalidInputError
from .gf import Field, field, kernel_basis
from .quiver import (
    Quiver,
    admissible_sink_order,
    defect,
    injective_walk,
    is_affine,
    opposite,
    sigma_reverse,
    tits_form,
)
from .reps import Rep, dual, injective_rep, is_brick


def reflect_plus(M: Rep, i: int) -> Rep:
    """Sink reflection: replace the space at the sink i by the kernel of
    the combined map out of the neighbouring spaces."""
    Q, F = M.quiver, M.field
    if not Q.is_sink(i):
        raise InvalidInputError(f"vertex {i} is not a sink")
    inc = Q.incoming(i)
    offs = {}
    total = 0
    for a in inc:
        offs[a] = total
        total += M.dims[Q.arrows[a][0]]
    T = F.zeros(M.dims[i], total)
    for a in inc:
        s = Q.arrows[a][0]
        T[:, offs[a]:offs[a] + M.dims[s]] = M.mats[a]
    K = kernel_basis(F, T)
    newdim = K.shape[0]
    dims = tuple(newdim if j == i else M.dims[j] for j in range(Q.n))
    mats = []
    for a, (s, t) in enumerate(Q.arrows):
        if t == i:
            mats.append(K[:, offs[a]:offs[a] + M.dims[s]].T.copy())
        else:
            mats.append(M.mats[a])
    return Rep._built(sigma_reverse(Q, i), F, dims, tuple(mats))


def reflect_minus(N: Rep, i: int) -> Rep:
    """Source reflection: replace the space at the source i by the cokernel
    of the combined map into the neighbouring spaces, as D sigma_i^+ D."""
    if not N.quiver.is_source(i):
        raise InvalidInputError(f"vertex {i} is not a source")
    return dual(reflect_plus(dual(N), i))


def tau(M: Rep) -> Rep:
    """Full sweep of sink reflections along an admissible order; kills
    projective summands."""
    Q = M.quiver
    cur = M
    for i in admissible_sink_order(Q):
        cur = reflect_plus(cur, i)
    if cur.quiver != Q:
        raise InternalInconsistencyError("sweep did not return to the quiver")
    return cur


def tau_minus(N: Rep) -> Rep:
    """Inverse translate D tau D: a full sweep of source reflections;
    kills injective summands."""
    return dual(tau(dual(N)))


def _walk(Q: Quiver, F: Field, x: tuple[int, ...], kind: str) -> Rep:
    """Indecomposable with preinjective real root x of Q, built by walking
    the root to an injective and translating back; `kind` names the root
    in the error messages."""
    walked = injective_walk(Q, x)
    if walked is None:
        raise InvalidInputError(f"{x} is not a {kind} root")
    N = _translate(Q, F, *walked)
    if N.dims != x:
        raise InternalInconsistencyError("translate walk missed the root")
    return N


@lru_cache(maxsize=None)
def _translate(Q: Quiver, F: Field, j: int, r: int) -> Rep:
    """tau^r I_j, one tau from tau^(r-1) I_j, so the modules along an
    orbit cost one tau each however many roots read them.  The modules
    are shared between callers, as the matrices of `_signed_form` are, so
    no caller may write to them."""
    return injective_rep(Q, F, j) if r == 0 else tau(_translate(Q, F, j, r - 1))


@lru_cache(maxsize=None)
def _signed_form(Q: Quiver, x: tuple[int, ...], kind: str) -> tuple[np.ndarray, ...]:
    """Arrow matrices of the GF(3) walk to x, with 2 read as -1, so that
    they have entries in {0, 1, -1} and make sense over every field.
    Read-only, since every caller shares them."""
    mats = []
    for A in _walk(Q, field(3), x, kind).mats:
        S = np.where(A == 2, -1, A)
        S.setflags(write=False)
        mats.append(S)
    return tuple(mats)


def _lift(Q: Quiver, F: Field, x: tuple[int, ...], kind: str) -> Rep:
    """The signed form of x mapped into F: -1 becomes the label of -1."""
    minus_one = F.neg(1)
    return Rep(Q, F, x, tuple(np.where(S < 0, minus_one, S) for S in _signed_form(Q, x, kind)))


@lru_cache(maxsize=None)
def _lift_is_brick(Q: Quiver, x: tuple[int, ...], kind: str, p: int) -> bool:
    """Whether the lift of x into GF(p^k) is a brick, for every k.

    The lift has entries 0, 1 and p - 1, which are the labels of the
    prime field GF(p) inside every GF(p^k), so its End system is one
    matrix over GF(p) whatever k is; rank does not change under a field
    extension, so dim End is the same over GF(p^k) as over GF(p).  At
    p = 3 the lift is the GF(3) walk itself, whose module is
    indecomposable preinjective, so a brick, and needs no check."""
    return p == 3 or is_brick(_lift(Q, field(p), x, kind))


def _preinjective(Q: Quiver, F: Field, x, kind: str) -> Rep:
    """Indecomposable with preinjective real root x of Q.

    The module is walked once per quiver over GF(3) and lifted into F,
    since exceptional modules have bases with coefficients 0 and +-1
    (Ringel, "Exceptional modules are tree modules", 1998).  The lift is
    kept only if it is a brick in F, which `_lift_is_brick` decides once
    per characteristic: a brick M whose dimension vector is a real root
    has dim Ext^1(M, M) = dim End M - q(x) = 0, so it is the unique
    indecomposable with that root.  Otherwise the walk runs over F
    itself."""
    x = tuple(int(v) for v in x)
    if any(v < 0 for v in x) or not any(x):
        raise InvalidInputError("root must be positive")
    if tits_form(Q, x) != 1:
        raise InvalidInputError(f"{x} is not a real root")
    if is_affine(Q) and defect(Q, x) <= 0:
        raise InvalidInputError(f"{x} is not {kind}")
    if _lift_is_brick(Q, x, kind, F.p):
        return _lift(Q, F, x, kind)
    return _walk(Q, F, x, kind)


def build_preprojective(Q: Quiver, F: Field, x) -> Rep:
    """Indecomposable with preprojective real root x: the dual of the
    preinjective of Q^op with root x (D swaps the signs of the defect)."""
    return dual(_preinjective(opposite(Q), F, x, "preprojective"))


def build_preinjective(Q: Quiver, F: Field, x) -> Rep:
    """Indecomposable with preinjective real root x."""
    return _preinjective(Q, F, x, "preinjective")

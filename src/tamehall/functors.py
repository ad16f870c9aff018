"""Reflection functors at sinks and sources, the translate built from a
full sweep of them, and constructors for the indecomposable of a given
preprojective or preinjective root."""

from __future__ import annotations

import numpy as np

from .errors import InternalInconsistencyError, InvalidInputError
from .gf import Field, kernel_basis, quotient_map, rref
from .quiver import (
    Quiver,
    admissible_sink_order,
    coxeter_inverse,
    coxeter_matrix,
    defect,
    is_affine,
    sigma_reverse,
    tits_form,
)
from .reps import Rep, injective_rep, projective_rep


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
    return Rep(sigma_reverse(Q, i), F, dims, tuple(mats))


def reflect_minus(N: Rep, i: int) -> Rep:
    """Source reflection: replace the space at the source i by the cokernel
    of the combined map into the neighbouring spaces."""
    Q, F = N.quiver, N.field
    if not Q.is_source(i):
        raise InvalidInputError(f"vertex {i} is not a source")
    out = Q.outgoing(i)
    offs = {}
    total = 0
    for a in out:
        offs[a] = total
        total += N.dims[Q.arrows[a][1]]
    S = F.zeros(total, N.dims[i])
    for a in out:
        t = Q.arrows[a][1]
        S[offs[a]:offs[a] + N.dims[t], :] = N.mats[a]
    U, _ = rref(F, S.T.copy())
    proj, _ = quotient_map(F, U, total)
    newdim = proj.shape[0]
    dims = tuple(newdim if j == i else N.dims[j] for j in range(Q.n))
    mats = []
    for a, (s, t) in enumerate(Q.arrows):
        if s == i:
            mats.append(proj[:, offs[a]:offs[a] + N.dims[t]].copy())
        else:
            mats.append(N.mats[a])
    return Rep(sigma_reverse(Q, i), F, dims, tuple(mats))


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
    """Full sweep of source reflections, the other way around; kills
    injective summands."""
    Q = N.quiver
    cur = N
    for i in reversed(admissible_sink_order(Q)):
        cur = reflect_minus(cur, i)
    if cur.quiver != Q:
        raise InternalInconsistencyError("sweep did not return to the quiver")
    return cur


def _walk_to_known_dims(Q: Quiver, x, step_matrix: np.ndarray,
                        known: dict[tuple[int, ...], int]) -> tuple[int, int]:
    """Apply step_matrix until the vector matches a known dimension vector;
    return (vertex, number of steps)."""
    y = np.array(x, dtype=np.int64)
    limit = int(sum(x)) + 4 * Q.n
    for r in range(limit + 1):
        ty = tuple(int(v) for v in y)
        if ty in known:
            return known[ty], r
        y = step_matrix @ y
        if (y < 0).any() or not y.any():
            break
    raise InvalidInputError(f"{tuple(x)} does not reach a known endpoint")


def build_preprojective(Q: Quiver, F: Field, x) -> Rep:
    """Indecomposable with preprojective real root x, built by walking the
    root to a projective and translating back."""
    x = tuple(int(v) for v in x)
    if any(v < 0 for v in x) or not any(x):
        raise InvalidInputError("root must be positive")
    if tits_form(Q, x) != 1:
        raise InvalidInputError(f"{x} is not a real root")
    if is_affine(Q) and defect(Q, x) >= 0:
        raise InvalidInputError(f"{x} is not preprojective")
    known = {projective_rep(Q, F, j).dims: j for j in range(Q.n)}
    try:
        j, r = _walk_to_known_dims(Q, x, coxeter_matrix(Q), known)
    except InvalidInputError:
        raise InvalidInputError(f"{x} is not a preprojective root")
    M = projective_rep(Q, F, j)
    for _ in range(r):
        M = tau_minus(M)
    if M.dims != x:
        raise InternalInconsistencyError("translate walk missed the root")
    return M


def build_preinjective(Q: Quiver, F: Field, x) -> Rep:
    """Indecomposable with preinjective real root x."""
    x = tuple(int(v) for v in x)
    if any(v < 0 for v in x) or not any(x):
        raise InvalidInputError("root must be positive")
    if tits_form(Q, x) != 1:
        raise InvalidInputError(f"{x} is not a real root")
    if is_affine(Q) and defect(Q, x) <= 0:
        raise InvalidInputError(f"{x} is not preinjective")
    known = {injective_rep(Q, F, j).dims: j for j in range(Q.n)}
    try:
        j, r = _walk_to_known_dims(Q, x, coxeter_inverse(Q), known)
    except InvalidInputError:
        raise InvalidInputError(f"{x} is not a preinjective root")
    N = injective_rep(Q, F, j)
    for _ in range(r):
        N = tau(N)
    if N.dims != x:
        raise InternalInconsistencyError("translate walk missed the root")
    return N

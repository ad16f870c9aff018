"""The dense Hom system that `reps._hom_system` replaced, and Hom and Ext
read off it as they were before: the reference the sparse system is
compared with.  The matrix has one row per equation N_a X_s = X_t M_a,
entry by entry of X_t M_a, arrow by arrow, and one column per entry of
vec(X_j) (row-major), vertex by vertex."""

import itertools

import numpy as np

from tamehall.gf import kernel_basis, rank, rref


def hom_system(M, N):
    """The coefficient matrix of the commuting equations, and the unknown
    offsets per vertex."""
    Q, F = M.quiver, M.field
    offs = []
    tot = 0
    for j in range(Q.n):
        offs.append(tot)
        tot += N.dims[j] * M.dims[j]
    eq_rows = sum(N.dims[t] * M.dims[s] for s, t in Q.arrows)
    A = F.zeros(eq_rows, tot)
    base = 0
    for a, (s, t) in enumerate(Q.arrows):
        n_t, n_s = N.dims[t], N.dims[s]
        m_t, m_s = M.dims[t], M.dims[s]
        rows = n_t * m_s
        if rows:
            if n_s and m_s:
                blk = np.zeros((n_t, m_s, n_s, m_s), dtype=np.int64)
                idx = np.arange(m_s)
                blk[:, idx, :, idx] = N.mats[a][None, :, :]
                A[base:base + rows, offs[s]:offs[s] + n_s * m_s] = blk.reshape(rows, n_s * m_s)
            if n_t and m_t:
                blk = np.zeros((n_t, m_s, n_t, m_t), dtype=np.int64)
                idx = np.arange(n_t)
                blk[idx, :, idx, :] = F.neg(M.mats[a]).T[None, :, :]
                A[base:base + rows, offs[t]:offs[t] + n_t * m_t] = blk.reshape(rows, n_t * m_t)
        base += rows
    return A, offs


def hom_basis(M, N):
    A, offs = hom_system(M, N)
    return [tuple(row[offs[j]:offs[j] + N.dims[j] * M.dims[j]].reshape(N.dims[j], M.dims[j])
                  for j in range(M.quiver.n))
            for row in kernel_basis(M.field, A)]


def hom_dim(M, N):
    A, _ = hom_system(M, N)
    return A.shape[1] - rank(M.field, A)


def ext_space(N, M):
    """(dim Ext(N, M), the unit cocycles off the pivot columns of the
    transposed differential)."""
    Q, F = M.quiver, M.field
    D, _ = hom_system(N, M)
    c1 = D.shape[0]
    _, piv = rref(F, D.T)
    shapes = [(M.dims[t], N.dims[s]) for s, t in Q.arrows]
    cuts = list(itertools.accumulate(m * n for m, n in shapes))[:-1]
    cocycles = []
    for col in sorted(set(range(c1)) - set(piv)):
        vec = F.zeros(c1)
        vec[col] = 1
        cocycles.append(tuple(part.reshape(shape) for part, shape in zip(np.split(vec, cuts), shapes)))
    return c1 - len(piv), cocycles

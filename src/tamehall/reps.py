"""Finite-dimensional quiver representations over a small finite field.

Matrices act on column vectors: the matrix of an arrow s -> t has shape
(dim at t, dim at s).  Subspaces are handed around as reduced row-echelon
row bases, matching the conventions of the linear-algebra layer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    DEFAULT_BUDGET,
    InfeasibleEnumerationError,
    InternalInconsistencyError,
    InvalidInputError,
)
from .gf import (Field, back_substitute, eliminate, enumerate_subspaces, gaussian_binomial,
                 quotient_map, rank, rref, scalar_class_images)
from .quiver import Quiver, admissible_sink_order, euler_form, opposite, tits_form


@dataclass(eq=False)
class Rep:
    quiver: Quiver
    field: Field
    dims: tuple[int, ...]
    mats: tuple[np.ndarray, ...]

    def __post_init__(self):
        Q, F = self.quiver, self.field
        if len(self.dims) != Q.n or any(d < 0 for d in self.dims):
            raise InvalidInputError("dimension vector does not fit the quiver")
        if len(self.mats) != len(Q.arrows):
            raise InvalidInputError("need one matrix per arrow")
        mats = []
        for a, (s, t) in enumerate(Q.arrows):
            A = np.asarray(self.mats[a], dtype=np.int64)
            if A.shape != (self.dims[t], self.dims[s]):
                raise InvalidInputError(
                    f"matrix {a} has shape {A.shape}, expected ({self.dims[t]}, {self.dims[s]})")
            if A.size and (A.min() < 0 or A.max() >= F.q):
                raise InvalidInputError(f"matrix {a} has entries outside GF({F.q})")
            mats.append(A)
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "mats", tuple(mats))

    @classmethod
    def _built(cls, quiver: Quiver, field: Field, dims: tuple[int, ...],
               mats: tuple[np.ndarray, ...]) -> Rep:
        """A Rep whose parts the package computed itself, without the checks
        of `__post_init__`.  The caller guarantees what those checks would
        give: dims a tuple of Python ints, mats a tuple of int64 arrays of
        shape (dims[t], dims[s]) per arrow s -> t, entries in 0..q-1."""
        M = object.__new__(cls)
        M.quiver, M.field, M.dims, M.mats = quiver, field, dims, mats
        return M

    @property
    def total_dim(self) -> int:
        return sum(self.dims)


def simple_rep(Q: Quiver, F: Field, i: int) -> Rep:
    dims = tuple(1 if j == i else 0 for j in range(Q.n))
    return Rep(Q, F, dims, tuple(F.zeros(dims[t], dims[s]) for s, t in Q.arrows))


def direct_sum(M: Rep, N: Rep) -> Rep:
    if M.quiver != N.quiver or M.field != N.field:
        raise InvalidInputError("summands live over different quivers or fields")
    zero = tuple(M.field.zeros(M.dims[t], N.dims[s]) for s, t in M.quiver.arrows)
    return middle_term(M, N, zero)


def dual(M: Rep) -> Rep:
    """The k-dual D M = Hom_k(M, k), a representation of Q^op: the same
    spaces (in the dual bases) and every arrow matrix transposed.  D is
    an involution, and it swaps sinks with sources, projectives with
    injectives, and the plus and minus reflection functors."""
    return Rep._built(opposite(M.quiver), M.field, M.dims, tuple(A.T for A in M.mats))


# -- projectives and injectives ----------------------------------------


def _paths_from(Q: Quiver, i: int) -> list[tuple[tuple[int, ...], int]]:
    """All paths starting at i as (arrow index sequence, end vertex),
    sorted by length then sequence."""
    done = [((), i)]
    frontier = [((), i)]
    while frontier:
        nxt = []
        for p, v in frontier:
            for a in Q.outgoing(v):
                nxt.append((p + (a,), Q.arrows[a][1]))
        nxt.sort()
        done.extend(nxt)
        frontier = nxt
    return done


def projective_rep(Q: Quiver, F: Field, i: int) -> Rep:
    """Indecomposable projective with top the simple at i; basis given by
    the paths starting at i."""
    paths = _paths_from(Q, i)
    basis = {j: [p for p, e in paths if e == j] for j in range(Q.n)}
    index = {j: {p: k for k, p in enumerate(basis[j])} for j in range(Q.n)}
    dims = tuple(len(basis[j]) for j in range(Q.n))
    mats = []
    for a, (s, t) in enumerate(Q.arrows):
        A = F.zeros(dims[t], dims[s])
        for p in basis[s]:
            A[index[t][p + (a,)], index[s][p]] = 1
        mats.append(A)
    return Rep(Q, F, dims, tuple(mats))


def injective_rep(Q: Quiver, F: Field, i: int) -> Rep:
    """Indecomposable injective with socle the simple at i: the dual of
    the projective of Q^op at i, so its basis at j is the paths from j
    to i."""
    return dual(projective_rep(opposite(Q), F, i))


def top_projection(M: Rep) -> tuple[np.ndarray, ...]:
    """Per vertex j, the projection pi_j: M_j -> top(M)_j = M_j / (rad M)_j,
    a (t_j, dim M_j) matrix with t_j = dim top(M)_j.  (rad M)_j is the span
    of the images of the arrows into j."""
    F = M.field
    out = []
    for j in range(M.quiver.n):
        images = [M.mats[a].T for a in M.quiver.incoming(j)]
        rad, _ = rref(F, np.concatenate(images) if images else F.zeros(0, M.dims[j]))
        out.append(quotient_map(F, rad, M.dims[j])[0])
    return tuple(out)


# -- Hom and Ext -------------------------------------------------------


def _hom_system(M: Rep, N: Rep) -> tuple[list[dict[int, int]], list[int], int]:
    """The commuting equations N_a X_s = X_t M_a in the unknowns vec(X_j)
    (row-major), as sparse rows {column: label}: one per arrow a and entry
    (i, k) of X_t M_a, in that order, empty rows kept, so that row indices
    match the Ext differential.  Row (i, k) has N_a[i, l] at X_s[l, k] and
    -M_a[l, k] at X_t[i, l], read off the nonzero entries of the arrow
    matrices (s != t, so the two parts never meet).  Also returns the
    unknown offsets per vertex and the number of unknowns."""
    Q, neg = M.quiver, M.field._neg_list
    offs = []
    tot = 0
    for j in range(Q.n):
        offs.append(tot)
        tot += N.dims[j] * M.dims[j]
    rows = []
    for a, (s, t) in enumerate(Q.arrows):
        m_s, m_t = M.dims[s], M.dims[t]
        # per row i of N_a: (column of X_s[l, 0], N_a[i, l]); per column k
        # of M_a: (l, -M_a[l, k])
        left = [[(offs[s] + l * m_s, x) for l, x in enumerate(r) if x] for r in N.mats[a].tolist()]
        right = [[(l, neg[x]) for l, x in enumerate(r) if x] for r in M.mats[a].T.tolist()]
        for i, part in enumerate(left):
            base = offs[t] + i * m_t
            for k, col in enumerate(right):
                row = {}
                for c, x in part:
                    row[c + k] = x
                for l, x in col:
                    row[base + l] = x
                rows.append(row)
    return rows, offs, tot


def _unvec(M: Rep, N: Rep, offs: list[int], vec: np.ndarray) -> tuple[np.ndarray, ...]:
    out = []
    for j in range(M.quiver.n):
        n_j, m_j = N.dims[j], M.dims[j]
        out.append(vec[offs[j]:offs[j] + n_j * m_j].reshape(n_j, m_j))
    return tuple(out)


def hom_basis(M: Rep, N: Rep) -> list[tuple[np.ndarray, ...]]:
    """Basis of Hom(M, N) as tuples of per-vertex matrices, the reduced
    echelon basis of the kernel of the Hom system.

    As in `kernel_basis`, the system is eliminated with its columns
    numbered backwards, c -> last - c.  Each non-pivot column c there
    gives the kernel vector e_c - sum R[p, c] e_p over the reduced rows R
    with pivot p < c; numbered forwards again, its leading 1 is at
    last - c, a column where every other such vector is zero."""
    if M.quiver != N.quiver or M.field != N.field:
        raise InvalidInputError("Hom needs a common quiver and field")
    F = M.field
    rows, offs, tot = _hom_system(M, N)
    last = tot - 1
    basis, _ = eliminate(F, [{last - c: x for c, x in row.items()} for row in rows])
    back_substitute(F, basis)
    free = [c for c in range(last, -1, -1) if c not in basis]
    slot = {c: k for k, c in enumerate(free)}
    ker = [0] * (len(free) * tot)
    for k, c in enumerate(free):
        ker[k * tot + last - c] = 1
    neg = F._neg_list
    for p, r in basis.items():
        for c, x in r.items():
            if c != p:
                ker[slot[c] * tot + last - p] = neg[x]
    ker = np.array(ker, dtype=np.int64).reshape(len(free), tot)
    return [_unvec(M, N, offs, row) for row in ker]


def hom_dim(M: Rep, N: Rep) -> int:
    if M.quiver != N.quiver or M.field != N.field:
        raise InvalidInputError("Hom needs a common quiver and field")
    rows, _, tot = _hom_system(M, N)
    return tot - len(eliminate(M.field, rows)[0])


def ext1_dim(M: Rep, N: Rep) -> int:
    d = hom_dim(M, N) - euler_form(M.quiver, M.dims, N.dims)
    if d < 0:
        raise InternalInconsistencyError("negative first extension dimension")
    return d


def end_dim(M: Rep) -> int:
    return hom_dim(M, M)


def is_brick(M: Rep) -> bool:
    return end_dim(M) == 1


def hom_combination(F: Field, basis: list[tuple[np.ndarray, ...]],
                    coeffs) -> tuple[np.ndarray, ...]:
    """Linear combination of Hom-basis elements with the given labels."""
    if not basis:
        raise InvalidInputError("empty basis")
    nverts = len(basis[0])
    out = []
    for j in range(nverts):
        acc = np.zeros_like(basis[0][j])
        for c, phi in zip(coeffs, basis):
            if c:
                acc = F.add(acc, F.mul(np.int64(c), phi[j]))
        out.append(acc)
    return tuple(out)


def is_injective_morphism(F: Field, M: Rep, phi: tuple[np.ndarray, ...]) -> bool:
    return all(rank(F, phi[j]) == d for j, d in enumerate(M.dims) if d)


def _check_scan_budget(q: int, h: int, budget: int) -> None:
    """Refuse a scan over the (q^h - 1)/(q - 1) scalar classes of an
    h-dimensional space when they exceed the budget."""
    classes = (q ** h - 1) // (q - 1)
    if classes > budget:
        raise InfeasibleEnumerationError(
            f"monomorphism scan over about {classes} classes", needed=classes, budget=budget)


def injective_classes(F: Field, X: Rep, basis: list[tuple[np.ndarray, ...]],
                      budget: int = DEFAULT_BUDGET):
    """Yield phi for every scalar class of combinations of the Hom(X, -)
    basis that is injective at every vertex, one class at a time, as the
    per-vertex slices of the rows of `scalar_class_images` on the flattened
    basis, in its class order.  The budget is checked before any work."""
    _check_scan_budget(F.q, len(basis), budget)
    if not basis:
        return
    shapes = [U.shape for U in basis[0]]
    ends = list(itertools.accumulate(m * n for m, n in shapes))
    parts = list(zip([0] + ends, ends, shapes))
    S = np.stack([np.concatenate([U.reshape(-1) for U in phi]) for phi in basis])
    for block in scalar_class_images(F, S):
        for image in block:
            phi = tuple(image[lo:hi].reshape(shape) for lo, hi, shape in parts)
            if is_injective_morphism(F, X, phi):
                yield phi


def morphism_image(F: Field, phi: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
    """Per-vertex column spaces as reduced row bases."""
    return tuple(rref(F, mat.T)[0] for mat in phi)


@dataclass
class ExtSpace:
    """First extension group of N by M: classes of cocycle tuples f_a with
    f_a mapping the space of N at the source to the space of M at the
    target of each arrow a."""
    dim: int
    cocycles: list[tuple[np.ndarray, ...]]


def ext_space(N: Rep, M: Rep) -> ExtSpace:
    """Extensions 0 -> M -> E -> N -> 0, with explicit representatives for
    a basis of the classes.

    The differential sends (phi_j) in the sum of Hom(N_j, M_j) to
    (M_a phi_s - phi_t N_a) in the sum over arrows of Hom(N_s, M_t); it
    is the matrix of the Hom(N, M) system, one row per entry of the
    target, and Ext is its cokernel.  The pivot coordinates of its image
    are the rows independent of the rows before them (`eliminate`'s kept
    rows), so the unit cocycles at the other rows are a basis of the
    classes."""
    if M.quiver != N.quiver or M.field != N.field:
        raise InvalidInputError("Ext needs a common quiver and field")
    Q, F = M.quiver, M.field
    D, _, _ = _hom_system(N, M)
    c1 = len(D)
    _, kept = eliminate(F, D)
    dim = c1 - len(kept)
    shapes = [(M.dims[t], N.dims[s]) for s, t in Q.arrows]
    cuts = list(itertools.accumulate(m * n for m, n in shapes))[:-1]
    keptset = set(kept)
    cocycles = []
    for col in range(c1):
        if col not in keptset:
            vec = F.zeros(c1)
            vec[col] = 1
            cocycles.append(tuple(part.reshape(shape)
                                  for part, shape in zip(np.split(vec, cuts), shapes)))
    if len(cocycles) != dim:
        raise InternalInconsistencyError("extension basis size mismatch")
    return ExtSpace(dim=dim, cocycles=cocycles)


def middle_term(M: Rep, N: Rep, cocycle: tuple[np.ndarray, ...]) -> Rep:
    """Extension of N by M along a cocycle: block upper-triangular rep with
    M in the top-left corner."""
    Q, F = M.quiver, M.field
    dims = tuple(a + b for a, b in zip(M.dims, N.dims))
    mats = []
    for a, (s, t) in enumerate(Q.arrows):
        blk = F.zeros(dims[t], dims[s])
        blk[:M.dims[t], :M.dims[s]] = M.mats[a]
        blk[:M.dims[t], M.dims[s]:] = cocycle[a]
        blk[M.dims[t]:, M.dims[s]:] = N.mats[a]
        mats.append(blk)
    return Rep(Q, F, dims, tuple(mats))


# -- subrepresentations ------------------------------------------------


def sub_rep(M: Rep, spaces) -> Rep:
    """Subrepresentation on the given row bases, in those bases."""
    Q, F = M.quiver, M.field
    dims = tuple(int(U.shape[0]) for U in spaces)
    mats = []
    for a, (s, t) in enumerate(Q.arrows):
        U_s, U_t = spaces[s], spaces[t]
        images = F.matmul(M.mats[a], U_s.T)          # columns in the big space
        if U_t.shape[0]:
            # U_t is reduced: each row's pivot is its first nonzero entry
            coords = images[(U_t != 0).argmax(axis=1), :]
            # verify the coordinates reproduce the images
            if not np.array_equal(F.matmul(U_t.T, coords), images):
                raise InvalidInputError("not a subrepresentation")
            mats.append(coords)
        else:
            if images.size and images.any():
                raise InvalidInputError("not a subrepresentation")
            mats.append(F.zeros(0, dims[s]))
    # every block is an int64 product mod q of shape (dims[t], dims[s])
    return Rep._built(Q, F, dims, tuple(mats))


@dataclass
class SubrepWitness:
    """A subrepresentation with its ambient, bases, and quotient in hand."""
    ambient: Rep
    spaces: tuple[np.ndarray, ...]
    sub: Rep
    quotient: Rep

    @property
    def dims(self) -> tuple[int, ...]:
        return self.sub.dims


def subrep_witness(M: Rep, spaces) -> SubrepWitness:
    spaces = tuple(np.asarray(U, dtype=np.int64) for U in spaces)
    return SubrepWitness(M, spaces, sub_rep(M, spaces), quotient_rep(M, spaces))


def quotient_rep(M: Rep, spaces) -> Rep:
    """Quotient of M by the subrepresentation on the given row bases."""
    Q, F = M.quiver, M.field
    projs, secs = [], []
    for j in range(Q.n):
        pj, sj = quotient_map(F, spaces[j], M.dims[j])
        projs.append(pj)
        secs.append(sj)
    dims = tuple(p.shape[0] for p in projs)
    mats = []
    for a, (s, t) in enumerate(Q.arrows):
        mats.append(F.matmul(F.matmul(projs[t], M.mats[a]), secs[s]))
    # int64 products mod q of shape (dims[t], dims[s]), dims Python ints
    return Rep._built(Q, F, dims, tuple(mats))


@lru_cache(maxsize=None)
def _walk_plan(Q: Quiver) -> tuple[tuple[int, ...], tuple]:
    """(an admissible sink order of Q, and per vertex with arrows out of it
    the vertex, its (arrow, target) pairs and the position in the order of
    its last target)."""
    order = admissible_sink_order(Q)
    pos = {v: k for k, v in enumerate(order)}
    plan = []
    for v in range(Q.n):
        arrows = tuple((a, Q.arrows[a][1]) for a in Q.outgoing(v))
        if arrows:
            plan.append((v, arrows, max(pos[t] for _, t in arrows)))
    return order, tuple(plan)


def enumerate_subreps(M: Rep, budget: int = DEFAULT_BUDGET, dims=None):
    """Yield every subrepresentation of M as a tuple of per-vertex reduced
    row bases.  With `dims`, restrict to that dimension vector.

    Vertices are filled in following an admissible sink order, so arrow
    constraints always point at already-chosen spaces.  Once the last
    target of a vertex v is chosen, the allowed spaces at v are the
    subspaces of the preimage W_v = {x : M_a x in U_t for every a: v -> t}.
    With W_v in reduced echelon form and C a reduced basis of a subspace
    of k^(dim W_v), C W_v is reduced with pivots the pivots of W_v picked
    by those of C, and its entries off the pivots of W_v depend only on
    earlier entries of C.  So the spaces C W_v, in the order
    `enumerate_subspaces` gives the C, are the allowed subspaces of k^n_v
    in the order it gives them.
    """
    Q, F = M.quiver, M.field
    if dims is not None and (len(dims) != Q.n or any(d < 0 or d > M.dims[j] for j, d in enumerate(dims))):
        return
    est = 1
    for j, d in enumerate(M.dims):
        if dims is None:
            est *= sum(gaussian_binomial(d, k, F.q) for k in range(d + 1))
        else:
            est *= gaussian_binomial(d, dims[j], F.q)
    if est > budget:
        raise InfeasibleEnumerationError(
            f"subrepresentation scan of size about {est}", needed=est, budget=budget)
    order, plan = _walk_plan(Q)
    # outs[v]: (target, rows of the arrow's transpose) per arrow out of v,
    # for the vertices whose preimage can cut something; ready[k]: those
    # whose last target is order[k]
    outs = {}
    ready = [[] for _ in order]
    for v, arrows, k in plan:
        if M.dims[v] and (dims is None or dims[v]):
            outs[v] = [(t, M.mats[a].T.tolist()) for a, t in arrows]
            ready[k].append(v)
    chosen: dict[int, np.ndarray] = {}
    allowed: dict[int, np.ndarray | None] = dict.fromkeys(range(Q.n))  # None: all of k^n_v

    def narrow(v) -> bool:
        """Set allowed[v] to the preimage W_v; False when dims asks for more."""
        n_v = M.dims[v]
        # rows [U_t | 0], one block per arrow whose target space is not
        # everything, over [M_a^T | I]: the rows reduced to zero on the
        # arrow blocks span (0, W_v)
        blocks = [(chosen[t].tolist(), M.dims[t], rows) for t, rows in outs[v]
                  if chosen[t].shape[0] < M.dims[t]]
        if not blocks:
            allowed[v] = None
            return True
        width = sum(n_t for _, n_t, _ in blocks)
        system, off = [], 0
        for U, n_t, _ in blocks:
            system += [[0] * off + u + [0] * (width - off - n_t + n_v) for u in U]
            off += n_t
        system += [[x for _, _, rows in blocks for x in rows[i]] + [0] * i + [1] + [0] * (n_v - i - 1)
                   for i in range(n_v)]
        R, piv = rref(F, system)
        w = sum(c >= width for c in piv)
        if dims is not None and w < dims[v]:
            return False
        allowed[v] = None if w == n_v else R[len(piv) - w:, width:]
        return True

    def options(v):
        n_v, W = M.dims[v], allowed[v]
        ds = range(n_v + 1) if dims is None else [dims[v]]
        for d in ds:
            if W is None:
                yield from enumerate_subspaces(F, n_v, d, budget=budget)
            else:
                for C in enumerate_subspaces(F, W.shape[0], d, budget=budget):
                    yield F.matmul(C, W)

    def walk(k):
        if k == len(order):
            yield tuple(chosen[j] for j in range(Q.n))
            return
        for U in options(order[k]):
            chosen[order[k]] = U
            if all(narrow(v) for v in ready[k]):
                yield from walk(k + 1)

    yield from walk(0)


# -- isomorphism testing -----------------------------------------------


def is_isomorphic(M: Rep, N: Rep, budget: int = DEFAULT_BUDGET) -> bool:
    """Exact isomorphism test.  Rigid modules are decided by their
    dimension vector; the rest by a scan of the scalar classes of
    Hom(M, N) for one that is invertible at every vertex.

    Let x = dim M = dim N and t = <x, x>.  When t >= 1 the test first
    compares e = dim End(M) with dim End(N): End dimension is an
    isomorphism invariant, so unequal ones answer False.  When e = t, M
    and N are both rigid and so isomorphic.  Proof, on any acyclic quiver:
    - the path algebra is hereditary, so <x, x> = dim End X - dim Ext^1(X, X)
      for every X of dimension x, and e = t says Ext^1(X, X) = 0;
    - Hom and Ext are kernels and cokernels of matrices over GF(q), so
      both dimensions are the same after extending scalars to the algebraic
      closure K.  There the orbit of X in the irreducible affine space
      Rep(Q, x) has codimension dim Ext^1(X, X) (Voigt's lemma), so the
      orbit of a rigid module is open, and two nonempty open sets of an
      irreducible space meet: M and N are isomorphic over K;
    - modules over a finite-dimensional algebra that become isomorphic
      after a field extension were isomorphic before (Noether-Deuring).
    Sources: Kac, Invent. Math. 56 (1980); Crawley-Boevey, Lectures on
    representations of quivers (1992), section 4.

    A rigid pair is refused exactly when the scan would refuse it: then
    hom(M, N) = hom(N, M) = e and the scan runs over (q^e - 1)/(q - 1)
    classes, so that count is checked against the budget before True.
    Unequal End dimensions with t >= 1 answer False with no scan, so
    they are never refused.  Every other pair runs the scan, refused as
    `injective_classes` refuses."""
    if M.quiver != N.quiver or M.field != N.field:
        return False
    if M.dims != N.dims:
        return False
    if M.total_dim == 0:
        return True
    t = tits_form(M.quiver, M.dims)
    if t >= 1:
        e = end_dim(M)
        if e != end_dim(N):
            return False
        if e == t:
            _check_scan_budget(M.field.q, e, budget)
            return True
    basis = hom_basis(M, N)
    if not basis or hom_dim(N, M) != len(basis):
        return False
    return next(injective_classes(M.field, M, basis, budget), None) is not None

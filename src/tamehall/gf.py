"""Exact linear algebra over GF(q) for prime powers q <= 256.

Field elements are integer labels 0..q-1.  For prime q the label is the
residue itself; for q = p^k the label encodes a polynomial c0 + c1*a + ...
over GF(p) as c0 + c1*p + c2*p^2 + ... where a is a root of the fixed
irreducible polynomial of the field.  Every field, prime or not, looks
its operations up in tables over the labels, so operands must be labels
(see `Field`).  The element-wise operations accept numpy arrays and
broadcast; `Field.matmul`, `batched_full_row_rank` and `batched_kernels`
are built on them.
Scalar elimination runs in Python instead, on the tables as nested lists,
where per-call numpy overhead would dominate on the tiny or sparse systems
it sees, in two loops, one per input form: `rref`, which `rank`,
`kernel_basis` and `in_rowspace` go through, over dense row lists, and
`eliminate` over sparse rows {column: label}, the form of the Hom and Ext
systems.  A third elimination, `rational_rref`, runs over Q on Fractions,
for the library's integer systems: the Cartan matrix whose kernel is
delta, and the Vandermonde system of an interpolant.

Matrices are plain numpy int64 arrays.  Subspaces of k^n are stored as
matrices whose rows form a basis in reduced row echelon form; that form is
the canonical representative used for enumeration and comparison.
"""

from __future__ import annotations

import heapq
import itertools
from fractions import Fraction
from functools import lru_cache
from math import isqrt

import numpy as np

from .errors import (DEFAULT_BUDGET, InfeasibleEnumerationError, InternalInconsistencyError,
                     InvalidInputError)

MAX_Q = 256

# Fixed irreducible polynomials, ascending coefficients (constant term
# first, leading coefficient last).  These are the lexicographically
# smallest monic irreducibles in the label order used by _find_irreducible;
# pinning them keeps element labels stable across versions.
IRREDUCIBLE_POLYS: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 2): (1, 1, 1),        # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),     # x^3 + x + 1
    (3, 2): (1, 0, 1),        # x^2 + 1
}


def _factor_prime_power(q: int) -> tuple[int, int]:
    if q < 2:
        raise InvalidInputError(f"field order must be >= 2, got {q}")
    p = next((d for d in range(2, isqrt(q) + 1) if q % d == 0), q)
    k, m = 0, q
    while m % p == 0:
        m //= p
        k += 1
    if m != 1:
        raise InvalidInputError(f"{q} is not a prime power")
    return p, k


def _poly_is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    """Trial division of a monic polynomial by all smaller monic polynomials."""
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            divisor = tuple(tail) + (1,)
            # long division remainder
            rem = list(poly)
            for k in range(deg, d - 1, -1):
                c = rem[k]
                if c == 0:
                    continue
                rem[k] = 0
                for j in range(d):
                    rem[k - d + j] = (rem[k - d + j] - c * divisor[j]) % p
            if all(c == 0 for c in rem[:d]):
                return False
    return True


def _find_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Smallest monic irreducible of degree k over GF(p), ordered by the
    base-p encoding of the non-leading coefficients."""
    for code in range(p**k):
        tail = []
        c = code
        for _ in range(k):
            tail.append(c % p)
            c //= p
        poly = tuple(tail) + (1,)
        if _poly_is_irreducible(poly, p):
            return poly
    raise InvalidInputError(f"no irreducible polynomial of degree {k} over GF({p})")  # pragma: no cover


class Field:
    """Arithmetic over GF(q) with vectorised numpy operations.

    Every field keeps q x q addition and multiplication tables and
    negation and inversion tables indexed by label, and every operation
    but a prime field's `matmul` is a lookup in them.  So operands must be
    labels 0..q-1: a table does not reduce mod q, and a negative index
    wraps round silently.  `Rep.__post_init__` rejects modules from
    outside with other entries, and every other array in the package
    holds labels it computed, except the signed GF(3) walk of
    `functors._signed_form` (entries -1), which `functors._lift` maps
    through `F.neg(1)` before it builds a module.
    """

    def __init__(self, q: int):
        if q > MAX_Q:
            raise InvalidInputError(f"field order {q} exceeds the supported maximum {MAX_Q}")
        p, k = _factor_prime_power(q)
        self.q = q
        self.p = p
        self.degree = k
        self.is_prime = k == 1
        self.poly = None if self.is_prime else IRREDUCIBLE_POLYS.get((p, k)) or _find_irreducible(p, k)
        self._build_tables()
        # -a and 1/a sit where the row of a holds 0 and 1; 1/0 is left 0
        self._neg_table = (self._add_table == 0).argmax(axis=1)
        self._inv_table = (self._mul_table == 1).argmax(axis=1)
        # the tables as nested lists, for the scalar eliminations
        self._add_rows = self._add_table.tolist()
        self._mul_rows = self._mul_table.tolist()
        self._neg_list = self._neg_table.tolist()
        self._inv_list = self._inv_table.tolist()
        if q <= 16:
            self._check_axioms()

    # -- construction ---------------------------------------------------

    def _build_tables(self) -> None:
        """The q x q addition and multiplication tables, computed on the
        base-p digits D of the labels, constant term first.  A sum adds
        digits mod p.  A product convolves them, then reduces each term of
        degree k and up, top degree first, by x^k = -(poly less its
        leading term); a prime field (k = 1) has no such term."""
        q, p, k = self.q, self.p, self.degree
        weights = p ** np.arange(k)
        D = np.arange(q)[:, None] // weights % p
        self._add_table = (D[:, None, :] + D[None, :, :]) % p @ weights
        prod = np.zeros((q, q, 2 * k - 1), dtype=np.int64)
        for i in range(k):
            prod[:, :, i:i + k] += D[:, None, i, None] * D[None, :, :]
        prod %= p
        for d in range(2 * k - 2, k - 1, -1):
            prod[:, :, d - k:d] = (prod[:, :, d - k:d] - prod[:, :, d, None] * self.poly[:k]) % p
        self._mul_table = prod[:, :, :k] @ weights

    def _check_axioms(self) -> None:
        q = self.q
        a = np.arange(q).reshape(q, 1, 1)
        b = np.arange(q).reshape(1, q, 1)
        c = np.arange(q).reshape(1, 1, q)
        els = np.arange(q)
        nz = els[1:]
        pairs = (
            (self.add(a, b), self.add(b, a)),
            (self.mul(a, b), self.mul(b, a)),
            (self.add(self.add(a, b), c), self.add(a, self.add(b, c))),
            (self.mul(self.mul(a, b), c), self.mul(a, self.mul(b, c))),
            (self.mul(a, self.add(b, c)), self.add(self.mul(a, b), self.mul(a, c))),
            (self.add(els, self.neg(els)), np.zeros(q, dtype=np.int64)),
            (self.mul(nz, self.inv(nz)), np.ones(q - 1, dtype=np.int64)),
        )
        if not all(np.array_equal(lhs, rhs) for lhs, rhs in pairs):
            raise InternalInconsistencyError(f"GF({q}) tables break a field axiom")

    # -- element-wise operations ----------------------------------------

    def add(self, a, b):
        return self._add_table[np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)]

    def sub(self, a, b):
        return self._add_table[np.asarray(a, dtype=np.int64), self._neg_table[np.asarray(b, dtype=np.int64)]]

    def mul(self, a, b):
        return self._mul_table[np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)]

    def neg(self, a):
        return self._neg_table[np.asarray(a, dtype=np.int64)]

    def inv(self, a):
        a = np.asarray(a, dtype=np.int64)
        if np.any(a == 0):
            raise ZeroDivisionError("inversion of 0 in GF(q)")
        return self._inv_table[a]

    def matmul(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Exact matrix product of two label matrices."""
        A = np.asarray(A, dtype=np.int64)
        B = np.asarray(B, dtype=np.int64)
        if A.shape[1] != B.shape[0]:
            raise ValueError(f"shape mismatch {A.shape} @ {B.shape}")
        if self.is_prime:
            # labels are residues only in a prime field, where the integer
            # product reduced mod q is the field product
            return (A @ B) % self.q
        out = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
        for k in range(A.shape[1]):
            # row x of the q x n table is x * B[k]; gather it by A[:, k]
            out = self._add_table[out, self._mul_table[:, B[k]][A[:, k]]]
        return out

    def elements(self) -> range:
        return range(self.q)

    def zeros(self, *shape: int) -> np.ndarray:
        return np.zeros(shape, dtype=np.int64)

    def eye(self, n: int) -> np.ndarray:
        return np.eye(n, dtype=np.int64)

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and other.q == self.q

    def __hash__(self) -> int:
        return hash(("Field", self.q))

    def __repr__(self) -> str:
        return f"Field({self.q})"


@lru_cache(maxsize=None)
def field(q: int) -> Field:
    """Shared Field instances; table construction is done once per q."""
    return Field(q)


# -- elimination -------------------------------------------------------


def rref(F: Field, M: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns.  Deterministic: the
    pivot in each column is the first eligible row.

    Gauss-Jordan over Python row lists of labels, never writing to M, on
    the tables of F.  Each elimination touches only the nonzero entries of
    the pivot row, which is all zero left of its pivot.  Sparse rows go to
    `eliminate` instead; routing dense input through it as well was
    measured slower on the GR workloads, whose many small dense
    eliminations pay for the dicts."""
    A = np.asarray(M, dtype=np.int64)
    if A.ndim != 2:
        raise ValueError("rref expects a 2-d array")
    rows, cols = A.shape
    R = A.tolist()
    add, mul, neg, inv = F._add_rows, F._mul_rows, F._neg_list, F._inv_list
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pr = r
        while pr < rows and not R[pr][c]:
            pr += 1
        if pr == rows:
            continue
        row = R[pr]
        R[pr] = R[r]
        R[r] = row
        s = inv[row[c]]
        if s != 1:
            ms = mul[s]
            row[c:] = [ms[x] for x in row[c:]]
        # (column, minus the pivot row's entry) over its nonzero entries
        nz = [(j, neg[row[j]]) for j in range(c, cols) if row[j]]
        for i, Ri in enumerate(R):
            f = Ri[c]
            if not f or i == r:
                continue
            mf = mul[f]
            for j, y in nz:
                Ri[j] = add[Ri[j]][mf[y]]
        pivots.append(c)
        r += 1
    return np.array(R[:r], dtype=np.int64).reshape(r, cols), tuple(pivots)


def _subtractor(F: Field, basis: dict[int, dict[int, int]]):
    """The step dst -= f src of `eliminate` on sparse rows, for the stored
    rows `basis`: it drops the entries that become zero and pushes onto
    todo the stored pivots where dst gains an entry."""
    add, mul, neg = F._add_rows, F._mul_rows, F._neg_list
    push = heapq.heappush

    def subtract(dst, f, src, todo):
        mf = mul[neg[f]]
        for j, y in src.items():
            old = dst.get(j, 0)
            x = add[old][mf[y]]
            if x:
                if not old and j in basis:
                    push(todo, j)
                dst[j] = x
            else:
                del dst[j]
    return subtract


def eliminate(F: Field, rows) -> tuple[dict[int, dict[int, int]], list[int]]:
    """Gaussian elimination on sparse rows {column: nonzero label}, never
    writing to them.  Returns echelon rows keyed by pivot column, and the
    indices of the input rows independent of the rows before them.

    One input row at a time is reduced by the stored rows at its pivot
    columns, smallest first, and what is left, if anything, is stored
    scaled to a 1 at its first column, its pivot.  A stored row has no
    entry left of its pivot and none at an earlier stored pivot, so
    subtracting it adds entries only right of the column it clears, and
    a heap of the pivot columns met finishes the reduction.  The stored
    rows are an echelon basis of the row space, with the pivots of `rref`,
    and the kept indices are the pivot columns of `rref` of the transpose;
    `back_substitute` makes the rows those of `rref`.

    This is the second elimination loop beside `rref`, for the input form
    of the Hom systems: their rows hold a few entries each, and the work
    here follows the entries, not the width."""
    mul, inv = F._mul_rows, F._inv_list
    basis: dict[int, dict[int, int]] = {}
    kept: list[int] = []
    subtract = _subtractor(F, basis)
    for i, row in enumerate(rows):
        r = dict(row)
        todo = [c for c in r if c in basis]
        heapq.heapify(todo)
        while todo:
            c = heapq.heappop(todo)
            f = r.get(c)
            if f:
                subtract(r, f, basis[c], todo)
        if not r:
            continue
        c = min(r)
        if r[c] != 1:
            ms = mul[inv[r[c]]]
            r = {j: ms[x] for j, x in r.items()}
        basis[c] = r
        kept.append(i)
    return basis, kept


def back_substitute(F: Field, basis: dict[int, dict[int, int]]) -> None:
    """Clear the echelon rows of `eliminate` of the later pivots, in place,
    from the largest pivot down.  The rows, ordered by pivot, are then the
    reduced echelon basis of their span, which is unique: the rows `rref`
    gives."""
    subtract = _subtractor(F, basis)
    # a finished row has entries only at its pivot and off every pivot, so
    # clearing it from an earlier row gains that row no pivot to push
    for p in sorted(basis, reverse=True):
        b = basis[p]
        for c in [c for c in b if c != p and c in basis]:
            subtract(b, b[c], basis[c], None)


def rational_rref(rows) -> tuple[list[list[Fraction]], tuple[int, ...]]:
    """Reduced row echelon form over Q and pivot columns, for rows of
    integers or Fractions, never writing to them.  Returns the nonzero
    rows of the reduced form, as Fractions.  Deterministic: the pivot in
    each column is the first eligible row, as in `rref`.  Its systems
    are small: one row per vertex of a quiver or per sampled field."""
    R = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(len(R[0]) if R else 0):
        pr = next((i for i in range(r, len(R)) if R[i][c]), None)
        if pr is None:
            continue
        row = [x / R[pr][c] for x in R[pr]]
        R[pr] = R[r]
        R[r] = row
        for i, Ri in enumerate(R):
            f = Ri[c]
            if f and i != r:
                R[i] = [x - f * y for x, y in zip(Ri, row)]
        pivots.append(c)
        r += 1
    return R[:r], tuple(pivots)


def rank(F: Field, M: np.ndarray) -> int:
    return rref(F, M)[0].shape[0]


def _complement(F: Field, R: np.ndarray, piv, n: int) -> tuple[np.ndarray, list[int]]:
    """For reduced rows R with pivot columns piv in k^n: the matrix whose
    rows are e_c - sum_r R[r, c] e_piv[r] over the non-pivot columns c,
    and those columns.  Its rows span the right kernel of R."""
    pivset = set(piv)
    nonpiv = [c for c in range(n) if c not in pivset]
    proj = F.zeros(len(nonpiv), n)
    # a scalar loop: fancy indexing costs more on the tiny shapes common here
    for r, c in enumerate(nonpiv):
        proj[r, c] = 1
    proj[:, list(piv)] = F.neg(R[:, nonpiv]).T
    return proj, nonpiv


def kernel_basis(F: Field, M: np.ndarray) -> np.ndarray:
    """Basis of the right kernel {v : M v = 0}, rows in reduced echelon form.

    One elimination, of M with its columns reversed.  The complement rows
    of that form have a 1 at their own non-pivot column and nonzero
    entries only at earlier pivot columns; reversed in both rows and
    columns, each row has its leading 1 at a column where every other row
    is zero.  That is a reduced echelon basis of the kernel, and it is
    unique."""
    M = np.asarray(M, dtype=np.int64)
    R, pivots = rref(F, M[:, ::-1])
    basis, _ = _complement(F, R, pivots, M.shape[1])
    return np.ascontiguousarray(basis[::-1, ::-1])


def in_rowspace(F: Field, basis_rref: np.ndarray, vectors: np.ndarray) -> bool:
    """True when every row of `vectors` lies in the span of `basis_rref`,
    whose rows must be independent (a reduced row echelon basis is)."""
    V = np.asarray(vectors, dtype=np.int64)
    if V.size == 0:
        return True
    return rank(F, np.concatenate([basis_rref, V])) == basis_rref.shape[0]


def quotient_map(F: Field, basis_rref: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Projection k^n -> k^(n-r) with kernel = rowspace(basis_rref), plus a
    section of it.

    The projection reads off the non-pivot coordinates after reduction mod
    the subspace; the section places quotient coordinates back at the
    non-pivot positions.  quotient_map @ section = identity.
    """
    # argmax over a 0 x 0 basis raises; zero-dimensional spaces occur
    piv = (basis_rref != 0).argmax(axis=1).tolist() if basis_rref.size else []
    proj, nonpiv = _complement(F, basis_rref, piv, n)
    sec = F.zeros(n, len(nonpiv))
    sec[nonpiv, np.arange(len(nonpiv))] = 1
    return proj, sec


# -- subspace enumeration ----------------------------------------------


def gaussian_binomial(n: int, d: int, q: int) -> int:
    """Number of d-dimensional subspaces of GF(q)^n, exact integer."""
    if d < 0 or d > n:
        return 0
    num = 1
    den = 1
    for i in range(d):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    if num % den:
        raise InternalInconsistencyError(f"Gaussian binomial [{n} {d}]_{q} is not an integer")
    return num // den


def enumerate_subspaces(F: Field, n: int, d: int, budget: int | None = DEFAULT_BUDGET):
    """Yield every d-dimensional subspace of GF(q)^n exactly once, as a
    d x n reduced-row-echelon basis matrix.

    Order: pivot-column combinations lexicographically, then free entries
    lexicographically.  Raises InfeasibleEnumerationError up front when the
    Gaussian binomial count exceeds the budget.
    """
    count = gaussian_binomial(n, d, F.q)
    if budget is not None and count > budget:
        raise InfeasibleEnumerationError(
            f"{count} subspaces of dimension {d} in GF({F.q})^{n} exceeds budget {budget}",
            needed=count, budget=budget)
    if d == 0:
        yield F.zeros(0, n)
        return
    for piv in itertools.combinations(range(n), d):
        pivset = set(piv)
        free_pos = [(i, j) for i in range(d) for j in range(piv[i] + 1, n) if j not in pivset]
        base = F.zeros(d, n)
        for i, c in enumerate(piv):
            base[i, c] = 1
        if not free_pos:
            yield base.copy()
            continue
        for vals in itertools.product(range(F.q), repeat=len(free_pos)):
            M = base.copy()
            for (i, j), v in zip(free_pos, vals):
                M[i, j] = v
            yield M


# -- batched elimination -----------------------------------------------


def batched_full_row_rank(F: Field, mats: np.ndarray) -> np.ndarray:
    """Boolean mask over a batch of matrices: which have full row rank.

    mats has shape (N, r, c).  Division-free forward elimination by rows
    (Bareiss-style), vectorised across the batch.  At step k, with p the
    first nonzero column of row k and a = row_k[p], every later row
    becomes a * row_i - row_i[p] * row_k, which clears column p below
    row k.  While a != 0 this is an invertible row operation, so it keeps
    the rank.  If every row is nonzero when reached, the pivot columns are
    distinct (each row is zero on the pivot columns above it), and the
    r x r minor on them is triangular with a nonzero diagonal: full row
    rank.  A row that is zero when reached shows rank below r; then a = 0
    and row_k = 0, so every later row becomes zero as well.  Hence the
    matrix has full row rank exactly when its last row is nonzero once
    reached, and no per-matrix bookkeeping is needed.  The input is read,
    never written.
    """
    A = np.asarray(mats, dtype=np.int64)
    N, r, c = A.shape
    if r == 0:
        return np.ones(N, dtype=bool)
    if r > c:
        return np.zeros(N, dtype=bool)
    i = np.arange(N)
    for _ in range(r - 1):
        # A keeps only the rows not yet reached
        row, below = A[:, 0, :], A[:, 1:, :]
        p = (row != 0).argmax(axis=1)
        A = F.sub(F.mul(row[i, p][:, None, None], below),
                  F.mul(below[i, :, p][:, :, None], row[:, None, :]))
    return A[:, 0, :].any(axis=1)


def batched_kernels(F: Field, mats: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """`kernel_basis` of every matrix of a stack, by one Gauss-Jordan
    elimination vectorised across it.

    mats has shape (N, r, n) and is read, never written.  Like
    `kernel_basis`, each matrix is reduced with its columns reversed, the
    pivot in each column being the first eligible row, so each gets the
    form `rref` gives it.  Matrices with the same pivot columns share the
    non-pivot columns, so their complement rows are built together.
    Returns one (indices, K) per pivot pattern: the indices into the stack
    of the matrices with that pattern, and K of shape (G, f, n) with K[g]
    the reduced echelon kernel basis of mats[indices[g]], f = n - rank.
    """
    A = np.asarray(mats, dtype=np.int64)[:, :, ::-1].copy()
    N, r, n = A.shape
    add, mul, neg, inv = F._add_table, F._mul_table, F._neg_table, F._inv_table
    rank = np.zeros(N, dtype=np.int64)
    is_pivot = np.zeros((N, n), dtype=bool)
    rows, g = np.arange(r), np.arange(N)
    for c in range(n):
        if (rank == r).all():
            break
        eligible = (A[:, :, c] != 0) & (rows >= rank[:, None])
        has = eligible.any(axis=1)
        # a matrix with no pivot in column c swaps its row `top` with
        # itself and gets the zero pivot row (inv[0] = 0), which changes
        # nothing
        top = np.minimum(rank, r - 1)
        found = np.where(has, eligible.argmax(axis=1), top)
        pivot_row = A[g, found]
        A[g, found] = A[g, top]
        pivot_row = mul[np.where(has, inv[pivot_row[:, c]], 0)[:, None], pivot_row]
        A = add[A, neg[mul[A[:, :, c, None], pivot_row[:, None, :]]]]
        A[g[has], top[has]] = pivot_row[has]
        rank += has
        is_pivot[:, c] = has
    # group by pivot pattern, read as a bit code; a stable sort, since
    # np.unique would import numpy.ma
    code = is_pivot @ (1 << np.arange(n))
    order = np.argsort(code, kind="stable")
    cuts = np.flatnonzero(np.diff(code[order])) + 1
    groups = []
    for members in np.split(order, cuts):
        piv = np.flatnonzero(is_pivot[members[0]])
        nonpiv = np.flatnonzero(~is_pivot[members[0]])
        f = nonpiv.size
        K = F.zeros(members.size, f, n)
        K[:, np.arange(f), nonpiv] = 1
        K[:, :, piv] = neg[A[members][:, :piv.size, nonpiv]].transpose(0, 2, 1)
        groups.append((members, np.ascontiguousarray(K[:, ::-1, ::-1])))
    return groups


# Most entries in one block of `scalar_class_images`.
_IMAGE_BLOCK_ENTRIES = 1 << 17


def _prefix_sums(F: Field, mult: list[np.ndarray], base: np.ndarray, ks: range):
    """Yield base + sum_k c_k S[k] over every (c_k) in GF(q)^ks, where
    mult[k][x] = x * S[k]; one vector addition per node of the recursion."""
    if not ks:
        yield base
        return
    for row in mult[ks[0]]:
        yield from _prefix_sums(F, mult, F.add(base, row), ks[1:])


def scalar_class_images(F: Field, S: np.ndarray):
    """Yield blocks of the images c S, one row per scalar class c of the
    nonzero vectors of GF(q)^h (first nonzero coordinate 1), each class
    exactly once, in lexicographic order of the label vectors c.

    S is h x W, read and never written.  The class with its 1 at `lead`
    has image S[lead] + sum_{k > lead} c_k S[k].  The last L coordinates
    form a product-set table T_L of every sum_{k >= h - L} c_k S[k], built
    by T_{l+1} = {x S[h-l-1] + t : x in GF(q), t in T_l} from the q x W
    tables of multiples of each row; a block is T_l plus one prefix (the
    1 at `lead` and the coordinates between it and the table), so each
    image entry costs one field addition.  The prefix recursion and the
    tables (row x |T_l| + t of T_{l+1}) both put earlier coordinates major,
    hence the order.  L is the largest with q^L * W <= _IMAGE_BLOCK_ENTRIES:
    no block holds more entries than that, unless a single row does.
    """
    S = np.asarray(S, dtype=np.int64)
    h, W = S.shape
    q = F.q
    mult = [F.mul(np.arange(q)[:, None], row[None, :]) for row in S]
    max_rows = max(1, _IMAGE_BLOCK_ENTRIES // max(W, 1))
    tables = [F.zeros(1, W)]
    while len(tables) < h and tables[-1].shape[0] * q <= max_rows:
        k = h - len(tables)
        rows = q * tables[-1].shape[0]
        tables.append(F.add(mult[k][:, None], tables[-1][None]).reshape(rows, W))
    L = len(tables) - 1
    for lead in range(h):
        low = min(L, h - lead - 1)
        for prefix in _prefix_sums(F, mult, S[lead], range(lead + 1, h - low)):
            yield F.add(tables[low], prefix[None])

"""Exact linear algebra over GF(q) for prime powers q <= 256.

Field elements are integer labels 0..q-1.  For prime q the label is the
residue itself; for q = p^k the label encodes a polynomial c0 + c1*a + ...
over GF(p) as c0 + c1*p + c2*p^2 + ... where a is a root of the fixed
irreducible polynomial of the field.  All element-wise operations accept
numpy arrays and broadcast, so callers can run vectorised eliminations.

Matrices are plain numpy int64 arrays.  Subspaces of k^n are stored as
matrices whose rows form a basis in reduced row echelon form; that form is
the canonical representative used for enumeration and comparison.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import isqrt

import numpy as np

from .errors import InfeasibleEnumerationError, InternalInconsistencyError, InvalidInputError

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


def _poly_mul_mod(a: tuple[int, ...], b: tuple[int, ...], mod: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Multiply polynomials over GF(p), reduce by the monic polynomial `mod`."""
    deg_m = len(mod) - 1
    res = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            res[i + j] = (res[i + j] + ai * bj) % p
    # reduce: x^deg_m = -(mod[:-1]) since mod is monic
    for d in range(len(res) - 1, deg_m - 1, -1):
        c = res[d]
        if c == 0:
            continue
        res[d] = 0
        for j in range(deg_m):
            res[d - deg_m + j] = (res[d - deg_m + j] - c * mod[j]) % p
    out = res[:deg_m]
    out += [0] * (deg_m - len(out))
    return tuple(out)


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

    Prime fields use modular arithmetic directly; extension fields use
    precomputed q x q addition / multiplication tables plus negation and
    inversion tables, all indexed by element label.
    """

    def __init__(self, q: int):
        if q > MAX_Q:
            raise InvalidInputError(f"field order {q} exceeds the supported maximum {MAX_Q}")
        p, k = _factor_prime_power(q)
        self.q = q
        self.p = p
        self.degree = k
        self.is_prime = k == 1
        if not self.is_prime:
            self.poly = IRREDUCIBLE_POLYS.get((p, k)) or _find_irreducible(p, k)
            self._build_tables()
        else:
            self.poly = None
            self._inv_table = np.array([0] + [pow(a, q - 2, q) for a in range(1, q)],
                                       dtype=np.int64)
        if q <= 16:
            self._check_axioms()

    # -- construction ---------------------------------------------------

    def _label_to_poly(self, label: int) -> tuple[int, ...]:
        cs = []
        for _ in range(self.degree):
            cs.append(label % self.p)
            label //= self.p
        return tuple(cs)

    def _poly_to_label(self, cs: tuple[int, ...]) -> int:
        label = 0
        for c in reversed(cs):
            label = label * self.p + (c % self.p)
        return label

    def _build_tables(self) -> None:
        q, p = self.q, self.p
        polys = [self._label_to_poly(x) for x in range(q)]
        add = np.zeros((q, q), dtype=np.int64)
        mul = np.zeros((q, q), dtype=np.int64)
        for a in range(q):
            pa = polys[a]
            for b in range(a, q):
                pb = polys[b]
                s = tuple((x + y) % p for x, y in zip(pa, pb))
                add[a, b] = add[b, a] = self._poly_to_label(s)
                m = _poly_mul_mod(pa, pb, self.poly, p)
                mul[a, b] = mul[b, a] = self._poly_to_label(m)
        self._add_table = add
        self._mul_table = mul
        neg = np.zeros(q, dtype=np.int64)
        for a in range(q):
            pa = polys[a]
            neg[a] = self._poly_to_label(tuple((-x) % p for x in pa))
        self._neg_table = neg
        inv = np.zeros(q, dtype=np.int64)
        for a in range(1, q):
            row = mul[a]
            inv[a] = int(np.nonzero(row == 1)[0][0])
        self._inv_table = inv

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
        if self.is_prime:
            return (np.asarray(a, dtype=np.int64) + np.asarray(b, dtype=np.int64)) % self.q
        return self._add_table[np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)]

    def sub(self, a, b):
        if self.is_prime:
            return (np.asarray(a, dtype=np.int64) - np.asarray(b, dtype=np.int64)) % self.q
        return self._add_table[np.asarray(a, dtype=np.int64), self._neg_table[np.asarray(b, dtype=np.int64)]]

    def mul(self, a, b):
        if self.is_prime:
            return (np.asarray(a, dtype=np.int64) * np.asarray(b, dtype=np.int64)) % self.q
        return self._mul_table[np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)]

    def neg(self, a):
        if self.is_prime:
            return (-np.asarray(a, dtype=np.int64)) % self.q
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
            return (A @ B) % self.q
        out = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
        for k in range(A.shape[1]):
            out = self.add(out, self.mul(A[:, k:k + 1], B[k:k + 1, :]))
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
    pivot in each column is the first eligible row."""
    A = np.array(M, dtype=np.int64, copy=True)
    if A.ndim != 2:
        raise ValueError("rref expects a 2-d array")
    rows, cols = A.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        col = A[r:, c]
        nz = np.nonzero(col != 0)[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            A[[r, pr]] = A[[pr, r]]
        A[r] = F.mul(A[r], F.inv(A[r, c]))
        other = np.nonzero(A[:, c] != 0)[0]
        other = other[other != r]
        if other.size:
            A[other] = F.sub(A[other], F.mul(A[other, c][:, None], A[r][None, :]))
        pivots.append(c)
        r += 1
    return A[:r], tuple(pivots)


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
    """Basis of the right kernel {v : M v = 0}, rows in reduced echelon form."""
    M = np.asarray(M, dtype=np.int64)
    R, pivots = rref(F, M)
    basis, _ = _complement(F, R, pivots, M.shape[1])
    out, _ = rref(F, basis)
    return out


def in_rowspace(F: Field, basis_rref: np.ndarray, vectors: np.ndarray) -> bool:
    """True when every row of `vectors` lies in the span of `basis_rref`
    (which must be in reduced row echelon form)."""
    V = np.array(vectors, dtype=np.int64, copy=True)
    if V.size == 0:
        return True
    for r in range(basis_rref.shape[0]):
        pc = int(np.nonzero(basis_rref[r] != 0)[0][0]) if basis_rref[r].any() else None
        if pc is None:
            continue
        coeff = V[:, pc]
        mask = coeff != 0
        if mask.any():
            V[mask] = F.sub(V[mask], F.mul(coeff[mask][:, None], basis_rref[r][None, :]))
    return not V.any()


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


def enumerate_subspaces(F: Field, n: int, d: int, budget: int | None = 2_000_000):
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

    mats has shape (N, r, c).  Gauss-Jordan by columns with per-matrix
    pivot bookkeeping; all updates are vectorised across the batch.
    """
    A = np.array(mats, dtype=np.int64, copy=True)
    N, r, c = A.shape
    if r == 0:
        return np.ones(N, dtype=bool)
    if r > c:
        return np.zeros(N, dtype=bool)
    used = np.zeros((N, r), dtype=bool)
    npiv = np.zeros(N, dtype=np.int64)
    for col in range(c):
        remaining = c - col
        active = (npiv < r) & (npiv + remaining >= r)
        if not active.any():
            break
        cand = (A[:, :, col] != 0) & ~used
        sel = active & cand.any(axis=1)
        idx = np.flatnonzero(sel)
        if idx.size == 0:
            continue
        pr = cand[idx].argmax(axis=1)
        aux = np.arange(idx.size)
        piv_rows = A[idx, pr, :]
        piv_rows = F.mul(piv_rows, F.inv(piv_rows[:, col])[:, None])
        fac = A[idx, :, col].copy()
        fac[aux, pr] = 0
        A[idx] = F.sub(A[idx], F.mul(fac[:, :, None], piv_rows[:, None, :]))
        A[idx, pr, :] = piv_rows
        used[idx, pr] = True
        npiv[idx] += 1
    return npiv == r

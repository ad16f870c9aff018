"""Field tables and exact elimination over GF(q)."""

from __future__ import annotations

import copy
import hashlib
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tamehall
from tamehall.errors import InfeasibleEnumerationError, InvalidInputError
from tamehall.gf import (
    Field,
    batched_full_row_rank,
    enumerate_subspaces,
    field,
    gaussian_binomial,
    in_rowspace,
    kernel_basis,
    quotient_map,
    rank,
    rational_rref,
    rref,
)

FIELD_ORDERS = [2, 3, 4, 5, 7, 8, 9]


def _subspace_count_oracle(n: int, d: int, q: int) -> int:
    # product formula evaluated the slow way: count ordered independent
    # d-tuples and divide by the number of ordered bases of a d-space
    if d == 0:
        return 1
    num = 1
    for i in range(d):
        num *= q**n - q**i
    den = 1
    for i in range(d):
        den *= q**d - q**i
    assert num % den == 0
    return num // den


@pytest.mark.parametrize("q", FIELD_ORDERS)
def test_field_axioms_exhaustive(q):
    F = field(q)
    els = list(range(F.q))
    for a, b in itertools.product(els, repeat=2):
        assert F.add(a, b) == F.add(b, a)
        assert F.mul(a, b) == F.mul(b, a)
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.mul(a, 0) == 0
        assert F.add(a, F.neg(a)) == 0
        if b != 0:
            assert F.mul(F.mul(a, b), F.inv(b)) == a
    for a, b, c in itertools.product(els, repeat=3):
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))


@pytest.mark.parametrize("q", FIELD_ORDERS + [11, 13])
def test_element_ops_broadcast_like_the_scalar_ops(q):
    # the shapes batched_full_row_rank combines: a pivot per matrix against
    # a block of rows, and a column against a row
    F = field(q)
    rng = np.random.default_rng(q)
    N, k, c = 5, 3, 4
    for sa, sb in (((N, 1, 1), (N, k, c)), ((N, k, 1), (N, 1, c))):
        for x_shape, y_shape in ((sa, sb), (sb, sa)):
            x, y = rng.integers(0, q, size=x_shape), rng.integers(0, q, size=y_shape)
            bx, by = np.broadcast_arrays(x, y)
            for op in (F.add, F.sub, F.mul):
                got = op(x, y)
                assert got.dtype == np.int64 and got.shape == (N, k, c)
                want = [int(op(int(u), int(v))) for u, v in zip(bx.ravel(), by.ravel())]
                assert got.ravel().tolist() == want
            got = F.neg(bx)
            assert got.shape == (N, k, c)
            assert got.ravel().tolist() == [int(F.neg(int(u))) for u in bx.ravel()]


def test_pinned_irreducible_polynomials():
    assert field(4).poly == (1, 1, 1)
    assert field(8).poly == (1, 1, 0, 1)
    assert field(9).poly == (1, 0, 1)


def test_prime_power_labels_encode_coefficients():
    # label 3 in GF(4) is x + 1; (x+1)*(x+1) = x^2+1 = x (label 2)
    F = field(4)
    assert F.mul(3, 3) == 2
    # label 3 in GF(9) is x; x*x = -1 = 2
    F9 = field(9)
    assert F9.mul(3, 3) == 2


def test_invalid_orders_rejected():
    with pytest.raises(InvalidInputError):
        Field(6)
    with pytest.raises(InvalidInputError):
        Field(257)
    with pytest.raises(InvalidInputError):
        Field(1)


def test_prime_inverses_up_to_max_q():
    # prime fields read tables too; modular arithmetic is their oracle,
    # on every pair of labels
    for q in range(2, 257):
        if all(q % d for d in range(2, q)):
            F = Field(q)
            nz = np.arange(1, q)
            assert np.array_equal(F.mul(nz, F.inv(nz)), np.ones(q - 1, dtype=np.int64))
            assert F.inv(nz).tolist() == [pow(int(x), q - 2, q) for x in nz]
            a, b = np.arange(q)[:, None], np.arange(q)[None, :]
            assert np.array_equal(F.add(a, b), (a + b) % q)
            assert np.array_equal(F.sub(a, b), (a - b) % q)
            assert np.array_equal(F.mul(a, b), a * b % q)
            assert np.array_equal(F.neg(b), -b % q)


# First 16 hex digits of the sha256 of the addition and multiplication
# tables (little-endian int64 bytes) of every GF(p^k), k > 1, as the
# polynomial loop they replaced built them; `_check_axioms` covers only
# q <= 16.
TABLE_DIGESTS = {
    4: ("cd18db5001222f5a", "474cf06ceecdd9b0"),
    8: ("0c36cc322607a32c", "b4c2ddaec51f537d"),
    9: ("86ac843ff1f14f5e", "570c990a2f2314c2"),
    16: ("c23e73c80b6902c1", "b046715b8028e859"),
    25: ("35ca85530c66b2ee", "03a46c7d186459b4"),
    27: ("8a032eac974c725c", "a1a7d8805ba20f94"),
    32: ("5f7df29d5dcb6897", "9db49a981e72f1d9"),
    49: ("73678cf071cf7baa", "c3ebe1de5a2aecf0"),
    64: ("779fcd7c371f9bad", "9acd8acc8ab7fd85"),
    81: ("03ed3956e07257e3", "f8000f30008553d9"),
    121: ("2c5d9b9d8f002071", "98efd4110564fec6"),
    125: ("de248ad0a4cc2193", "029cc52717d4f67d"),
    128: ("88b1e5f011366261", "444486fa0d491914"),
    169: ("0a78fdd01b38120f", "579a9f692d72f87e"),
    243: ("f51377565878b2dc", "bef9be654e834c12"),
    256: ("8789a1484021cb8c", "23fd2bfb28904303"),
}


def test_extension_field_tables_are_pinned():
    orders = sorted(p ** k for p in (2, 3, 5, 7, 11, 13) for k in range(2, 9) if p ** k <= 256)
    got = {}
    for q in orders:
        F = Field(q)
        got[q] = tuple(hashlib.sha256(t.astype("<i8").tobytes()).hexdigest()[:16]
                       for t in (F._add_table, F._mul_table))
    assert got == TABLE_DIGESTS


@pytest.mark.parametrize("q", [3, 4, 9])
def test_inverse_of_zero_raises_on_every_path(q):
    F = field(q)
    for zero in (0, np.int64(0), np.array([1, 0, 2])):
        with pytest.raises(ZeroDivisionError):
            F.inv(zero)


def test_scalar_inverse_equals_array_inverse():
    for q in range(2, 28):
        try:
            F = field(q)
        except InvalidInputError:
            continue
        nz = np.arange(1, q)
        by_array = F.inv(nz)
        for a in range(1, q):
            assert F.inv(a) == F.inv(np.int64(a)) == by_array[a - 1]


_CORRUPT_TABLE = """
from tamehall.errors import InternalInconsistencyError
from tamehall.gf import Field
if __debug__:
    print("not optimised")
F = Field(4)
F._mul_table[2, 3] = 0
try:
    F._check_axioms()
except InternalInconsistencyError:
    print("raised")
"""


def test_corrupt_field_table_raises_under_optimisation():
    src = str(Path(tamehall.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", _CORRUPT_TABLE], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "raised\n"


@pytest.mark.parametrize("q", FIELD_ORDERS)
def test_rref_idempotent_and_rank(q):
    F = field(q)
    rng = random.Random(1000 + q)
    for _ in range(40):
        r = rng.randrange(0, 5)
        c = rng.randrange(0, 5)
        M = np.array([[rng.randrange(q) for _ in range(c)] for _ in range(r)], dtype=np.int64).reshape(r, c)
        R, piv = rref(F, M)
        assert R.shape[0] == len(piv) == rank(F, M)
        R2, piv2 = rref(F, R)
        assert np.array_equal(R, R2) and piv == piv2
        K = kernel_basis(F, M)
        assert K.shape[0] == c - len(piv)
        if K.size:
            assert not F.matmul(M, K.T).any()


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_subspace_enumeration_complete_and_canonical(q):
    F = field(q)
    for n in range(0, 5):
        for d in range(0, n + 1):
            subs = list(enumerate_subspaces(F, n, d))
            expected = gaussian_binomial(n, d, q)
            assert expected == _subspace_count_oracle(n, d, q)
            assert len(subs) == expected
            seen = {tuple(map(tuple, S.tolist())) for S in subs}
            assert len(seen) == expected
            for S in subs[:50]:
                R, _ = rref(F, S)
                assert np.array_equal(R, S)


def test_subspace_enumeration_budget():
    with pytest.raises(InfeasibleEnumerationError):
        list(enumerate_subspaces(field(5), 10, 5, budget=1000))


def test_quotient_map_exactness():
    rng = random.Random(5)
    for q in (2, 3, 4, 5, 8, 9):
        F = field(q)
        for _ in range(20):
            n = rng.randrange(0, 5)
            d = rng.randrange(0, n + 1)
            M = np.array([[rng.randrange(q) for _ in range(n)] for _ in range(d)], dtype=np.int64).reshape(d, n)
            B, _ = rref(F, M)
            r = B.shape[0]
            proj, sec = quotient_map(F, B, n)
            assert proj.shape == (n - r, n) and sec.shape == (n, n - r)
            # section splits the projection, and the subspace is the kernel
            assert np.array_equal(F.matmul(proj, sec), np.eye(n - r, dtype=np.int64))
            if r:
                assert not F.matmul(proj, B.T).any()
            assert rank(F, proj) == n - r


def _kernel_reference(F, M):
    # the null space written entry by entry, as it was before _complement
    R, piv = rref(F, M)
    free = [c for c in range(M.shape[1]) if c not in piv]
    basis = F.zeros(len(free), M.shape[1])
    for i, fc in enumerate(free):
        basis[i, fc] = 1
        for r, pc in enumerate(piv):
            basis[i, pc] = F.neg(R[r, fc])
    return rref(F, basis)[0]


def _quotient_reference(F, B, n):
    piv = [int(np.nonzero(B[i] != 0)[0][0]) for i in range(B.shape[0])]
    nonpiv = [c for c in range(n) if c not in piv]
    proj = F.zeros(len(nonpiv), n)
    sec = F.zeros(n, len(nonpiv))
    for a, c in enumerate(nonpiv):
        proj[a, c] = 1
        sec[c, a] = 1
    for i, pc in enumerate(piv):
        proj[:, pc] = F.neg(B[i, nonpiv])
    return proj, sec


@pytest.mark.parametrize("q", [2, 3, 5, 7, 4, 8, 9])
def test_null_space_matches_scalar_reference(q):
    F = field(q)
    rng = random.Random(77 + q)
    shapes = [(0, 0), (0, 3), (3, 0), (1, 1), (1, 2), (2, 2)]
    shapes += [(rng.randrange(0, 6), rng.randrange(0, 7)) for _ in range(40)]
    for r, c in shapes:
        M = np.array([[rng.randrange(q) for _ in range(c)] for _ in range(r)],
                     dtype=np.int64).reshape(r, c)
        K, want = kernel_basis(F, M), _kernel_reference(F, M)
        assert K.dtype == want.dtype and K.shape == want.shape
        assert np.array_equal(K, want)
        B, _ = rref(F, M)
        for got, ref in zip(quotient_map(F, B, c), _quotient_reference(F, B, c)):
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert np.array_equal(got, ref)


def test_in_rowspace():
    F = field(3)
    B, _ = rref(F, np.array([[1, 1, 0], [0, 0, 1]]))
    assert in_rowspace(F, B, np.array([[2, 2, 1]]))
    assert not in_rowspace(F, B, np.array([[1, 0, 0]]))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13])
def test_batched_full_row_rank_matches_scalar_rank(q):
    F = field(q)
    rng = random.Random(31 + q)
    mats = []
    for _ in range(300):
        r = rng.randrange(1, 5)
        c = rng.randrange(r, 6)
        m = [[rng.randrange(q) for _ in range(c)] for _ in range(r)]
        if r > 1 and rng.random() < 0.5:
            # one row a combination of the others, so the rank drops
            t = rng.randrange(r)
            coeffs = [rng.randrange(q) for _ in range(r)]
            acc = F.zeros(c)
            for k in range(r):
                if k != t:
                    acc = F.add(acc, F.mul(coeffs[k], np.array(m[k])))
            m[t] = acc.tolist()
        mats.append((r, c, m))
    by_shape: dict[tuple[int, int], list] = {}
    for r, c, m in mats:
        by_shape.setdefault((r, c), []).append(m)
    for (r, c), group in sorted(by_shape.items()):
        batch = np.array(group, dtype=np.int64)
        mask = batched_full_row_rank(F, batch)
        for i, m in enumerate(group):
            assert mask[i] == (rank(F, np.array(m)) == r)


@st.composite
def _integer_rows(draw):
    """Integer matrices up to 6 x 8 with entries -3..3 as row lists, some
    rows and columns set to zero; no rows, or rows of width 0, included."""
    r = draw(st.integers(0, 6))
    c = draw(st.integers(0, 8))
    rows = [draw(st.lists(st.integers(-3, 3), min_size=c, max_size=c)) for _ in range(r)]
    zero_rows = draw(st.sets(st.integers(0, max(r - 1, 0)), max_size=r))
    zero_cols = draw(st.sets(st.integers(0, max(c - 1, 0)), max_size=c))
    return [[0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)]
            for i, row in enumerate(rows)]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_integer_rows())
def test_rational_rref_is_the_reduced_form_of_its_input(rows):
    before = copy.deepcopy(rows)
    R, piv = rational_rref(rows)
    assert rows == before
    # reduced echelon form: nonzero rows, pivots increasing, each pivot 1,
    # zeros left of it and above and below it
    assert len(R) == len(piv)
    assert list(piv) == sorted(set(piv))
    for k, (row, c) in enumerate(zip(R, piv)):
        assert len(row) == len(rows[0])
        assert row[c] == 1 and not any(row[:c])
        assert all(R[j][c] == 0 for j in range(len(R)) if j != k)
    # the rank over Q, and every input row lies in the span of R
    if rows and rows[0]:
        assert len(R) == np.linalg.matrix_rank(np.array(rows, dtype=float))
    for row in rows:
        R2, piv2 = rational_rref(R + [row])
        assert piv2 == piv and R2 == R

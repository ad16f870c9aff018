"""The list-row `rref`, the rank-based `in_rowspace`, the one-elimination
`kernel_basis` and the division-free `batched_full_row_rank` against the
eliminations they replaced, kept here as oracles, the vectorised
`batched_kernels` against `kernel_basis`, `Field.matmul` against
a scalar triple loop, and the product-set `scalar_class_images` against a
field product over `class_blocks.scalar_class_blocks`, row for row in
order, with the one-sink count's per-vertex loop it replaced.

Inputs are generated over prime and extension fields: dense matrices of
every shape up to 12 x 12 (empty ones included), sparse ones up to 40 x 40,
the End systems of homogeneous modules (the dense matrices of
`hom_oracles`), the large sparse shape the one-sink table ranks, and
batches of up to 60 matrices of at most 4 x 6 with rank deficiency built
in, the shapes the class-scan oracle of the one-sink count tests.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from tamehall import gf, hall
from tamehall.functors import build_preinjective
from tamehall.gf import (
    batched_full_row_rank,
    field,
    in_rowspace,
    kernel_basis,
    rank,
    rref,
    scalar_class_images,
)
from tamehall.hall import _minus_unit, hall_number_sink_fast
from tamehall.homreg import homogeneous_simples
from tamehall.quiver import preset_quiver, radical_delta, reorient_toward
from tamehall.reps import hom_basis, top_projection

from class_blocks import scalar_class_blocks
from hom_oracles import hom_system

ORDERS = (2, 3, 4, 5, 7, 8, 9, 11, 13)
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _rref_oracle(F, M):
    """Gauss-Jordan with vectorised numpy row operations."""
    A = np.array(M, dtype=np.int64, copy=True)
    rows, cols = A.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(A[r:, c] != 0)[0]
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


def _in_rowspace_oracle(F, B, V):
    """Reduce each vector by the rows of the echelon basis B."""
    V = np.array(V, dtype=np.int64, copy=True)
    if V.size == 0:
        return True
    for row in B:
        if not row.any():
            continue
        pc = int(np.nonzero(row)[0][0])
        coeff = V[:, pc]
        mask = coeff != 0
        if mask.any():
            V[mask] = F.sub(V[mask], F.mul(coeff[mask][:, None], row[None, :]))
    return not V.any()


def _check_rref(F, M):
    before = M.copy()
    R, piv = rref(F, M)
    want, want_piv = _rref_oracle(F, M)
    assert np.array_equal(M, before)
    assert R.dtype == want.dtype == np.int64
    assert R.shape == want.shape
    assert np.array_equal(R, want) and piv == want_piv
    if M.shape[0]:                  # a list of no rows has no column count
        R_list, piv_list = rref(F, M.tolist())
        assert R_list.shape == R.shape and np.array_equal(R_list, R) and piv_list == piv


@st.composite
def dense(draw, max_side=12):
    q = draw(st.sampled_from(ORDERS))
    r, c = draw(st.integers(0, max_side)), draw(st.integers(0, max_side))
    flat = draw(st.lists(st.integers(0, q - 1), min_size=r * c, max_size=r * c))
    return field(q), np.array(flat, dtype=np.int64).reshape(r, c)


@st.composite
def sparse(draw):
    q = draw(st.sampled_from(ORDERS))
    r, c = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    M = np.zeros((r, c), dtype=np.int64)
    for i, j, v in draw(st.lists(st.tuples(st.integers(0, r - 1), st.integers(0, c - 1),
                                           st.integers(1, q - 1)), max_size=2 * max(r, c))):
        M[i, j] = v
    return field(q), M


@lru_cache(maxsize=None)
def _end_system(name, q):
    F = field(q)
    _, M = next(homogeneous_simples(preset_quiver(name), F))
    return F, hom_system(M, M)[0]


@PROPERTY
@given(dense())
def test_rref_matches_numpy_oracle_on_dense_input(case):
    _check_rref(*case)


@PROPERTY
@given(sparse())
def test_rref_matches_numpy_oracle_on_sparse_input(case):
    _check_rref(*case)


# over GF(2) all three points of the extension line sit in exceptional tubes
@settings(PROPERTY, max_examples=40)
@given(st.sampled_from(("e6tilde", "e7tilde")), st.sampled_from(ORDERS[1:]), st.booleans())
def test_rref_matches_numpy_oracle_on_end_systems(name, q, transpose):
    F, D = _end_system(name, q)
    _check_rref(F, D.T if transpose else D)


def test_rref_reads_a_read_only_view():
    F = field(5)
    M = np.arange(12, dtype=np.int64).reshape(3, 4) % 5
    M.flags.writeable = False
    _check_rref(F, M.T)


@PROPERTY
@given(dense(max_side=8), st.data())
def test_in_rowspace_matches_numpy_oracle(case, data):
    F, M = case
    B, _ = rref(F, M)
    n = M.shape[1]
    k = data.draw(st.integers(0, 4))
    if data.draw(st.booleans()) and B.shape[0]:
        # combinations of the basis rows, which must lie in the span
        coeffs = np.array(data.draw(st.lists(st.integers(0, F.q - 1), min_size=k * B.shape[0],
                                             max_size=k * B.shape[0])),
                          dtype=np.int64).reshape(k, B.shape[0])
        V = F.matmul(coeffs, B) if k else F.zeros(0, n)
    else:
        V = np.array(data.draw(st.lists(st.integers(0, F.q - 1), min_size=k * n, max_size=k * n)),
                     dtype=np.int64).reshape(k, n)
    before = (B.copy(), V.copy())
    assert in_rowspace(F, B, V) == _in_rowspace_oracle(F, B, V)
    assert np.array_equal(B, before[0]) and np.array_equal(V, before[1])


def _kernel_basis_oracle(F, M):
    """Two eliminations: the complement of the reduced form of M, reduced."""
    R, piv = rref(F, M)
    basis, _ = gf._complement(F, R, piv, M.shape[1])
    return rref(F, basis)[0]


def _check_kernel_basis(F, M):
    before = M.copy()
    K = kernel_basis(F, M)
    want = _kernel_basis_oracle(F, M)
    assert np.array_equal(M, before)
    assert K.dtype == want.dtype == np.int64
    assert K.shape == want.shape and K.flags.c_contiguous
    assert np.array_equal(K, want)
    assert not F.matmul(M, K.T).any()


@PROPERTY
@given(dense(), st.data())
def test_kernel_basis_matches_two_elimination_oracle_on_dense_input(case, data):
    F, M = case
    if M.shape[0] > 1 and data.draw(st.booleans()):
        # rank deficiency: copy the first row over a later one
        M[data.draw(st.integers(1, M.shape[0] - 1))] = M[0]
    _check_kernel_basis(F, M)


@PROPERTY
@given(sparse())
def test_kernel_basis_matches_two_elimination_oracle_on_sparse_input(case):
    _check_kernel_basis(*case)


@settings(PROPERTY, max_examples=20)
@given(st.sampled_from(("e6tilde", "e7tilde")), st.sampled_from(ORDERS[1:]))
def test_kernel_basis_matches_two_elimination_oracle_on_end_systems(name, q):
    _check_kernel_basis(*_end_system(name, q))


def _batched_full_row_rank_oracle(F, mats):
    """Gauss-Jordan by columns with per-matrix pivot bookkeeping."""
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


DEFICIENCY = ("random", "combination", "zero", "duplicate")


@st.composite
def batches(draw):
    """A batch of N <= 60 matrices of one shape r x c (r <= 4, c <= 6,
    r > c included).  Each matrix may get a row that is a combination of
    the other rows, a zero row or a duplicate row, and half of them a
    leading block of zero columns, so that their pivots sit late.  Entries
    and plans come from byte strings, which keeps a batch cheap to draw."""
    q = draw(st.sampled_from(ORDERS))
    F = field(q)
    n, r, c = draw(st.integers(0, 60)), draw(st.integers(0, 4)), draw(st.integers(0, 6))
    raw = draw(st.binary(min_size=n * r * c, max_size=n * r * c))
    A = (np.frombuffer(raw, dtype=np.uint8).astype(np.int64) % q).reshape(n, r, c)
    plans = draw(st.binary(min_size=8 * n, max_size=8 * n))
    for m in range(n):
        kind, t, s, lead, *coeffs = plans[8 * m:8 * m + 8]
        kind, t, s = DEFICIENCY[kind % 4], t % max(r, 1), s % max(r, 1)
        if kind == "zero" and r:
            A[m, t] = 0
        elif kind == "duplicate" and s != t:
            A[m, t] = A[m, s]
        elif kind == "combination" and r > 1:
            acc = F.zeros(c)
            for k in range(r):
                if k != t:
                    acc = F.add(acc, F.mul(coeffs[k] % q, A[m, k]))
            A[m, t] = acc
        if lead % 2:
            A[m, :, :min(lead // 2 % 7, c)] = 0
    return F, A


@settings(PROPERTY, max_examples=400)
@given(batches())
def test_batched_full_row_rank_matches_gauss_jordan_oracle(case):
    F, A = case
    before = A.copy()
    mask = batched_full_row_rank(F, A)
    assert np.array_equal(A, before)
    assert mask.dtype == np.bool_ and mask.shape == (A.shape[0],)
    assert np.array_equal(mask, _batched_full_row_rank_oracle(F, A))
    assert mask.tolist() == [rank(F, m) == A.shape[1] for m in A]
    frozen = A.copy()
    frozen.setflags(write=False)
    assert np.array_equal(batched_full_row_rank(F, frozen), mask)


def _stack_of_ranks(F, rng, r, n):
    """Matrices r x n over F: the zero matrix, then for each k up to
    min(r, n) a product of a random r x k and a random k x n matrix (rank
    at most k, mostly k), one with a row of zeros and one with a repeated
    row; the entries are labels."""
    mats = [F.zeros(r, n)]
    for k in range(1, min(r, n) + 1):
        for _ in range(3):
            mats.append(F.matmul(rng.integers(0, F.q, (r, k)), rng.integers(0, F.q, (k, n))))
        full = rng.integers(0, F.q, (r, n))
        if r > 1:
            full[rng.integers(r)] = 0
            mats.append(full.copy())
            full[0] = full[-1]
        mats.append(full)
    return np.stack(mats)


@pytest.mark.parametrize("q", (2, 3, 4, 5, 8, 9, 13))
def test_batched_kernels_match_kernel_basis_matrix_by_matrix(q):
    F, rng = field(q), np.random.default_rng(q)
    for n in range(1, 6):
        dims = set()
        for r in range(0, 8):
            A = _stack_of_ranks(F, rng, r, n)
            for stack in (A, A[:1], A[-1:]):
                before = stack.copy()
                groups = gf.batched_kernels(F, stack)
                assert np.array_equal(stack, before)
                seen = np.sort(np.concatenate([idx for idx, _ in groups]))
                assert seen.tolist() == list(range(stack.shape[0]))
                for idx, K in groups:
                    assert K.shape == (idx.size, K.shape[1], n)
                    dims.add(K.shape[1])
                    for g, m in enumerate(idx):
                        assert np.array_equal(K[g], kernel_basis(F, stack[m]))
        # every kernel dimension f from 0 (full column rank) to n (zero)
        assert dims == set(range(n + 1))


def test_batched_kernels_read_a_read_only_view():
    F = field(5)
    A = _stack_of_ranks(F, np.random.default_rng(0), 4, 3)
    frozen = A.copy()
    frozen.setflags(write=False)
    got = gf.batched_kernels(F, frozen)
    assert all(np.array_equal(K, other)
               for (_, K), (_, other) in zip(got, gf.batched_kernels(F, A), strict=True))


def _matmul_oracle(F, A, B):
    """Sum over k of A[i, k] * B[k, j], one scalar field operation at a time."""
    out = F.zeros(A.shape[0], B.shape[1])
    for i in range(A.shape[0]):
        for j in range(B.shape[1]):
            acc = 0
            for k in range(A.shape[1]):
                acc = int(F.add(acc, F.mul(int(A[i, k]), int(B[k, j]))))
            out[i, j] = acc
    return out


@st.composite
def products(draw):
    """(F, A, B) with A m x k and B k x n, every side 0..7."""
    q = draw(st.sampled_from(ORDERS))
    m, k, n = (draw(st.integers(0, 7)) for _ in range(3))
    raw = draw(st.binary(min_size=m * k + k * n, max_size=m * k + k * n))
    flat = np.frombuffer(raw, dtype=np.uint8).astype(np.int64) % q
    return field(q), flat[:m * k].reshape(m, k), flat[m * k:].reshape(k, n)


@PROPERTY
@given(products())
def test_matmul_matches_scalar_triple_loop(case):
    F, A, B = case
    before = (A.copy(), B.copy())
    C = F.matmul(A, B)
    assert C.dtype == np.int64 and C.shape == (A.shape[0], B.shape[1])
    assert np.array_equal(C, _matmul_oracle(F, A, B))
    assert np.array_equal(A, before[0]) and np.array_equal(B, before[1])


@st.composite
def class_images(draw):
    """(F, S, cap) with S h x W (h 0..6, W 0..9), some of its rows zero or
    duplicates of others, and a block cap that is the real one or small
    enough that a block holds a few rows (or none fits a single row)."""
    q = draw(st.sampled_from(ORDERS))
    cap = draw(st.sampled_from((gf._IMAGE_BLOCK_ENTRIES, 1, 7, 40, 300)))
    # a small cap makes a block per few classes: keep those to 2,000 classes
    h_max = 6 if cap == gf._IMAGE_BLOCK_ENTRIES else max(h for h in range(7) if q ** h <= 2000 * q)
    h, W = draw(st.integers(0, h_max)), draw(st.integers(0, 9))
    raw = draw(st.binary(min_size=h * W, max_size=h * W))
    S = (np.frombuffer(raw, dtype=np.uint8).astype(np.int64) % q).reshape(h, W)
    for k, (kind, src) in enumerate(draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 5)),
                                                  min_size=h, max_size=h))):
        if kind == 1:
            S[k] = 0
        elif kind == 2:
            S[k] = S[src % h]
    return field(q), S, cap


@PROPERTY
@given(class_images())
def test_scalar_class_images_match_products_over_class_blocks(case):
    """Row for row, in order: the GR witness order rests on it."""
    F, S, cap = case
    h, W = S.shape
    before = S.copy()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gf, "_IMAGE_BLOCK_ENTRIES", cap)
        blocks = list(scalar_class_images(F, S))
        frozen = S.copy()
        frozen.setflags(write=False)
        again = list(scalar_class_images(F, frozen))
    assert np.array_equal(S, before)
    for block in blocks:
        assert block.dtype == np.int64 and block.ndim == 2 and block.shape[1] == W
        assert block.size <= cap or block.shape[0] == 1
    got = np.concatenate(blocks) if blocks else F.zeros(0, W)
    want = [F.matmul(c, S) for c in scalar_class_blocks(F.q, h)]
    want = np.concatenate(want) if want else F.zeros(0, W)
    assert got.shape == want.shape == ((F.q ** h - 1) // (F.q - 1), W)
    assert np.array_equal(got, want)
    assert len(again) == len(blocks) and all(map(np.array_equal, again, blocks))
    event("a lead over several blocks" if len(blocks) > h else "one block per lead")


def _per_vertex_count(R, I):
    """The one-sink count as it was before `scalar_class_images`: for each
    coefficient block, one field product per vertex on the classes still
    alive, then the batched rank test there."""
    F, delta = R.field, R.dims
    basis = hom_basis(R, I)
    pi = top_projection(I)
    tops = [p.shape[0] for p in pi]
    order = sorted((j for j in range(R.quiver.n) if tops[j]), key=lambda j: (tops[j], delta[j], j))
    stacks = {j: np.stack([F.matmul(pi[j], phi[j]).reshape(-1) for phi in basis])
              for j in order}
    total = 0
    for block in scalar_class_blocks(F.q, len(basis)):
        alive = np.ones(block.shape[0], dtype=bool)
        for j in order:
            live = np.flatnonzero(alive)
            if live.size == 0:
                break
            mats = F.matmul(block[live], stacks[j]).reshape(live.size, tops[j], delta[j])
            alive[live[~batched_full_row_rank(F, mats)]] = False
        total += int(alive.sum())
    return total


@pytest.mark.parametrize("q", (8, 9))
def test_sink_count_matches_the_per_vertex_loop_in_small_blocks(q, monkeypatch):
    """e8tilde m = 5 (h = 5): with both block caps at 2,048 entries, the
    points of the kernels K_{j,y} of the complement count (rows of length
    5) are listed one kernel at a time once a kernel has more than 204
    points, in blocks of at most 409 rows, a product-set table of 64 or
    81 rows plus one prefix each; so a kernel of four rows, with 585
    (q = 8) or 820 (q = 9) points, lists them in several blocks."""
    Q = preset_quiver("e8tilde")
    i = radical_delta(Q).index(5)
    Qi, F = reorient_toward(Q, i), field(q)
    R = next(homogeneous_simples(Qi, F))[1]
    I = build_preinjective(Qi, F, _minus_unit(radical_delta(Qi), i))
    whole = hall_number_sink_fast(R, i, I)
    monkeypatch.setattr(gf, "_IMAGE_BLOCK_ENTRIES", 2048)
    monkeypatch.setattr(hall, "_POINT_BLOCK_ENTRIES", 2048)
    split = []  # (kernels, blocks) of every group whose points were listed
    real = hall._kernel_points

    def counting(F, K):
        blocks = list(real(F, K))
        assert all(block.size <= 2048 for block in blocks)
        split.append((K.shape[0], len(blocks)))
        yield from blocks

    monkeypatch.setattr(hall, "_kernel_points", counting)
    assert hall_number_sink_fast(R, i, I) == whole == _per_vertex_count(R, I)
    assert any(blocks > kernels for kernels, blocks in split)

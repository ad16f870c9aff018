"""The sparse Hom system and `gf.eliminate` against the dense system they
replaced (`hom_oracles`) and the dense `rref`.

The inputs are pairs of random modules on random orientations of the
Kronecker quiver, A3, D~4, D~5 and E~6, with zero spaces at some vertices,
over prime and extension fields.  `hom_basis` must be byte-identical to
the kernel of the dense matrix, `hom_dim` equal to its corank, and
`ext_space` must give the same dimension and the same cocycles.
`eliminate` must give echelon rows with the pivots of `rref`, which
`back_substitute` turns into the rows of `rref`, and, as its kept rows,
the pivot columns of `rref` of the transpose, on the Hom systems and on
random sparse matrices.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tamehall.gf import back_substitute, eliminate, field, rref
from tamehall.quiver import Quiver, preset_quiver
from tamehall.reps import Rep, _hom_system, ext_space, hom_basis, hom_dim

import hom_oracles

FIELDS = (2, 3, 4, 5, 7, 8, 9)
PRESETS = ("kronecker", "a:3", "dtilde:4", "dtilde:5", "e6tilde")
PROPERTY = settings(max_examples=120, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def module_pairs(draw):
    P = preset_quiver(draw(st.sampled_from(PRESETS)))
    if P.n == 2:
        flips = [draw(st.booleans())] * len(P.arrows)
    else:
        flips = draw(st.lists(st.booleans(), min_size=len(P.arrows), max_size=len(P.arrows)))
    Q = Quiver(P.n, tuple((t, s) if f else (s, t) for f, (s, t) in zip(flips, P.arrows)))
    F = field(draw(st.sampled_from(FIELDS)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    max_dim = 3 if Q.n <= 5 else 2
    pair = []
    for _ in range(2):
        dims = tuple(draw(st.lists(st.integers(0, max_dim), min_size=Q.n, max_size=Q.n)))
        # sparse arrow matrices too, the common case in the package
        density = draw(st.sampled_from((0.3, 1.0)))
        mats = tuple(rng.integers(0, F.q, size=(dims[t], dims[s]))
                     * (rng.random((dims[t], dims[s])) < density)
                     for s, t in Q.arrows)
        pair.append(Rep(Q, F, dims, mats))
    return pair


def _dense(rows, width):
    A = np.zeros((len(rows), width), dtype=np.int64)
    for i, row in enumerate(rows):
        for c, x in row.items():
            A[i, c] = x
    return A


def _same_arrays(got, want):
    return (len(got) == len(want)
            and all(g.shape == w.shape and g.dtype == w.dtype and g.tobytes() == w.tobytes()
                    for g, w in zip(got, want)))


def _check_eliminate(F, rows, width):
    before = [dict(row) for row in rows]
    basis, kept = eliminate(F, rows)
    assert rows == before
    A = _dense(rows, width)
    R, piv = rref(F, A)
    assert sorted(basis) == list(piv)
    assert tuple(kept) == rref(F, A.T)[1]
    # echelon rows with a 1 at their pivot, spanning the row space
    echelon = _dense([basis[c] for c in piv], width)
    assert all(min(basis[c]) == c and basis[c][c] == 1 for c in piv)
    assert np.array_equal(rref(F, echelon)[0], R)
    back_substitute(F, basis)
    assert np.array_equal(_dense([basis[c] for c in piv], width), R)
    assert all(all(basis[c].values()) for c in piv)


@PROPERTY
@given(module_pairs())
def test_sparse_system_is_the_dense_matrix(pair):
    M, N = pair
    rows, offs, tot = _hom_system(M, N)
    A, want_offs = hom_oracles.hom_system(M, N)
    assert offs == want_offs and tot == A.shape[1]
    assert all(all(row.values()) for row in rows)
    assert np.array_equal(_dense(rows, tot), A)


@PROPERTY
@given(module_pairs())
def test_hom_basis_and_hom_dim_match_the_dense_system(pair):
    M, N = pair
    got, want = hom_basis(M, N), hom_oracles.hom_basis(M, N)
    assert len(got) == len(want)
    assert all(_same_arrays(g, w) for g, w in zip(got, want))
    assert hom_dim(M, N) == hom_oracles.hom_dim(M, N) == len(want)


@PROPERTY
@given(module_pairs())
def test_ext_space_matches_the_dense_system(pair):
    N, M = pair
    got = ext_space(N, M)
    dim, cocycles = hom_oracles.ext_space(N, M)
    assert got.dim == dim == len(got.cocycles)
    assert len(cocycles) == dim
    assert all(_same_arrays(g, w) for g, w in zip(got.cocycles, cocycles))


@PROPERTY
@given(module_pairs())
def test_eliminate_matches_rref_on_hom_systems(pair):
    M, N = pair
    rows, _, tot = _hom_system(M, N)
    _check_eliminate(M.field, rows, tot)


@st.composite
def sparse_rows(draw):
    """Up to 30 rows of width up to 30 with at most four entries each,
    repeats and combinations of earlier rows included."""
    F = field(draw(st.sampled_from(FIELDS)))
    width = draw(st.integers(1, 30))
    rows = []
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from(("new", "new", "repeat", "combine")))
        if kind == "new" or not rows:
            cols = draw(st.lists(st.integers(0, width - 1), max_size=4, unique=True))
            rows.append({c: draw(st.integers(1, F.q - 1)) for c in cols})
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            x, y = draw(st.integers(0, F.q - 1)), draw(st.integers(0, F.q - 1))
            if kind == "repeat":
                y = 0
            dense = F.add(F.mul(x, _dense([a], width)[0]), F.mul(y, _dense([b], width)[0]))
            rows.append({c: int(v) for c, v in enumerate(dense.tolist()) if v})
    return F, rows, width


@PROPERTY
@given(sparse_rows())
def test_eliminate_matches_rref_on_sparse_rows(case):
    _check_eliminate(*case)

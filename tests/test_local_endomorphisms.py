"""`is_indecomposable` and the count report's dim rad End against the
rules they replaced.

The package decides indecomposability by one count: End(M) is local
exactly when its non-invertible elements number a power of q, and that
power is q^(dim rad End M).  The oracle here is the scan that count
replaced: every one of the q^e endomorphisms, counting the idempotents
(M is indecomposable exactly when 0 and 1 are the only ones) and the
nilpotents (in a local End(M) they are the radical).  The count is also
checked alone, without the early exit on a basis endomorphism that is
neither a unit nor nilpotent.  The inputs are random modules on random
orientations of the Kronecker quiver, A3 and D~4, direct sums of them,
and local non-bricks: Kronecker modules (I, A), whose End is the
centralizer of a random A, and self-extensions of homogeneous simples
on D~4.
"""

import itertools
from functools import lru_cache
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from tamehall import gr
from tamehall.gf import field
from tamehall.gr import count_submodules_report, is_indecomposable
from tamehall.homreg import build_homogeneous_simples
from tamehall.quiver import Quiver, preset_quiver
from tamehall.reps import (
    Rep,
    direct_sum,
    end_dim,
    ext_space,
    hom_basis,
    hom_combination,
    middle_term,
)

FIELDS = (2, 3, 4, 5, 7, 8, 9)
# the oracle scans at most this many endomorphisms per module
SCAN_CAP = 512
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])


def _log_q(count, q):
    k = 0
    while q ** k < count:
        k += 1
    return k if q ** k == count else None


def _nilpotent(F, p):
    power = p
    for _ in range(p.shape[0] - 1):
        power = F.matmul(power, p)
    return not power.any()


def _idempotent_scan(M):
    """(M indecomposable, dim rad End(M) or None) from all q^e
    endomorphisms: M is indecomposable when 0 and 1 are its only
    idempotents, and then its radical is the set of its nilpotents."""
    F = M.field
    basis = hom_basis(M, M)
    idempotents = nilpotents = 0
    for coeffs in itertools.product(range(F.q), repeat=len(basis)):
        phi = hom_combination(F, basis, np.array(coeffs, dtype=np.int64))
        idempotents += all((F.matmul(p, p) == p).all() for p in phi)
        nilpotents += all(_nilpotent(F, p) for p in phi)
    if idempotents != 2:
        return False, None
    return True, _log_q(nilpotents, F.q)


def _scannable(M):
    """End(M) has dimension >= 2 (below that there is nothing to decide)
    and at most SCAN_CAP elements."""
    e = end_dim(M)
    return e >= 2 and M.field.q ** e <= SCAN_CAP


def _assert_matches_the_idempotent_scan(M):
    e = end_dim(M)
    indecomposable, r = _idempotent_scan(M)
    assert is_indecomposable(M) == indecomposable, (M.quiver, M.field, M.dims)
    # the count alone, without the early exit on a basis element that is
    # neither a unit nor nilpotent
    with mock.patch.object(gr, "_nilpotent", lambda F, phi: True):
        assert gr._local_radical(M, 2_000_000) == (e, r), (M.quiver, M.field, M.dims)
    if indecomposable:
        assert r is not None
        report = count_submodules_report(M, M)
        assert (report.e, report.r, report.u) == (e, r, 1), (M.quiver, M.field, M.dims)
    return indecomposable


def _orientation(draw, name):
    P = preset_quiver(name)
    if P.n == 2:
        flips = [draw(st.booleans())] * len(P.arrows)
    else:
        flips = draw(st.lists(st.booleans(), min_size=len(P.arrows), max_size=len(P.arrows)))
    return Quiver(P.n, tuple((t, s) if f else (s, t) for f, (s, t) in zip(flips, P.arrows)))


def _entries(draw):
    """A generator of matrix entries, seeded by one draw."""
    return np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))


def _module(draw, Q, F, max_dim):
    dims = draw(st.lists(st.integers(0, max_dim), min_size=Q.n, max_size=Q.n))
    rng = _entries(draw)
    return Rep(Q, F, tuple(dims), tuple(rng.integers(0, F.q, size=(dims[t], dims[s]))
                                        for s, t in Q.arrows))


@st.composite
def random_modules(draw):
    Q = _orientation(draw, draw(st.sampled_from(("kronecker", "a:3", "dtilde:4"))))
    return _module(draw, Q, field(draw(st.sampled_from(FIELDS))), 3)


@st.composite
def direct_sums(draw):
    Q = _orientation(draw, draw(st.sampled_from(("kronecker", "a:3", "dtilde:4"))))
    F = field(draw(st.sampled_from(FIELDS)))
    return direct_sum(_module(draw, Q, F, 2), _module(draw, Q, F, 2))


@st.composite
def kronecker_centralizers(draw):
    """(I, A) on the Kronecker quiver, either way round: its End is the
    centralizer of A, local when the minimal polynomial of A is a power of
    an irreducible one."""
    F = field(draw(st.sampled_from(FIELDS)))
    n = draw(st.integers(2, 3))
    A = _entries(draw).integers(0, F.q, size=(n, n))
    mats = (np.eye(n, dtype=np.int64), A) if draw(st.booleans()) else (A, np.eye(n, dtype=np.int64))
    return Rep(_orientation(draw, "kronecker"), F, (n, n), mats)


@PROPERTY
@given(random_modules())
def test_random_modules_match_the_idempotent_scan(M):
    assume(_scannable(M))
    _assert_matches_the_idempotent_scan(M)


@PROPERTY
@given(direct_sums())
def test_direct_sums_match_the_idempotent_scan(M):
    assume(_scannable(M))
    _assert_matches_the_idempotent_scan(M)


@PROPERTY
@given(kronecker_centralizers())
def test_kronecker_centralizers_match_the_idempotent_scan(M):
    assume(_scannable(M))
    _assert_matches_the_idempotent_scan(M)


@lru_cache(maxsize=None)
def _d4_self_extensions(q):
    """The self-extensions of the homogeneous simples of D~4 over GF(q)
    along their Ext basis: quasi-length 2, End of dimension 2, local."""
    out = []
    for _, R in build_homogeneous_simples(preset_quiver("dtilde:4"), field(q)):
        out += [middle_term(R, R, c) for c in ext_space(R, R).cocycles]
    return out


def test_d4_self_extensions_are_local_non_bricks():
    for q in (3, 4):
        modules = _d4_self_extensions(q)
        assert modules
        for M in modules:
            assert end_dim(M) == 2 and _scannable(M)
            assert _assert_matches_the_idempotent_scan(M)

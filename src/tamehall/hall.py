"""Hall numbers and Hall polynomials.

A Hall number F^M_{N1 N2} counts the submodules U of M with U isomorphic
to N2 and M/U isomorphic to N1.  The generic routine enumerates
submodules directly.  For the one-sink counts that feed the polynomial
table there is a fast path that enumerates normalized surjection classes
onto the expected preinjective quotient, plus a literal line-by-line
check kept as a cross oracle.

Counts sampled over several fields are interpolated into exact integer
polynomials in q, with held-out fields used for verification.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    InternalInconsistencyError,
    InvalidInputError,
    VerificationError,
)
from fractions import Fraction

from .functors import build_preinjective
from .gf import _factor_prime_power, batched_full_row_rank, enumerate_subspaces, field
# Kept bound although unused: bench/test_bench_tracer.py expects hall and gr to share it.
from .homreg import build_homogeneous_simples  # noqa: F401
from .homreg import homogeneous_simples
from .quiver import Quiver, defect, radical_delta, reflect_to_simple, reorient_toward, tits_form
from .reps import (
    Rep,
    end_dim,
    enumerate_subreps,
    hom_basis,
    is_isomorphic,
    quotient_rep,
    scalar_class_blocks,
    sub_rep,
)

# Fields used when sampling counts: the first delta_i of these, never GF(2).
SAMPLE_FIELDS = (3, 4, 5, 7, 8, 9)

# Extra fields used only to verify an interpolated polynomial.  The larger
# one is skipped once the batch sizes grow past defect 4.
VERIFY_FIELD = 11
VERIFY_FIELD_EXTRA = 13

# Quotient-line count polynomials for sink multiplicities 1..6, ascending
# coefficients.  Recomputed tables are validated against this constant.
PINNED_SINK_POLYNOMIALS: dict[int, tuple[int, ...]] = {
    1: (1,),
    2: (-3, 1),
    3: (7, -5, 1),
    4: (-14, 15, -6, 1),
    5: (26, -37, 22, -7, 1),
    6: (-39, 62, -45, 22, -7, 1),
}


@dataclass(frozen=True)
class HallPolynomial:
    """Integer polynomial in q with its sampling provenance.

    coeffs is ascending: coeffs[k] multiplies q**k.  samples are the
    (q, count) pairs that determined the polynomial; verified_at lists
    the extra fields where the polynomial was checked after the fact.
    """

    coeffs: tuple[int, ...]
    samples: tuple[tuple[int, int], ...]
    verified_at: tuple[int, ...]

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, q: int) -> int:
        out = 0
        for c in reversed(self.coeffs):
            out = out * q + c
        return out

    def format(self) -> str:
        if not any(self.coeffs):
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            elif k == 1:
                body = "q" if mag == 1 else f"{mag}*q"
            else:
                body = f"q^{k}" if mag == 1 else f"{mag}*q^{k}"
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)


def hall_number(M: Rep, N1: Rep, N2: Rep, budget: int = 2_000_000) -> int:
    """Count submodules U of M with U = N2 and M/U = N1 up to isomorphism."""
    if N1.field != M.field or N2.field != M.field or N1.quiver != M.quiver or N2.quiver != M.quiver:
        raise InvalidInputError("all three modules must live over one quiver and field")
    if tuple(a + b for a, b in zip(N1.dims, N2.dims)) != M.dims:
        return 0
    count = 0
    for spaces in enumerate_subreps(M, budget=budget, dims=N2.dims):
        if not is_isomorphic(sub_rep(M, spaces), N2, budget=budget):
            continue
        if is_isomorphic(quotient_rep(M, spaces), N1, budget=budget):
            count += 1
    return count


# -- fast path for the one-sink count ----------------------------------


def _check_sink_instance(R: Rep, i: int) -> tuple[int, ...]:
    Q = R.quiver
    if not 0 <= i < Q.n:
        raise InvalidInputError(f"vertex {i} out of range")
    if Q.sinks() != (i,):
        raise InvalidInputError("quiver must have its unique sink at the given vertex")
    delta = radical_delta(Q)
    if R.dims != delta:
        raise InvalidInputError("module must have the radical dimension vector")
    return delta


def hall_number_sink_fast(R: Rep, i: int, I_expected: Rep) -> int:
    """Count lines L in R_i whose quotient R/L has a one-dimensional
    endomorphism ring; equivalently the Hall number F^R_{I S(i)} where I
    is the preinjective indecomposable of dimension delta - e_i.

    The count is realized as the number of surjections R -> I_expected
    up to scalar: each such class has a distinct line kernel, and every
    line with indecomposable quotient arises this way.
    """
    delta = _check_sink_instance(R, i)
    expected = tuple(d - (1 if j == i else 0) for j, d in enumerate(delta))
    if I_expected.dims != expected or I_expected.field != R.field or I_expected.quiver != R.quiver:
        raise InvalidInputError("expected quotient must be the preinjective of dimension delta - e_i")
    F = R.field
    basis = hom_basis(R, I_expected)
    h = len(basis)
    if h != delta[i]:
        raise InternalInconsistencyError(
            f"hom space dimension {h} differs from sink multiplicity {delta[i]}")
    if h == 0:
        return 0
    order = [j for j in range(R.quiver.n) if expected[j] > 0]
    order.sort(key=lambda j: (expected[j], delta[j], j))
    # each vertex's basis maps as the rows of an (h, a*b) matrix, so every
    # combination in a block is one row of a single field product
    stacks = {j: np.stack([phi[j].reshape(-1) for phi in basis]) for j in order}
    total = 0
    for block in scalar_class_blocks(F.q, h):
        alive = np.ones(block.shape[0], dtype=bool)
        for j in order:
            live = np.flatnonzero(alive)
            if live.size == 0:
                break
            mats = F.matmul(block[live], stacks[j]).reshape((live.size,) + basis[0][j].shape)
            ok = batched_full_row_rank(F, mats)
            alive[live[~ok]] = False
        total += int(alive.sum())
    return total


def hall_number_sink_lines(R: Rep, i: int) -> int:
    """Literal form of the one-sink count: enumerate the lines L in the
    sink fiber R_i and keep those with end_dim(R/L) == 1.  Slower than
    the surjection count; kept as an independent oracle."""
    _check_sink_instance(R, i)
    F = R.field
    count = 0
    for line in enumerate_subspaces(F, R.dims[i], 1):
        spaces = tuple(line if j == i else F.zeros(0, R.dims[j]) for j in range(R.quiver.n))
        if end_dim(quotient_rep(R, spaces)) == 1:
            count += 1
    return count


# -- sampling and interpolation ----------------------------------------


def sample_counts(Q: Quiver, i: int, fields: tuple[int, ...],
                  cross_check: bool = True) -> list[tuple[int, int]]:
    """One-sink counts over the given fields, one homogeneous module per
    field (the first by label).  At the smallest field that carries a
    second homogeneous module, the count is recomputed there and must
    agree; labels are arbitrary, counts are not.

    Only the members read are built: the first of each field's family,
    and the second while the cross-check is still pending (a field with
    one homogeneous module is then scanned to the end of its line)."""
    delta = radical_delta(Q)
    expected = tuple(d - (1 if j == i else 0) for j, d in enumerate(delta))
    out = []
    checked = False
    for q in fields:
        if q < 3:
            raise InvalidInputError("sampling fields must have at least 3 elements")
        F = field(q)
        family = homogeneous_simples(Q, F)
        first = next(family, None)
        if first is None:
            raise InternalInconsistencyError(f"no homogeneous module over GF({q})")
        I = build_preinjective(Q, F, expected)
        count = hall_number_sink_fast(first[1], i, I)
        second = next(family, None) if cross_check and not checked else None
        if second is not None:
            other = hall_number_sink_fast(second[1], i, I)
            if other != count:
                raise VerificationError(
                    f"count over GF({q}) depends on the homogeneous module: {count} vs {other}")
            checked = True
        out.append((q, count))
    return out


def interpolate(points, degree_cap: int, verification=()) -> HallPolynomial:
    """Exact polynomial through the sample points.

    That the counts are polynomial in q at all is Hubery's theorem on Hall
    polynomials for affine quivers (Hubery, "Hall polynomials for affine
    quivers", Represent. Theory 14, 2010); the held-out fields check it on
    each instance.

    Hard failures: repeated fields, fewer than degree_cap + 1 points,
    non-integer coefficients, degree above the cap, or disagreement at a
    verification point.
    """
    pts = [(int(q), int(v)) for q, v in points]
    xs = [q for q, _ in pts]
    if len(set(xs)) != len(xs):
        raise InvalidInputError("sample fields must be distinct")
    if len(pts) < degree_cap + 1:
        raise InvalidInputError(
            f"need at least {degree_cap + 1} samples for degree {degree_cap}")
    coeffs = [Fraction(0)] * len(pts)
    for k, (xk, yk) in enumerate(pts):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(pts):
            if j == k:
                continue
            new = [Fraction(0)] * (len(basis) + 1)
            for d, c in enumerate(basis):
                new[d] -= c * xj
                new[d + 1] += c
            basis = new
            denom *= xk - xj
        scale = Fraction(yk) / denom
        for d, c in enumerate(basis):
            coeffs[d] += c * scale
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    if any(c.denominator != 1 for c in coeffs):
        raise VerificationError(f"interpolant has non-integer coefficients: {coeffs}")
    if len(coeffs) - 1 > degree_cap:
        raise VerificationError(
            f"interpolant has degree {len(coeffs) - 1}, above the cap {degree_cap}")
    out = HallPolynomial(tuple(int(c) for c in coeffs), tuple(pts),
                         tuple(int(q) for q, _ in verification))
    for q, v in verification:
        got = out(q)
        if got != v:
            raise VerificationError(
                f"interpolant gives {got} at q={q}, independent count gives {v}")
    return out


def hall_poly_f(Q: Quiver, i: int) -> HallPolynomial:
    """The count polynomial f_m for a one-sink quiver with sink i, where
    m is the sink entry of delta.  Samples m fields, interpolates with
    degree cap m - 1, verifies on one or two held-out fields, and
    asserts the observed monic-of-degree-(m-1) shape."""
    delta = _sink_delta(Q, i)
    m = delta[i]
    sample_fields = SAMPLE_FIELDS[:m]
    pts = sample_counts(Q, i, sample_fields)
    verify_fields = (VERIFY_FIELD,) + ((VERIFY_FIELD_EXTRA,) if m <= 4 else ())
    verification = sample_counts(Q, i, verify_fields)
    poly = interpolate(pts, m - 1, verification)
    if len(poly.coeffs) != m or poly.coeffs[-1] != 1:
        raise VerificationError(
            f"expected a monic polynomial of degree {m - 1}, got {poly.coeffs}")
    return poly


def _sink_delta(Q: Quiver, i: int) -> tuple[int, ...]:
    if Q.sinks() != (i,):
        raise InvalidInputError("quiver must have its unique sink at the given vertex")
    return radical_delta(Q)


def hall_poly_for_root(Q: Quiver, x: tuple[int, ...]) -> HallPolynomial:
    """Count polynomial attached to a preprojective real root x: reflect
    x to a simple, reorient the quiver into a one-sink quiver at that
    vertex, and compute the sink polynomial there.  The sink entry of
    delta must equal -defect(x)."""
    if tits_form(Q, x) != 1:
        raise InvalidInputError(f"{x} is not a real root")
    d = defect(Q, x)
    if d >= 0:
        raise InvalidInputError(f"root {x} has defect {d}, expected negative")
    i, _, _ = reflect_to_simple(Q, x)
    Qi = reorient_toward(Q, i)
    delta = radical_delta(Q)
    if delta[i] != -d:
        raise InternalInconsistencyError(
            f"reflected to vertex {i} with multiplicity {delta[i]}, defect was {d}")
    return hall_poly_f(Qi, i)


# -- the table ----------------------------------------------------------


@dataclass(frozen=True)
class HallTableRow:
    multiplicity: int
    vertex: int
    poly: HallPolynomial


def hall_table(Q: Quiver, progress=None) -> list[HallTableRow]:
    """One row per distinct entry of delta: pick the first vertex with
    that entry, reorient into a one-sink quiver there, and compute its
    count polynomial.  `progress` is called with a short status string
    before each row."""
    delta = radical_delta(Q)
    rows = []
    for m in sorted(set(delta)):
        i = min(j for j in range(Q.n) if delta[j] == m)
        if progress is not None:
            progress(f"row m={m}: sampling at vertex {i + 1}")
        Qi = reorient_toward(Q, i)
        rows.append(HallTableRow(m, i, hall_poly_f(Qi, i)))
    return rows


def table_mismatches(rows: list[HallTableRow]) -> list[str]:
    """Compare computed rows against the pinned coefficients; empty list
    means full agreement on the pinned range."""
    out = []
    for row in rows:
        pinned = PINNED_SINK_POLYNOMIALS.get(row.multiplicity)
        if pinned is None:
            continue
        if row.poly.coeffs != pinned:
            out.append(
                f"m={row.multiplicity}: computed {row.poly.coeffs}, pinned {pinned}")
    return out


def gr_form_check(f, m: int) -> int | None:
    """If f equals (X^m - X^s)/(X - 1) = X^s + ... + X^(m-1) for some
    0 <= s < m, return that s, else None."""
    if m < 1:
        raise InvalidInputError("multiplicity must be positive")
    coeffs = tuple(f.coeffs) if isinstance(f, HallPolynomial) else tuple(int(c) for c in f)
    trimmed = list(coeffs)
    while len(trimmed) > 1 and trimmed[-1] == 0:
        trimmed.pop()
    for s in range(m):
        cand = [0] * m
        for k in range(s, m):
            cand[k] = 1
        if trimmed == cand[:len(trimmed)] and all(c == 0 for c in cand[len(trimmed):]):
            return s
    return None


# -- counting points of the projective line by degree ------------------


def _divisors(l: int) -> list[int]:
    return [d for d in range(1, l + 1) if l % d == 0]


def _moebius(m: int) -> int:
    if m == 1:
        return 1
    out = 1
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        else:
            p += 1
    if m > 1:
        out = -out
    return out


def necklace_count(q: int, l: int) -> int:
    """Number of degree-l points of the projective line over GF(q) for
    l >= 2; equivalently the number of monic irreducible polynomials of
    degree l.  For l = 1 the polynomial count is q."""
    if l < 1:
        raise InvalidInputError("degree must be positive")
    _factor_prime_power(q)
    total = sum(_moebius(l // d) * q ** d for d in _divisors(l))
    if total % l:
        raise InternalInconsistencyError("necklace sum not divisible by degree")
    return total // l

"""Hall numbers and Hall polynomials.

A Hall number F^M_{N1 N2} counts the submodules U of M with U isomorphic
to N2 and M/U isomorphic to N1.  The generic routine enumerates
submodules directly.  For the one-sink counts that feed the polynomial
table there is a fast path that counts the scalar classes of surjections
onto the expected preinjective quotient I, plus a literal line-by-line
check kept as a cross oracle.  By Nakayama's lemma a map onto the top
top(I) = I / rad I is onto I, since rad I is spanned by arrow images and
the arrow ideal of an acyclic quiver is nilpotent.  The fast path counts
the complement: every class that misses top(I) at some vertex lies in
the kernel of a small linear map, and it marks the points of those
kernels instead of testing every class.  The points of each group of
kernels come from one `gf.scalar_class_images` call, whose block cap
bounds how many of them are held at once.

Counts sampled over several fields are interpolated into exact integer
polynomials in q, with held-out fields used for verification: one
`sample_counts` pass gives a polynomial its samples and its held-out
counts, and `gf.rational_rref` solves the Vandermonde system over Q.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DEFAULT_BUDGET,
    InternalInconsistencyError,
    InvalidInputError,
    VerificationError,
)
from .functors import build_preinjective
from .gf import (
    _factor_prime_power,
    batched_kernels,
    enumerate_subspaces,
    field,
    kernel_basis,
    rational_rref,
    scalar_class_images,
)
# Kept bound although unused: bench/test_bench_tracer.py expects hall and gr to share it.
from .homreg import build_homogeneous_simples  # noqa: F401
from .homreg import sink_family
from .quiver import Quiver, defect, injective_walk, opposite, radical_delta, reorient_toward, tits_form
from .reps import (
    Rep,
    end_dim,
    enumerate_subreps,
    hom_basis,
    is_isomorphic,
    quotient_rep,
    sub_rep,
    top_projection,
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

# Fewest matrices M_{j,y} at a vertex for which `hall_number_sink_fast`
# takes their kernels from one `batched_kernels` call rather than one
# `kernel_basis` each: the batched elimination costs about the same as 8
# single ones (GF(7), t_j = 2) and more below, less above.
_BATCH_FROM = 8


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


def hall_number(M: Rep, N1: Rep, N2: Rep, budget: int = DEFAULT_BUDGET) -> int:
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


def _sink_delta(Q: Quiver, i: int) -> tuple[int, ...]:
    if Q.sinks() != (i,):
        raise InvalidInputError("quiver must have its unique sink at the given vertex")
    return radical_delta(Q)


def _minus_unit(delta: tuple[int, ...], i: int) -> tuple[int, ...]:
    """delta - e_i, the dimension vector of the preinjective quotient."""
    return tuple(d - (1 if j == i else 0) for j, d in enumerate(delta))


def _check_sink_instance(R: Rep, i: int) -> tuple[int, ...]:
    if not 0 <= i < R.quiver.n:
        raise InvalidInputError(f"vertex {i} out of range")
    delta = _sink_delta(R.quiver, i)
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

    Surjectivity is tested on the top of I only (Nakayama's lemma): phi
    is onto exactly when R -> I -> top(I) = I / rad I is onto.  Here
    rad I = J I for the arrow ideal J, and J is nilpotent because the
    quiver has no oriented cycle; so if the image U of phi has
    U + J I = I, then I = U + J^2 I = ... = U.  top(I) is semisimple, so
    the composite is onto exactly when pi_j phi_j (t_j x delta_j, with
    t_j = dim top(I)_j) has full row rank at every vertex with t_j > 0.

    The count is the complement of the classes that fail.  With
    phi_c = sum_k c_k phi_k over the h basis maps, pi_j phi_{c,j} lacks
    full row rank exactly when some y != 0 in GF(q)^{t_j} has
    0 = y pi_j phi_{c,j} = sum_k c_k (y pi_j phi_{k,j}), that is when c
    lies in the left kernel K_{j,y} of the h x delta_j matrix M_{j,y}
    whose rows are y pi_j phi_{k,j}.  A multiple of y has the same
    kernel, so the count is #P^{h-1} = (q^h - 1)/(q - 1) minus the
    number of classes in the union of the P(K_{j,y}), over the j with
    t_j > 0 and the scalar classes of y.  The matrices M_{j,y} of every
    y are the images under `scalar_class_images` of the t_j x (h delta_j)
    stack of the pi_j phi_{k,j}; a vertex with t_j = 1 has y = 1 alone.

    Each K_{j,y} comes as a basis in reduced echelon form: from one
    `kernel_basis` per y at a vertex with fewer than _BATCH_FROM classes
    y (t_j = 1, and t_j = 2 over GF(q) with q <= 5), else from one
    `batched_kernels` elimination of every M_{j,y} of the vertex, which
    groups the kernels by pivot pattern, so by dimension f.  A
    combination a K whose first nonzero coefficient a_r is 1 then has its
    first nonzero entry, a 1, at the pivot column of row r, and distinct
    such a give distinct vectors; so the images a K over the normalized a
    (first nonzero entry 1) in GF(q)^f are the normalized representatives
    of the classes in P(K), each once.  One `scalar_class_images` call
    lists them for a whole group, the kernels set side by side, in blocks
    that its own entry cap bounds.  A one-row kernel is its own single
    point, and a kernel with f = 0 has none.  A normalized c is marked at
    its base-q code sum_k c_k q^(h-1-k), which is below 2 q^(h-1)
    because its first nonzero entry is 1; the marks count the union.
    """
    delta = _check_sink_instance(R, i)
    if I_expected.dims != _minus_unit(delta, i) or I_expected.field != R.field or I_expected.quiver != R.quiver:
        raise InvalidInputError("expected quotient must be the preinjective of dimension delta - e_i")
    F = R.field
    basis = hom_basis(R, I_expected)
    h = len(basis)
    if h != delta[i]:
        raise InternalInconsistencyError(
            f"hom space dimension {h} differs from sink multiplicity {delta[i]}")
    if h == 0:
        return 0
    pi = top_projection(I_expected)
    top_vertices = [j for j in range(R.quiver.n) if pi[j].shape[0] > 0]
    if not top_vertices:
        raise InternalInconsistencyError("expected quotient is nonzero but its top is zero")
    q = F.q
    codes = q ** np.arange(h - 1, -1, -1, dtype=np.int64)
    marked = np.zeros(2 * q ** (h - 1), dtype=bool)
    for j in top_vertices:
        # stack[:, k * delta_j + l] = (pi_j phi_{k,j})[:, l], so y stack
        # read as an h x delta_j matrix is M_{j,y}
        stack = np.concatenate([F.matmul(pi[j], phi[j]) for phi in basis], axis=1)
        ys = stack if stack.shape[0] == 1 else np.concatenate(list(scalar_class_images(F, stack)))
        mats = ys.reshape(-1, h, delta[j]).transpose(0, 2, 1)
        if len(mats) < _BATCH_FROM:
            groups = [kernel_basis(F, M)[None] for M in mats]
        else:
            groups = [K for _, K in batched_kernels(F, mats)]
        for K in groups:
            f = K.shape[1]
            if f == 1:
                marked[K[:, 0] @ codes] = True
            elif f > 1:
                # the images of the whole group at once: column g h + l of
                # the f x (G h) stack is entry l of kernel g
                for block in scalar_class_images(F, K.transpose(1, 0, 2).reshape(f, -1)):
                    marked[block.reshape(-1, h) @ codes] = True
    return (q ** h - 1) // (q - 1) - int(np.count_nonzero(marked))


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


def sample_counts(Q: Quiver, i: int, fields: tuple[int, ...]) -> list[tuple[int, int]]:
    """One-sink counts over the given fields, one homogeneous module per
    field (the first that `homreg.sink_family` yields).  At the first of
    the given fields that carries a second homogeneous module, the count
    is recomputed there and must agree; the count does not depend on the
    module.  The check runs once per call, and `hall_poly_f` makes one
    call per polynomial.  Once is enough: a second field would test the
    same claim again, the held-out counts verify the interpolant either
    way, and `tests/test_sink_complement.py` and `tests/test_homreg.py`
    compare both modules on every sink row.

    Each field's family is built once per underlying graph, all in one
    base orientation of the graph, and each member read is moved to Q by
    sink reflections:
    s_v delta = delta, the reflection keeps End on modules with no simple
    summand S_v, and it commutes with tau on regular modules, so it sends
    homogeneous simples to homogeneous simples.  Every moved module read
    is still tested by `is_simple_homogeneous` on Q.  Only the members
    read are built: the first of each field's scan, and the second while
    the cross-check is still pending (a field with one homogeneous module
    is then scanned to the end of its line)."""
    expected = _minus_unit(_sink_delta(Q, i), i)
    out = []
    checked = False
    for q in fields:
        if q < 3:
            raise InvalidInputError("sampling fields must have at least 3 elements")
        F = field(q)
        family = sink_family(Q, F)
        first = next(family, None)
        if first is None:
            raise InternalInconsistencyError(f"no homogeneous module over GF({q})")
        I = build_preinjective(Q, F, expected)
        count = hall_number_sink_fast(first, i, I)
        second = next(family, None) if not checked else None
        if second is not None:
            other = hall_number_sink_fast(second, i, I)
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
    # the Vandermonde system sum_d c_d x^d = y, one row [1, x, .., x^(n-1), y]
    # per point; distinct x make it invertible, so row d of its reduced form
    # ends in c_d
    n = len(pts)
    R, _ = rational_rref([[x ** d for d in range(n)] + [y] for x, y in pts])
    coeffs = [row[n] for row in R]
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
    m is the sink entry of delta.  One `sample_counts` pass over m sample
    fields and one or two held-out fields; interpolates through the
    samples with degree cap m - 1, verifies at the held-out fields, and
    asserts the observed monic-of-degree-(m-1) shape.  The pass
    cross-checks the count on a second homogeneous module once per
    polynomial: at q = 3 on the Kronecker quiver, and on the D~ and E~
    quivers at q = 4 when m >= 2 and at q = 11 when m = 1."""
    m = _sink_delta(Q, i)[i]
    verify_fields = (VERIFY_FIELD,) + ((VERIFY_FIELD_EXTRA,) if m <= 4 else ())
    counts = sample_counts(Q, i, SAMPLE_FIELDS[:m] + verify_fields)
    poly = interpolate(counts[:m], m - 1, counts[m:])
    if len(poly.coeffs) != m or poly.coeffs[-1] != 1:
        raise VerificationError(
            f"expected a monic polynomial of degree {m - 1}, got {poly.coeffs}")
    return poly


def hall_poly_for_root(Q: Quiver, x: tuple[int, ...]) -> HallPolynomial:
    """Count polynomial attached to a preprojective real root x: find the
    j with Phi^r x = dim P_j by the Coxeter walk on Q^op, reorient the
    quiver into a one-sink quiver at j, and compute the sink polynomial
    there.  The sink entry of delta must equal -defect(x)."""
    if tits_form(Q, x) != 1:
        raise InvalidInputError(f"{x} is not a real root")
    d = defect(Q, x)
    if d >= 0:
        raise InvalidInputError(f"root {x} has defect {d}, expected negative")
    walked = injective_walk(opposite(Q), x)
    if walked is None:
        raise InternalInconsistencyError(f"{x} reaches no projective along the Coxeter walk")
    i = walked[0]
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
        if trimmed == [0] * s + [1] * (m - s):
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

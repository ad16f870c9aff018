"""Gabriel-Roiter measures, submodules, and the defect verification run.

A measure is a strictly increasing tuple of positive integers, ordered by:
I < J when the smallest element of the symmetric difference lies in J.
The measure of a module is the best chain of indecomposable submodules,
recorded by total length at each step.

Two engines compute measures.  The generic engine enumerates submodules
exhaustively with memoization, and works for any small module.  For
preprojective bricks and homogeneous modules on an affine quiver, every
indecomposable submodule is itself a preprojective root module, so the
search reduces to root combinatorics plus explicit monomorphism checks;
that engine handles the larger sweeps.  The two agree on their overlap,
which the tests pin down.
"""

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    InfeasibleEnumerationError,
    InternalInconsistencyError,
    InvalidInputError,
    VerificationError,
)
from .functors import build_preprojective
from .gf import Field
# Kept bound although unused: bench/test_bench_tracer.py expects hall and gr to share it.
from .homreg import build_homogeneous_simples  # noqa: F401
from .homreg import homogeneous_simples, is_simple_homogeneous
from .quiver import (
    Quiver,
    defect,
    is_affine,
    positive_real_roots,
    radical_delta,
    tits_form,
)
from .reps import (
    Rep,
    SubrepWitness,
    end_dim,
    enumerate_subreps,
    ext1_dim,
    hom_basis,
    hom_combination,
    hom_dim,
    injective_classes,
    is_brick,
    is_isomorphic,
    morphism_image,
    simple_rep,
    sub_rep,
    subrep_witness,
)

Measure = tuple[int, ...]

MAX_AMBIENT = 14
MAX_FIELD = 5


def as_measure(elems) -> Measure:
    out = tuple(sorted(set(int(v) for v in elems)))
    if any(v < 1 for v in out):
        raise InvalidInputError("measure elements must be positive")
    return out


def compare_measures(I, J) -> str:
    """Total order on measures: smaller when the smallest element of the
    symmetric difference belongs to the other set."""
    a, b = set(as_measure(I)), set(as_measure(J))
    if a == b:
        return "="
    return "<" if min(a ^ b) in b else ">"


def measure_less(I, J) -> bool:
    return compare_measures(I, J) == "<"


def max_measure(measures) -> Measure:
    best = None
    for m in measures:
        m = as_measure(m)
        if best is None or measure_less(best, m):
            best = m
    if best is None:
        raise InvalidInputError("empty measure collection")
    return best


def starts_with(I, J) -> bool:
    """True when J equals I or continues I using strictly larger elements."""
    a, b = as_measure(I), as_measure(J)
    if a == b:
        return True
    sa, sb = set(a), set(b)
    if not sa < sb:
        return False
    return not a or max(a) < min(sb - sa)


# -- monomorphism scans -------------------------------------------------


def _mono_classes(X: Rep, Y: Rep):
    """Yield (phi, coeffs) for every scalar class of monomorphisms X -> Y."""
    return injective_classes(X.field, X, hom_basis(X, Y))


def _mono_exists(X: Rep, Y: Rep) -> bool:
    for _ in _mono_classes(X, Y):
        return True
    return False


# -- root-combinatorics engine -----------------------------------------

@lru_cache(maxsize=None)
def _root_module(Q: Quiver, F: Field, x: tuple[int, ...]) -> Rep:
    return build_preprojective(Q, F, x)


def _preproj_roots_inside(Q: Quiver, box) -> list:
    roots = positive_real_roots(Q, box)
    return [x for x in roots if defect(Q, x) < 0]


@lru_cache(maxsize=None)
def _root_measure(Q: Quiver, F: Field, x: tuple[int, ...]) -> Measure:
    """Measure of the preprojective indecomposable with root x."""
    return _measure_over_roots(_root_module(Q, F, x))


def _measure_over_roots(M: Rep) -> Measure:
    """Measure of M when every indecomposable submodule is known to be a
    preprojective root module: homogeneous modules and preprojective
    bricks on an affine quiver."""
    Q, F = M.quiver, M.field
    best: Measure = ()
    for d in _preproj_roots_inside(Q, M.dims):
        if tuple(d) == M.dims:
            continue
        X = _root_module(Q, F, d)
        if hom_dim(X, M) == 0 or not _mono_exists(X, M):
            continue
        m = _root_measure(Q, F, d)
        if not best or measure_less(best, m):
            best = m
    return best + (sum(M.dims),)


def _root_engine_applies(M: Rep) -> bool:
    Q = M.quiver
    if not is_affine(Q):
        return False
    if M.dims == radical_delta(Q):
        return is_simple_homogeneous(M)
    return (tits_form(Q, M.dims) == 1 and defect(Q, M.dims) < 0
            and is_brick(M))


# -- exhaustive engine --------------------------------------------------

_REP_MEMO: dict = {}


def _probe_signature(M: Rep):
    Q, F = M.quiver, M.field
    probes = [simple_rep(Q, F, i) for i in range(Q.n)]
    ins = tuple(hom_dim(P, M) for P in probes)
    outs = tuple(hom_dim(M, P) for P in probes)
    return (Q, F.q, M.dims, ins, outs)


def is_indecomposable(M: Rep, budget: int = 2_000_000) -> bool:
    """No idempotent endomorphisms besides 0 and the identity."""
    if sum(M.dims) == 0:
        return False
    if end_dim(M) == 1:
        return True
    basis = hom_basis(M, M)
    F = M.field
    if F.q ** len(basis) > budget:
        raise InfeasibleEnumerationError(
            f"{F.q}^{len(basis)} endomorphisms exceed budget", needed=F.q ** len(basis),
            budget=budget)
    nontrivial = 0
    for coeffs in itertools.product(range(F.q), repeat=len(basis)):
        phi = hom_combination(F, basis, np.array(coeffs, dtype=np.int64))
        if all((F.matmul(p, p) == p).all() for p in phi):
            nontrivial += 1
            if nontrivial > 2:
                return False
    return nontrivial == 2


def _rep_measure(M: Rep, budget: int) -> Measure:
    sig = _probe_signature(M)
    for rep, value in _REP_MEMO.get(sig, ()):
        if is_isomorphic(rep, M, budget):
            return value
    best: Measure = ()
    own = is_indecomposable(M)
    for spaces in enumerate_subreps(M, budget=budget):
        d = tuple(int(U.shape[0]) for U in spaces)
        if sum(d) == 0 or d == M.dims:
            continue
        U = sub_rep(M, spaces)
        if not is_indecomposable(U):
            continue
        m = _rep_measure(U, budget)
        if not best or measure_less(best, m):
            best = m
    if own:
        out = best + (sum(M.dims),)
    else:
        if not best:
            raise InternalInconsistencyError(
                "nonzero decomposable module with no indecomposable submodule")
        out = best
    _REP_MEMO.setdefault(sig, []).append((M, out))
    return out


# -- public measure API -------------------------------------------------


def gr_measure(M: Rep, budget: int = 2_000_000) -> Measure:
    """Best chain of indecomposable submodules of M, as the increasing
    tuple of their lengths."""
    if sum(M.dims) == 0:
        raise InvalidInputError("the zero module has no measure")
    if sum(M.dims) > MAX_AMBIENT:
        raise InfeasibleEnumerationError(
            f"module length {sum(M.dims)} above supported {MAX_AMBIENT}",
            needed=sum(M.dims), budget=MAX_AMBIENT)
    if M.field.q > MAX_FIELD:
        raise InvalidInputError(f"measure search supports q <= {MAX_FIELD}")
    if _root_engine_applies(M):
        return _measure_over_roots(M)
    return _rep_measure(M, budget)


def gr_submodules(M: Rep, budget: int = 2_000_000) -> list[SubrepWitness]:
    """All indecomposable submodules X with gr_measure(M) equal to
    gr_measure(X) extended by the length of M."""
    mu = gr_measure(M, budget)
    target = mu[:-1]
    if not target:
        return []
    Q, F = M.quiver, M.field
    out = []
    seen = set()
    if _root_engine_applies(M):
        for d in _preproj_roots_inside(Q, M.dims):
            if tuple(d) == M.dims or _root_measure(Q, F, d) != target:
                continue
            X = _root_module(Q, F, d)
            for phi, _ in _mono_classes(X, M):
                spaces = morphism_image(F, phi)
                key = tuple(U.tobytes() for U in spaces)
                if key in seen:
                    raise InternalInconsistencyError(
                        "distinct monomorphism classes share an image")
                seen.add(key)
                out.append(subrep_witness(M, spaces))
    else:
        for spaces in enumerate_subreps(M, budget=budget):
            d = tuple(int(U.shape[0]) for U in spaces)
            if sum(d) == 0 or d == M.dims:
                continue
            U = sub_rep(M, spaces)
            if not is_indecomposable(U):
                continue
            if _rep_measure(U, budget) == target:
                out.append(subrep_witness(M, spaces))
    for w in out:
        if tits_form(Q, w.quotient.dims) == 1 and end_dim(w.quotient) != 1:
            raise InternalInconsistencyError(
                "quotient of a GR inclusion has root dimensions but is decomposable")
    return out


# -- submodule count report ---------------------------------------------


@dataclass(frozen=True)
class SubmoduleCountReport:
    u: int
    h: int
    s: int | None
    e: int
    r: int
    u_brute: int
    singular_subspace: bool


def _log_q(count: int, q: int) -> int | None:
    k = 0
    while q ** k < count:
        k += 1
    return k if q ** k == count else None


def count_submodules_report(X: Rep, Y: Rep, budget: int = 2_000_000) -> SubmoduleCountReport:
    """Count the submodules of Y isomorphic to X twice: directly, and via
    q^(s-r) (q^(h-s) - 1) / (q^(e-r) - 1) from the sizes of the singular
    set and the radical.  Both counts must agree."""
    if X.quiver != Y.quiver or X.field != Y.field:
        raise InvalidInputError("modules must share a quiver and field")
    if not is_indecomposable(X) or not is_indecomposable(Y):
        raise InvalidInputError("count report needs indecomposable modules")
    F = X.field
    q = F.q
    basis = hom_basis(X, Y)
    h = len(basis)
    e = end_dim(X)
    if q ** h > budget or q ** e > budget:
        raise InfeasibleEnumerationError(
            "hom or endomorphism space too large to enumerate",
            needed=max(q ** h, q ** e), budget=budget)
    # A nonzero vector is non-injective exactly when its whole scalar class
    # is, so each count is q^dim less (q - 1) per injective class.
    sing = q ** h - (q - 1) * sum(1 for _ in injective_classes(F, X, basis, budget))
    s = _log_q(sing, q)
    if e == 1:
        r = 0
    else:
        bad = q ** e - (q - 1) * sum(1 for _ in injective_classes(F, X, hom_basis(X, X), budget))
        r = _log_q(bad, q)
        if r is None:
            raise InternalInconsistencyError(
                "non-invertible endomorphism count of an indecomposable is not a power of q")
    u_brute = 0
    for spaces in enumerate_subreps(Y, budget=budget, dims=X.dims):
        if is_isomorphic(sub_rep(Y, spaces), X):
            u_brute += 1
    if s is None:
        return SubmoduleCountReport(u_brute, h, None, e, r, u_brute, False)
    num = q ** (s - r) * (q ** (h - s) - 1)
    den = q ** (e - r) - 1
    if num % den:
        raise VerificationError(
            f"count formula is not integral: {num}/{den} with h={h} s={s} e={e} r={r}")
    u = num // den
    if u != u_brute:
        raise VerificationError(
            f"count formula gives {u}, direct enumeration gives {u_brute} "
            f"(h={h} s={s} e={e} r={r})")
    return SubmoduleCountReport(u, h, s, e, r, u_brute, True)


# -- the verification run -----------------------------------------------


@dataclass
class GRReport:
    module: Rep
    measure: Measure
    gr_submodule: SubrepWitness
    submodule_defect: int
    quotient_dims: tuple[int, ...]
    quotient_defect: int
    hom_qp: int
    hom_pq: int
    ext_pq: int
    ext_qp: int

    def to_json(self) -> dict:
        return {
            "measure": list(self.measure),
            "gr_submodule": {
                "dims": list(self.gr_submodule.dims),
                "defect": self.submodule_defect,
            },
            "quotient": {
                "dims": list(self.quotient_dims),
                "defect": self.quotient_defect,
            },
            "kronecker_pair": {
                "hom_qp": self.hom_qp,
                "hom_pq": self.hom_pq,
                "ext_pq": self.ext_pq,
                "ext_qp": self.ext_qp,
            },
        }


def verify_main_theorem(Q: Quiver, F: Field) -> GRReport:
    """Build one homogeneous module R, find its best submodule chain, and
    check the endpoint: the chain submodule P has defect -1, R/P is an
    indecomposable preinjective of defect 1, and the pair (R/P, P) has
    Hom and Ext vanishing except for a two-dimensional Ext(R/P, P)."""
    if not is_affine(Q):
        raise InvalidInputError("verification needs an affine quiver")
    delta = radical_delta(Q)
    if sum(delta) > MAX_AMBIENT:
        raise InvalidInputError(f"radical length {sum(delta)} above supported {MAX_AMBIENT}")
    if F.q > MAX_FIELD or F.q < 3:
        raise InvalidInputError("verification supports 3 <= q <= 5")
    first = next(homogeneous_simples(Q, F), None)
    if first is None:
        raise InternalInconsistencyError(f"no homogeneous module over GF({F.q})")
    R = first[1]
    mu = gr_measure(R)
    wits = gr_submodules(R)
    if not wits:
        raise InternalInconsistencyError("homogeneous module with no chain submodule")
    P = wits[0]
    dP = defect(Q, P.dims)
    if dP != -1:
        raise VerificationError(f"chain submodule has defect {dP}, expected -1")
    qdims = P.quotient.dims
    dQt = defect(Q, qdims)
    if tits_form(Q, qdims) != 1 or end_dim(P.quotient) != 1:
        raise VerificationError(f"quotient {qdims} is not an indecomposable root module")
    if dQt != 1:
        raise VerificationError(f"quotient has defect {dQt}, expected 1")
    hom_qp = hom_dim(P.quotient, P.sub)
    hom_pq = hom_dim(P.sub, P.quotient)
    ext_pq = ext1_dim(P.sub, P.quotient)
    ext_qp = ext1_dim(P.quotient, P.sub)
    if hom_qp or hom_pq or ext_pq:
        raise VerificationError(
            f"pair has hom_qp={hom_qp} hom_pq={hom_pq} ext_pq={ext_pq}, expected all zero")
    if ext_qp != 2:
        raise VerificationError(f"ext(quotient, submodule) = {ext_qp}, expected 2")
    return GRReport(R, mu, P, dP, qdims, dQt, hom_qp, hom_pq, ext_pq, ext_qp)

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
that engine handles the larger sweeps.  It ranks the roots below dim M by
their (cached) measures and tests embeddings best first, so the first
root module that embeds gives the measure; roots whose Euler form with
dim M is not positive have Hom(X, M) = 0 there and are never tested.  The
two engines agree on their overlap, which the tests pin down.
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
from .gf import Field, rank
# Kept bound although unused: bench/test_bench_tracer.py expects hall and gr to share it.
from .homreg import build_homogeneous_simples  # noqa: F401
from .homreg import homogeneous_simples, is_simple_homogeneous
from .quiver import (
    Quiver,
    defect,
    euler_form,
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


def measure_key(I) -> tuple[int, ...]:
    """Sort key of the measure order: the indicator vector of I over
    1..max I.  Tuples compare at their first difference, which is the
    smallest element of the symmetric difference, and rank higher the side
    holding it, as `compare_measures` does.  When one vector is a proper
    prefix of the other, the longer one ends in 1, at its measure's largest
    element, which the shorter one lacks."""
    s = set(I)
    return tuple(int(k in s) for k in range(1, max(s, default=0) + 1))


def starts_with(I, J) -> bool:
    """True when J equals I or continues I using strictly larger elements."""
    a, b = as_measure(I), as_measure(J)
    if a == b:
        return True
    sa, sb = set(a), set(b)
    if not sa < sb:
        return False
    return not a or max(a) < min(sb - sa)


# -- root-combinatorics engine -----------------------------------------

@lru_cache(maxsize=None)
def _root_module(Q: Quiver, F: Field, x: tuple[int, ...]) -> Rep:
    return build_preprojective(Q, F, x)


@lru_cache(maxsize=None)
def _preproj_roots_inside(Q: Quiver, box: tuple[int, ...]) -> tuple:
    return tuple(x for x in positive_real_roots(Q, box) if defect(Q, x) < 0)


@lru_cache(maxsize=None)
def _root_measure(Q: Quiver, F: Field, x: tuple[int, ...]) -> Measure:
    """Measure of the preprojective indecomposable with root x."""
    return _measure_over_roots(_root_module(Q, F, x))


def _ranked_roots(M: Rep) -> list:
    """(d, measure of d) for every preprojective root d below dim M that
    can embed in M, best measure first; a stable sort keeps equal
    measures in the order of `_preproj_roots_inside`.

    A root d with <d, dim M> <= 0 is left out, as Hom(X, M) = 0 for its
    module X.  On the root engine's range, X preprojective and M a
    preprojective brick or a homogeneous module, Ext(X, M) = D Hom(M, tau X)
    (Auslander-Reiten formula).  It vanishes for M regular, and for M
    preprojective whenever Hom(X, M) does not, since X -> M -> tau X would
    be a cycle in the directed preprojective component (Ringel, LNM 1099,
    2.4; Assem-Simson-Skowronski, vol. 1, ch. VIII).  So
    hom(X, M) = max(<d, dim M>, 0)."""
    Q, F = M.quiver, M.field
    ranked = [(d, _root_measure(Q, F, d)) for d in _preproj_roots_inside(Q, M.dims)
              if d != M.dims and euler_form(Q, d, M.dims) > 0]
    ranked.sort(key=lambda r: measure_key(r[1]), reverse=True)
    return ranked


def _monomorphisms(M: Rep, d: tuple[int, ...]):
    """The scalar classes of monomorphisms from the module of root d into M."""
    X = _root_module(M.quiver, M.field, d)
    return injective_classes(M.field, X, hom_basis(X, M))


def _measure_over_roots(M: Rep) -> Measure:
    """Measure of M when every indecomposable submodule is known to be a
    preprojective root module: homogeneous modules and preprojective
    bricks on an affine quiver.  The first root in measure order whose
    module embeds gives it."""
    best = next((m for d, m in _ranked_roots(M)
                 if next(_monomorphisms(M, d), None) is not None), ())
    return best + (sum(M.dims),)


def _uses_root_engine(M: Rep) -> bool:
    """Reject a module outside the measure search's range; otherwise say
    whether the root engine handles it (else the exhaustive engine does)."""
    if sum(M.dims) == 0:
        raise InvalidInputError("the zero module has no measure")
    if sum(M.dims) > MAX_AMBIENT:
        raise InfeasibleEnumerationError(
            f"module length {sum(M.dims)} above supported {MAX_AMBIENT}",
            needed=sum(M.dims), budget=MAX_AMBIENT)
    if M.field.q > MAX_FIELD:
        raise InvalidInputError(f"measure search supports q <= {MAX_FIELD}")
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
    """(Q, q, dim M, hom(S_i, M) per i, hom(M, S_i) per i), an isomorphism
    invariant read off ranks.  With no loops, a map S_i -> M is a vector
    x in M_i with M_a x = 0 for every arrow a out of i (S_i is zero at the
    target), so hom(S_i, M) = n_i - rank of those maps stacked.  A map
    M -> S_i is a functional on M_i killing M_a y for every arrow a into i,
    so hom(M, S_i) = n_i - rank of those maps side by side."""
    Q, F = M.quiver, M.field
    ins, outs = [], []
    for i, n_i in enumerate(M.dims):
        out_maps = [M.mats[a] for a in Q.outgoing(i)]
        in_maps = [M.mats[a] for a in Q.incoming(i)]
        ins.append(n_i - rank(F, np.vstack([F.zeros(0, n_i)] + out_maps)))
        outs.append(n_i - rank(F, np.hstack([F.zeros(n_i, 0)] + in_maps)))
    return (Q, F.q, M.dims, tuple(ins), tuple(outs))


def is_indecomposable(M: Rep, budget: int = 2_000_000) -> bool:
    """No idempotent endomorphisms besides 0 and the identity."""
    if sum(M.dims) == 0:
        return False
    return _indecomposable_given_end(M, end_dim(M), budget)


def _indecomposable_given_end(M: Rep, e: int, budget: int = 2_000_000) -> bool:
    """is_indecomposable for a module M whose End(M) has dimension e
    (0 exactly when M is zero)."""
    if e <= 1:
        return e == 1
    # At a sink j, S_j = P_j is projective: when the arrows into j do not
    # span M_j, the onto map M -> top(M) -> S_j splits, and S_j is a proper
    # summand as e >= 2.  Dually (D M's arrows into j are the transposes of
    # M's arrows out of j), a common kernel of the arrows out of a source j
    # splits off S_j = I_j.
    Q, F = M.quiver, M.field
    for j, d in enumerate(M.dims):
        ins, outs = [M.mats[a] for a in Q.incoming(j)], [M.mats[a].T for a in Q.outgoing(j)]
        for span, other in ((ins, outs), (outs, ins)):
            if d and not other and rank(F, np.hstack([F.zeros(d, 0)] + span)) < d:
                return False
    basis = hom_basis(M, M)
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


def _measured_subreps(M: Rep, budget: int) -> list:
    """(spaces, U, gr measure of U) for every indecomposable proper
    submodule U of M, spaces its row bases: the candidates of the
    exhaustive engine, where the root engine ranks roots (`_ranked_roots`)."""
    out = []
    for spaces in enumerate_subreps(M, budget=budget):
        d = tuple(int(U.shape[0]) for U in spaces)
        if sum(d) == 0 or d == M.dims:
            continue
        U = sub_rep(M, spaces)
        if is_indecomposable(U):
            out.append((spaces, U, _rep_measure(U, budget)))
    return out


def _memo_lookup(M: Rep, budget: int):
    """(signature of M, the stored measure of a module isomorphic to M or None)."""
    sig = _probe_signature(M)
    for rep, value in _REP_MEMO.get(sig, ()):
        if is_isomorphic(rep, M, budget):
            return sig, value
    return sig, None


def _store_measure(M: Rep, sig, subs: list) -> Measure:
    """The measure of M from its `_measured_subreps`, stored under sig."""
    best = max_measure(m for _, _, m in subs) if subs else ()
    if is_indecomposable(M):
        out = best + (sum(M.dims),)
    else:
        if not best:
            raise InternalInconsistencyError(
                "nonzero decomposable module with no indecomposable submodule")
        out = best
    _REP_MEMO.setdefault(sig, []).append((M, out))
    return out


def _rep_measure(M: Rep, budget: int) -> Measure:
    sig, value = _memo_lookup(M, budget)
    if value is None:
        value = _store_measure(M, sig, _measured_subreps(M, budget))
    return value


# -- public measure API -------------------------------------------------


def gr_measure(M: Rep, budget: int = 2_000_000) -> Measure:
    """Best chain of indecomposable submodules of M, as the increasing
    tuple of their lengths."""
    if _uses_root_engine(M):
        return _measure_over_roots(M)
    return _rep_measure(M, budget)


def gr_submodules(M: Rep, budget: int = 2_000_000) -> list[SubrepWitness]:
    """All indecomposable submodules X with gr_measure(M) equal to
    gr_measure(X) extended by the length of M."""
    return _measure_and_submodules(M, budget)[1]


def _measure_and_submodules(M: Rep, budget: int = 2_000_000) -> tuple[Measure, list]:
    """(gr_measure(M), gr_submodules(M)), from one root pass on the root engine."""
    Q, F = M.quiver, M.field
    out = []
    if _uses_root_engine(M):
        # Roots come best measure first: the first one that embeds fixes the
        # measure, and the scan ends at the next smaller measure.
        target, seen = None, set()
        for d, m in _ranked_roots(M):
            if target is not None and m != target:
                break
            for phi in _monomorphisms(M, d):
                target = m
                spaces = morphism_image(F, phi)
                key = tuple(U.tobytes() for U in spaces)
                if key in seen:
                    raise InternalInconsistencyError(
                        "distinct monomorphism classes share an image")
                seen.add(key)
                out.append(subrep_witness(M, spaces))
        measure = (target or ()) + (sum(M.dims),)
    else:
        sig, measure = _memo_lookup(M, budget)
        # A decomposable M has a measure that stops short of its length,
        # so no submodule's measure extends to it: one scan of the
        # submodules gives both the measure and the witnesses.
        if measure is None or measure[-1] == sum(M.dims):
            subs = _measured_subreps(M, budget)
            if measure is None:
                measure = _store_measure(M, sig, subs)
            out = [subrep_witness(M, spaces) for spaces, _, m in subs
                   if m + (sum(M.dims),) == measure]
    for w in out:
        if tits_form(Q, w.quotient.dims) == 1 and end_dim(w.quotient) != 1:
            raise InternalInconsistencyError(
                "quotient of a GR inclusion has root dimensions but is decomposable")
    return measure, out


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
    e = end_dim(X)
    if not _indecomposable_given_end(X, e) or not is_indecomposable(Y):
        raise InvalidInputError("count report needs indecomposable modules")
    F = X.field
    q = F.q
    basis = hom_basis(X, Y)
    h = len(basis)
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
    mu, wits = _measure_and_submodules(R)
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

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
that engine handles the larger sweeps.  It ranks the roots below dim M
(read off the Coxeter orbits of the projectives) by their cached measures
and tests embeddings best first, so the first root module that embeds
gives the measure; roots whose Euler form with dim M is not positive
have Hom(X, M) = 0 there and are never tested.  The two engines agree on
their overlap, which the tests pin down.

The exhaustive engine keeps only the indecomposable submodules.  A module
is decided indecomposable by one count: End(M) is local exactly when its
non-invertible elements number a power of q, and that power is then
q^(dim rad End M), which the submodule count report reads too.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    DEFAULT_BUDGET,
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
    preprojective_roots,
    radical_delta,
    tits_form,
)
from .reps import (
    Rep,
    SubrepWitness,
    dual,
    end_dim,
    enumerate_subreps,
    ext1_dim,
    hom_basis,
    hom_dim,
    injective_classes,
    is_brick,
    is_injective_morphism,
    is_isomorphic,
    morphism_image,
    quotient_rep,
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


def measure_key(I) -> tuple[int, ...]:
    """Sort key of the measure order: the indicator vector of I over
    1..max I.  Tuples compare at their first difference, which is the
    smallest element of the symmetric difference, and rank higher the side
    holding it.  When one vector is a proper prefix of the other, the
    longer one ends in 1, at its measure's largest element, which the
    shorter one lacks."""
    s = set(I)
    return tuple(int(k in s) for k in range(1, max(s, default=0) + 1))


def compare_measures(I, J) -> str:
    """Total order on measures: smaller when the smallest element of the
    symmetric difference belongs to the other set."""
    a, b = measure_key(as_measure(I)), measure_key(as_measure(J))
    return "=" if a == b else "<" if a < b else ">"


def measure_less(I, J) -> bool:
    return compare_measures(I, J) == "<"


def max_measure(measures) -> Measure:
    measures = [as_measure(m) for m in measures]
    if not measures:
        raise InvalidInputError("empty measure collection")
    return max(measures, key=measure_key)


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
def _root_measure(Q: Quiver, F: Field, x: tuple[int, ...]) -> Measure:
    """Measure of the preprojective indecomposable with root x."""
    return _measure_over_roots(_root_module(Q, F, x))


def _ranked_roots(M: Rep) -> list:
    """(d, measure of d) for every preprojective root d below dim M that
    can embed in M, best measure first; a stable sort keeps equal
    measures in lexicographic order.  The roots are read off
    `preprojective_roots` for the least m with dim M <= m delta.

    A root d with <d, dim M> <= 0 is left out, as Hom(X, M) = 0 for its
    module X.  On the root engine's range, X preprojective and M a
    preprojective brick or a homogeneous module, Ext(X, M) = D Hom(M, tau X)
    (Auslander-Reiten formula).  It vanishes for M regular, and for M
    preprojective whenever Hom(X, M) does not, since X -> M -> tau X would
    be a cycle in the directed preprojective component (Ringel, LNM 1099,
    2.4; Assem-Simson-Skowronski, vol. 1, ch. VIII).  So
    hom(X, M) = max(<d, dim M>, 0)."""
    Q, F = M.quiver, M.field
    m = max(-(-a // b) for a, b in zip(M.dims, radical_delta(Q)))
    ranked = [(d, _root_measure(Q, F, d)) for d in preprojective_roots(Q, m)
              if d != M.dims and all(a <= b for a, b in zip(d, M.dims))
              and euler_form(Q, d, M.dims) > 0]
    ranked.sort(key=lambda r: measure_key(r[1]), reverse=True)
    return ranked


def _best_embeddings(M: Rep):
    """Yield (measure, phi) for every scalar class of monomorphisms phi
    from a root module into M whose measure is the best of the roots that
    embed.  Roots come best measure first: the first one that embeds fixes
    the measure, and the scan ends at the next smaller measure."""
    Q, F = M.quiver, M.field
    target = None
    for d, m in _ranked_roots(M):
        if target is not None and m != target:
            return
        X = _root_module(Q, F, d)
        for phi in injective_classes(F, X, hom_basis(X, M)):
            target = m
            yield m, phi


def _measure_over_roots(M: Rep) -> Measure:
    """Measure of M when every indecomposable submodule is known to be a
    preprojective root module: homogeneous modules and preprojective
    bricks on an affine quiver."""
    best, _ = next(_best_embeddings(M), ((), None))
    return best + (sum(M.dims),)


def _uses_root_engine(M: Rep) -> bool:
    """Reject a module outside the measure search's range; otherwise say
    whether the root engine handles it.  Else the exhaustive engine does,
    and as only it enumerates submodules, only it has a length cap."""
    n = sum(M.dims)
    if n == 0:
        raise InvalidInputError("the zero module has no measure")
    if M.field.q > MAX_FIELD:
        raise InvalidInputError(f"measure search supports q <= {MAX_FIELD}")
    Q = M.quiver
    root = is_affine(Q) and (
        is_simple_homogeneous(M) if M.dims == radical_delta(Q)
        else tits_form(Q, M.dims) == 1 and defect(Q, M.dims) < 0 and is_brick(M))
    if not root and n > MAX_AMBIENT:
        raise InfeasibleEnumerationError(
            f"module length {n} above supported {MAX_AMBIENT}", needed=n, budget=MAX_AMBIENT)
    return root


# -- exhaustive engine --------------------------------------------------

# key -> [module, measure, smallest budget it was computed under], one
# entry per isomorphism class.  A brick whose dimension vector x has
# <x, x> = 1 is rigid, so x alone names its class: its key is (Q, q, x),
# with one entry and no isomorphism test.  Every other module is keyed by
# its `_probe_signature`, and its class is found among the entries there
# by `is_isomorphic`.
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


def _singular_power(F: Field, X: Rep, basis: list, budget: int) -> int | None:
    """k when q^k combinations of the Hom(X, -) basis are not injective at
    every vertex, else None.  A nonzero combination is non-injective
    exactly when its whole scalar class is, so the count is q^(len basis)
    less q - 1 per injective class."""
    count = F.q ** len(basis) - (F.q - 1) * sum(1 for _ in injective_classes(F, X, basis, budget))
    k = 0
    while F.q ** k < count:
        k += 1
    return k if F.q ** k == count else None


def _nilpotent(F: Field, phi) -> bool:
    """phi^(2^k) = 0 at every vertex, with 2^k above the vertex dimension."""
    for p in phi:
        for _ in range(p.shape[0].bit_length()):
            p = F.matmul(p, p)
        if p.any():
            return False
    return True


def _local_radical(M: Rep, budget: int) -> tuple[int, int | None]:
    """(e, r) with e = dim End(M), and r = dim rad End(M) when End(M) is
    local, that is when M is indecomposable (Fitting), else None.

    The units of A = End(M) are the endomorphisms injective at every
    vertex, so `_singular_power` counts the non-units.  A is local exactly
    when they number a power of q, and that power is then q^r.  Proof:
    write A/rad A = prod_i M_{n_i}(GF(q^{f_i})) (Wedderburn).  As
    |GL_n(GF(Q))| = Q^(n(n-1)/2) prod_{k=1..n} (Q^k - 1), the non-units
    number q^(r+c) T with T = q^N - prod_t (q^{a_t} - 1), a product of
    sum_i n_i factors with a_t >= 1 summing to N.  T = +-1 mod q is prime
    to q.  One factor (A/rad A a field) gives c = 0 and T = 1; two or more
    give T >= q^{a_1} + q^(N - a_1) - 1 > 1."""
    if sum(M.dims) == 0:
        return 0, None
    e = end_dim(M)
    if e == 1:
        return e, 0
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
                return e, None
    if F.q ** e > budget:
        raise InfeasibleEnumerationError(
            f"{F.q}^{e} endomorphisms exceed budget", needed=F.q ** e, budget=budget)
    basis = hom_basis(M, M)
    # Every element of a local ring is a unit or nilpotent: a basis element
    # that is neither (a projection onto a summand, say) ends the test early.
    if any(not is_injective_morphism(F, M, phi) and not _nilpotent(F, phi) for phi in basis):
        return e, None
    return e, _singular_power(F, M, basis, budget)


def is_indecomposable(M: Rep, budget: int = DEFAULT_BUDGET) -> bool:
    """M is nonzero and End(M) is local (see `_local_radical`)."""
    return _local_radical(M, budget)[1] is not None


def _rep_measure(M: Rep, budget: int, witnesses: list | None = None,
                 local: tuple[int, int | None] | None = None) -> Measure:
    """The measure of M on the exhaustive engine: from the memo, which
    keeps one module per isomorphism class (see `_REP_MEMO` for its two
    kinds of key), or else from one scan of the indecomposable proper
    submodules of M, whose measures this computes in turn, and stored.
    With a list `witnesses`, append the row bases of every indecomposable
    submodule whose measure extends to M's.  A decomposable M has a
    measure that stops short of its length, so it has none, and a memo hit
    scans nothing for it.  `local` is `_local_radical(M)` when the caller
    has it, as the submodule scan does; else End(M) is computed here only
    when <dim M, dim M> = 1 asks whether M is a brick.

    An entry also keeps the smallest budget its measure was computed
    under, and serves only a budget at least that large.  A smaller one
    computes afresh: refusal grows as the budget falls, so a call refuses
    exactly when it would in a fresh process."""
    n = sum(M.dims)
    Q = M.quiver
    rigid = tits_form(Q, M.dims) == 1 and (end_dim(M) if local is None else local[0]) == 1
    key = (Q, M.field.q, M.dims) if rigid else _probe_signature(M)
    entries = _REP_MEMO.get(key, ())
    entry = next((e for e in entries if rigid or is_isomorphic(e[0], M, budget)), None)
    measure = entry[1] if entry is not None and entry[2] <= budget else None
    if measure is not None and (witnesses is None or measure[-1] != n):
        return measure
    subs = []
    for spaces in enumerate_subreps(M, budget=budget):
        d = sum(U.shape[0] for U in spaces)
        if 0 < d < n:
            U = sub_rep(M, spaces)
            local_U = _local_radical(U, budget)
            if local_U[1] is not None:
                subs.append((spaces, _rep_measure(U, budget, local=local_U)))
    if measure is None:
        best = max_measure(m for _, m in subs) if subs else ()
        if rigid or (local or _local_radical(M, budget))[1] is not None:
            measure = best + (n,)
        elif not best:
            raise InternalInconsistencyError(
                "nonzero decomposable module with no indecomposable submodule")
        else:
            measure = best
        if entry is None:
            _REP_MEMO.setdefault(key, []).append([M, measure, budget])
        else:
            entry[2] = budget
    if witnesses is not None:
        witnesses.extend(spaces for spaces, m in subs if m + (n,) == measure)
    return measure


# -- public measure API -------------------------------------------------


def gr_measure(M: Rep, budget: int = DEFAULT_BUDGET) -> Measure:
    """Best chain of indecomposable submodules of M, as the increasing
    tuple of their lengths."""
    if _uses_root_engine(M):
        return _measure_over_roots(M)
    return _rep_measure(M, budget)


def gr_submodules(M: Rep, budget: int = DEFAULT_BUDGET) -> list[SubrepWitness]:
    """All indecomposable submodules X with gr_measure(M) equal to
    gr_measure(X) extended by the length of M."""
    return _measure_and_submodules(M, budget)[1]


def _measure_and_submodules(M: Rep, budget: int = DEFAULT_BUDGET) -> tuple[Measure, list]:
    """(gr_measure(M), gr_submodules(M)), from one root pass on the root
    engine and one submodule scan on the exhaustive one."""
    Q, F = M.quiver, M.field
    if _uses_root_engine(M):
        best, images, seen = (), [], set()
        for best, phi in _best_embeddings(M):
            spaces = morphism_image(F, phi)
            key = tuple(U.tobytes() for U in spaces)
            if key in seen:
                raise InternalInconsistencyError(
                    "distinct monomorphism classes share an image")
            seen.add(key)
            images.append(spaces)
        measure = best + (sum(M.dims),)
    else:
        images = []
        measure = _rep_measure(M, budget, images)
    out = [subrep_witness(M, spaces) for spaces in images]
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


def _count_copies(X: Rep, Y: Rep, budget: int) -> int:
    """The number of submodules U of Y with U isomorphic to X, counted on
    the k-dual DY, a representation of Q^op.  U -> U^perp is a bijection
    from the subreps of Y of dimension d onto those of DY of dimension
    dim Y - d, and DY/U^perp = DU, so U = X exactly when DY/U^perp = DX.
    `enumerate_subreps` fixes the sinks of its quiver first, and those of
    Q^op are the sources of Q: on the D~4 presets, whose centre is the
    only sink, the walk chooses at the leaves instead of the centre and
    meets far fewer dead ends.  Its budget estimate is the one on Y, as
    [n choose d]_q = [n choose n - d]_q."""
    DY, DX = dual(Y), dual(X)
    co = tuple(n - d for n, d in zip(Y.dims, X.dims))
    return sum(is_isomorphic(quotient_rep(DY, spaces), DX, budget)
               for spaces in enumerate_subreps(DY, budget=budget, dims=co))


def count_submodules_report(X: Rep, Y: Rep, budget: int = DEFAULT_BUDGET) -> SubmoduleCountReport:
    """Count the submodules of Y isomorphic to X twice: directly, on the
    dual of Y (`_count_copies`), and via q^(s-r) (q^(h-s) - 1) / (q^(e-r) - 1)
    from the sizes of the singular set and the radical.  Both counts must
    agree."""
    if X.quiver != Y.quiver or X.field != Y.field:
        raise InvalidInputError("modules must share a quiver and field")
    e, r = _local_radical(X, budget)
    if r is None or not is_indecomposable(Y, budget):
        raise InvalidInputError("count report needs indecomposable modules")
    F = X.field
    q = F.q
    basis = hom_basis(X, Y)
    h = len(basis)
    if q ** h > budget or q ** e > budget:
        raise InfeasibleEnumerationError(
            "hom or endomorphism space too large to enumerate",
            needed=max(q ** h, q ** e), budget=budget)
    s = _singular_power(F, X, basis, budget)
    u_brute = _count_copies(X, Y, budget)
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
    """Check Chen's theorem, which the paper extends to E~8 and to every
    field, on the first homogeneous simple R of the lazy scan: the GR
    submodule P at the end of its best chain has defect -1, R/P is an
    indecomposable preinjective of defect 1, and the pair (R/P, P) has
    Hom and Ext vanishing except for a two-dimensional Ext(R/P, P).
    Checked for 3 <= q <= 5: GF(2) has no homogeneous simple on the D~
    and E~ presets, and the measure search refuses q > 5."""
    if F.q < 3:
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
    if tits_form(Q, qdims) != 1:
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

"""Quivers, underlying-graph classification, Euler/Tits forms and root
combinatorics.

Vertices are 0-indexed throughout the library; parsing and formatting are
the only places that speak the 1-indexed external convention.  A Quiver is
immutable and hashable, so derived data (delta, Coxeter matrices) can be
cached per quiver.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm, prod

import numpy as np

from .errors import (
    InfeasibleEnumerationError,
    InternalInconsistencyError,
    InvalidInputError,
    QuiverStructureError,
    QuiverSyntaxError,
)
from .gf import rational_rref

DimVector = tuple[int, ...]


@dataclass(frozen=True)
class Quiver:
    """Finite connected acyclic quiver without loops."""

    n: int
    arrows: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 1:
            raise QuiverStructureError("quiver needs at least one vertex", code="empty")
        for s, t in self.arrows:
            if not (0 <= s < self.n and 0 <= t < self.n):
                raise QuiverStructureError(f"arrow ({s},{t}) out of range", code="range")
            if s == t:
                raise QuiverStructureError(f"loop at vertex {s}", code="loop")
        admissible_sink_order(self)
        self._check_connected()

    def _check_connected(self):
        if -1 in _breadth_first(self, 0)[0]:
            raise QuiverStructureError("underlying graph is disconnected", code="disconnected")

    # -- local structure ------------------------------------------------

    def incoming(self, i: int) -> tuple[int, ...]:
        """Indices into `arrows` of the arrows ending at i."""
        return tuple(a for a, (s, t) in enumerate(self.arrows) if t == i)

    def outgoing(self, i: int) -> tuple[int, ...]:
        return tuple(a for a, (s, t) in enumerate(self.arrows) if s == i)

    def _check_vertex(self, i: int) -> None:
        if not 0 <= i < self.n:
            raise InvalidInputError(f"vertex {i} is not in 0..{self.n - 1}")

    def is_sink(self, i: int) -> bool:
        self._check_vertex(i)
        return not self.outgoing(i)

    def is_source(self, i: int) -> bool:
        self._check_vertex(i)
        return not self.incoming(i)

    def sinks(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.n) if self.is_sink(v))

    def underlying_edges(self) -> tuple[tuple[int, int], ...]:
        """Undirected edge multiset, endpoints sorted."""
        return tuple(tuple(sorted((s, t))) for s, t in self.arrows)

    def is_tree(self) -> bool:
        return len(self.arrows) == self.n - 1 and len(set(self.underlying_edges())) == len(self.arrows)


@lru_cache(maxsize=None)
def sigma_reverse(Q: Quiver, i: int) -> Quiver:
    """Reverse every arrow incident to vertex i.  Requires i to be a sink
    or a source, so the result is again acyclic.

    Cached: reflection sweeps revisit the same few quivers thousands of
    times.  A rejected vertex raises on every call, since the cache keeps
    no exceptions."""
    if not (Q.is_sink(i) or Q.is_source(i)):
        raise InvalidInputError(f"vertex {i} is neither a sink nor a source")
    arrows = tuple((t, s) if s == i or t == i else (s, t) for s, t in Q.arrows)
    return Quiver(Q.n, arrows)


@lru_cache(maxsize=None)
def opposite(Q: Quiver) -> Quiver:
    """The opposite quiver: arrow a of Q, reversed, is arrow a of Q^op.
    Its sinks are the sources of Q, so each minus-side construction is
    the plus-side one on Q^op, read back through the k-dual."""
    return Quiver(Q.n, tuple((t, s) for s, t in Q.arrows))


@lru_cache(maxsize=None)
def admissible_sink_order(Q: Quiver) -> tuple[int, ...]:
    """Ordering of the vertices in which each vertex is a sink of the
    subquiver on the vertices not yet taken; ties broken by smallest index.

    Reversing at a vertex already taken only flips the arrows incident to
    it, so the arrows among the remaining vertices are still Q's own and
    each vertex is a sink of the reflected quiver at its turn.  Such an
    order exists exactly when Q has no oriented cycle, so the quiver
    constructor takes its acyclicity check from here.  Cached, as every
    construction of an equal quiver asks again; a cycle raises on every
    call, since the cache keeps no exceptions.
    """
    remaining = set(range(Q.n))
    targets = {v: {t for s, t in Q.arrows if s == v} for v in remaining}
    order = []
    while remaining:
        sink = min((v for v in remaining if not targets[v] & remaining), default=None)
        if sink is None:
            raise QuiverStructureError("quiver has an oriented cycle", code="cycle")
        order.append(sink)
        remaining.discard(sink)
    return tuple(order)


# -- classification ----------------------------------------------------


@dataclass(frozen=True)
class GraphClass:
    family: str          # 'A', 'D', 'E' or 'other'
    rank: int            # subscript of the symbol; 0 for 'other'
    affine: bool

    @property
    def symbol(self) -> str:
        if self.family == "other":
            return "other"
        tilde = "~" if self.affine else ""
        return f"{self.family}{tilde}{self.rank}"


def _arm_lengths(adj: dict[int, list[int]], branch: int) -> list[int]:
    lengths = []
    for first in adj[branch]:
        ln = 1
        prev, cur = branch, first
        while len(adj[cur]) == 2:
            nxt = adj[cur][0] if adj[cur][0] != prev else adj[cur][1]
            prev, cur = cur, nxt
            ln += 1
        lengths.append(ln)
    return sorted(lengths)


def classify_graph(Q: Quiver) -> GraphClass:
    """Underlying-diagram type: Dynkin A/D/E, affine A~/D~/E~, or other."""
    n = Q.n
    edges = Q.underlying_edges()
    m = len(edges)
    if n == 1 and m == 0:
        return GraphClass("A", 1, False)
    multi = len(set(edges)) != m
    if multi:
        if n == 2 and m == 2 and len(set(edges)) == 1:
            return GraphClass("A", 1, True)
        return GraphClass("other", 0, False)
    adj: dict[int, list[int]] = {v: [] for v in range(n)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    degs = sorted(len(adj[v]) for v in range(n))
    if m == n - 1:
        branch = [v for v in range(n) if len(adj[v]) >= 3]
        if not branch:
            return GraphClass("A", n, False)
        if len(branch) == 1:
            b = branch[0]
            if len(adj[b]) == 4:
                if _arm_lengths(adj, b) == [1, 1, 1, 1]:
                    return GraphClass("D", 4, True)
                return GraphClass("other", 0, False)
            if len(adj[b]) > 4:
                return GraphClass("other", 0, False)
            arms = _arm_lengths(adj, b)
            if arms[:2] == [1, 1]:
                return GraphClass("D", arms[2] + 3, False)
            if arms == [1, 2, 2]:
                return GraphClass("E", 6, False)
            if arms == [1, 2, 3]:
                return GraphClass("E", 7, False)
            if arms == [1, 2, 4]:
                return GraphClass("E", 8, False)
            if arms == [2, 2, 2]:
                return GraphClass("E", 6, True)
            if arms == [1, 3, 3]:
                return GraphClass("E", 7, True)
            if arms == [1, 2, 5]:
                return GraphClass("E", 8, True)
            return GraphClass("other", 0, False)
        if len(branch) == 2 and all(len(adj[b]) == 3 for b in branch):
            leaves_ok = all(
                sum(1 for w in adj[b] if len(adj[w]) == 1) >= 2 for b in branch)
            if leaves_ok and degs.count(1) == 4:
                return GraphClass("D", n - 1, True)
        return GraphClass("other", 0, False)
    if m == n and degs == [2] * n:
        return GraphClass("A", n - 1, True)
    return GraphClass("other", 0, False)


def is_affine(Q: Quiver) -> bool:
    return classify_graph(Q).affine


# -- bilinear forms and roots ------------------------------------------


def euler_form(Q: Quiver, a, b) -> int:
    """Arrow-wise Euler form <a, b>."""
    total = sum(int(ai) * int(bi) for ai, bi in zip(a, b))
    for s, t in Q.arrows:
        total -= int(a[s]) * int(b[t])
    return total


def tits_form(Q: Quiver, a) -> int:
    return euler_form(Q, a, a)


@lru_cache(maxsize=None)
def radical_delta(Q: Quiver) -> DimVector:
    """Positive integer generator of the radical of the symmetrised Euler
    form.  Defined exactly for affine quivers.  The symmetrised form does
    not see orientation, so the generator is computed once per underlying
    graph; the cache per quiver keeps a repeated call to one lookup."""
    return _graph_radical(Q.n, tuple(sorted(Q.underlying_edges())))


@lru_cache(maxsize=None)
def _graph_radical(n: int, edges: tuple[tuple[int, int], ...]) -> DimVector:
    rows = [[2 * (i == j) for j in range(n)] for i in range(n)]
    for s, t in edges:
        rows[s][t] -= 1
        rows[t][s] -= 1
    R, pivots = rational_rref(rows)
    free = [c for c in range(n) if c not in pivots]
    if len(free) != 1:
        raise InvalidInputError(
            f"quiver is not affine (radical dimension {len(free)})")
    f = free[0]
    vec = [0] * n
    vec[f] = 1
    for row, c in zip(R, pivots):
        vec[c] = -row[f]
    scale = lcm(*(x.denominator for x in vec))
    ints = [x.numerator * (scale // x.denominator) for x in vec]
    g = gcd(*ints)
    ints = [x // g for x in ints]
    if all(x <= 0 for x in ints):
        ints = [-x for x in ints]
    if not all(x > 0 for x in ints):
        raise InternalInconsistencyError("radical generator is not positive")
    for i in range(n):
        if sum(rows[i][j] * ints[j] for j in range(n)) != 0:
            raise InternalInconsistencyError("radical generator check failed")
    return tuple(ints)


def defect(Q: Quiver, x) -> int:
    """<delta, x>; negative on preprojectives, positive on preinjectives."""
    return euler_form(Q, radical_delta(Q), x)


def positive_real_roots(Q: Quiver, bound, budget: int = 5_000_000) -> list[DimVector]:
    """All x with 0 < x <= bound componentwise and Tits form 1, sorted
    lexicographically."""
    bound = tuple(int(b) for b in bound)
    if len(bound) != Q.n or any(b < 0 for b in bound):
        raise InvalidInputError("bound must be a nonnegative vector of length n")
    total = prod(b + 1 for b in bound)
    if total > budget:
        raise InfeasibleEnumerationError(
            f"box of size >{budget} in positive_real_roots", needed=total, budget=budget)
    grids = np.meshgrid(*[np.arange(b + 1) for b in bound], indexing="ij")
    X = np.stack([g.reshape(-1) for g in grids], axis=1).astype(np.int64)
    q = (X * X).sum(axis=1)
    for s, t in Q.arrows:
        q -= X[:, s] * X[:, t]
    mask = (q == 1) & (X.sum(axis=1) > 0)
    roots = [tuple(int(v) for v in row) for row in X[mask]]
    roots.sort()
    return roots


def _reflection_matrix(Q: Quiver, i: int) -> np.ndarray:
    S = np.eye(Q.n, dtype=np.int64)
    S[i, i] = -1
    for u, v in Q.arrows:
        if u == i:
            S[i, v] += 1
        elif v == i:
            S[i, u] += 1
    return S


@lru_cache(maxsize=None)
def coxeter_matrix(Q: Quiver) -> np.ndarray:
    """Phi with dim tau(M) = Phi @ dim M: the product of the simple
    reflections along the admissible sink order of Q, first one
    rightmost."""
    Phi = np.eye(Q.n, dtype=np.int64)
    for i in admissible_sink_order(Q):
        Phi = _reflection_matrix(Q, i) @ Phi
    Phi.setflags(write=False)
    return Phi


def coxeter_inverse(Q: Quiver) -> np.ndarray:
    """Phi^-1 with dim tau^-(M) = Phi^-1 @ dim M: the Coxeter matrix of
    Q^op, since the reflections only see the underlying graph and the
    sink order of Q^op is a source order of Q."""
    return coxeter_matrix(opposite(Q))


def injective_dims(Q: Quiver) -> tuple[DimVector, ...]:
    """dim I_j for each vertex j: its entry at v counts the paths from v
    to j, summed over the arrows out of v.  The admissible sink order
    takes every target of v before v."""
    paths: list[list[int]] = [[] for _ in range(Q.n)]
    for v in admissible_sink_order(Q):
        paths[v] = [int(j == v) for j in range(Q.n)]
        for s, t in Q.arrows:
            if s == v:
                paths[v] = [a + b for a, b in zip(paths[v], paths[t])]
    return tuple(tuple(paths[v][j] for v in range(Q.n)) for j in range(Q.n))


def injective_walk(Q: Quiver, x) -> tuple[int, int] | None:
    """(j, r) with Phi^-r x = dim I_j: Phi^-1 applied to x until it is
    the dimension vector of an injective.  None when the walk leaves the
    positive cone first or takes more than sum(x) + 4n steps, so x is not
    preinjective.  On Q^op the walk applies Phi of Q and ends at dim P_j
    of Q, the vertex a preprojective root x of Q reflects to."""
    known = {d: j for j, d in enumerate(injective_dims(Q))}
    step = coxeter_inverse(Q)
    y, r = np.array(x, dtype=np.int64), 0
    while tuple(y) not in known:
        y, r = step @ y, r + 1
        if (y < 0).any() or not y.any() or r > sum(x) + 4 * Q.n:
            return None
    return known[tuple(y)], r


@lru_cache(maxsize=None)
def preprojective_roots(Q: Quiver, m: int) -> tuple[DimVector, ...]:
    """The x <= m delta that `injective_walk(opposite(Q), x)` accepts,
    sorted: on an affine quiver, the preprojective roots below m delta,
    whose modules `functors.build_preprojective` builds.

    They are read off the orbits Phi^-r dim P_j (Dlab-Ringel, Mem. AMS
    173, 1976), dim P_j being dim I_j of Q^op, walked while positive and
    r <= m |delta| + 4n: x = Phi^-r dim P_j is kept when x <= m delta and
    r <= |x| + 4n.  The walk from x applies Phi, the Phi^-1 of Q^op, and
    accepts x when Phi^s x is positive for 0 < s <= r, Phi^r x = dim P_j
    and r <= |x| + 4n.  As Phi is invertible, Phi^s x = Phi^-(r-s) dim P_j:
    the walk and the orbit pass through the same vectors with the same
    positivity test and bound on r, which |x| <= m |delta| keeps inside
    the orbit's.  So x is kept exactly when the walk accepts it; a walk
    that meets a dim P_k first accepts an x kept on the orbit of P_k."""
    delta, n = radical_delta(Q), Q.n
    Y = np.array(injective_dims(opposite(Q)), dtype=np.int64).T    # column j: Phi^-r dim P_j
    alive = np.ones(n, dtype=bool)                                  # orbit j positive so far
    found = set()
    for r in range(m * sum(delta) + 4 * n + 1):
        keep = alive & (Y.T <= np.multiply(m, delta)).all(axis=1) & (r <= Y.sum(axis=0) + 4 * n)
        found.update(tuple(int(v) for v in x) for x in Y.T[keep])
        Y = coxeter_inverse(Q) @ Y
        alive &= (Y >= 0).all(axis=0) & Y.any(axis=0)
    return tuple(sorted(found))


# -- reorientation and sink words --------------------------------------


def _breadth_first(Q: Quiver, root: int) -> tuple[list[int], list[int]]:
    """One breadth-first pass from root: each vertex's distance (-1 when
    unreached) and height, 0 at root and dropping by 1 along each arrow
    the pass crosses, so along every arrow of a tree or the double edge."""
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in range(Q.n)}
    for s, t in Q.arrows:
        adj[s].append((t, -1))
        adj[t].append((s, 1))
    dist, height = [-1] * Q.n, [0] * Q.n
    dist[root] = 0
    frontier = [root]
    while frontier:
        nxt = []
        for v in frontier:
            for w, step in adj[v]:
                if dist[w] < 0:
                    dist[w], height[w] = dist[v] + 1, height[v] + step
                    nxt.append(w)
        frontier = nxt
    return dist, height


def _check_tree(Q: Quiver) -> None:
    if not (Q.is_tree() or (Q.n == 2 and len(Q.arrows) == 2)):
        raise InvalidInputError("reorientation requires a tree (or the 2-vertex double edge)")


def reorient_toward(Q: Quiver, sink: int) -> Quiver:
    """Orient every underlying edge toward `sink` along the unique path.
    Valid for trees and for the double edge on two vertices."""
    Q._check_vertex(sink)
    _check_tree(Q)
    dist = _breadth_first(Q, sink)[0]
    return Quiver(Q.n, tuple((s, t) if dist[s] > dist[t] else (t, s) for s, t in Q.arrows))


@lru_cache(maxsize=None)
def sink_sequence_to(Q: Quiver, i: int) -> tuple[int, ...]:
    """Word of sink reflections turning the tree (or double edge) Q into
    its all-arrows-toward-i orientation.

    One breadth-first pass from i gives each vertex v its distance d(v)
    and its height h(v), which drops by 1 along every arrow, h(i) = 0; the
    target is the orientation with h = d.  A sink reflection at v raises
    h(v) by 2 and no other height; h(v) has the parity of d(v) and
    |h(v)| <= d(v), so v owes (d(v) - h(v)) / 2 reflections.  The word
    reflects at the smallest sink that owes one while any vertex owes.  An
    owing v of least height is a sink: an arrow v -> w would give
    h(w) = h(v) - 1, so w owes nothing by minimality and then
    h(v) = d(w) + 1 >= d(v).  The vertex i owes nothing, nor, when i is a
    sink, do its neighbours, so the word never reflects at them."""
    Q._check_vertex(i)
    _check_tree(Q)
    dist, height = _breadth_first(Q, i)
    owed = [(d - h) // 2 for d, h in zip(dist, height)]
    cur, word = Q, []
    while any(owed):
        v = min(v for v in cur.sinks() if owed[v])
        cur = sigma_reverse(cur, v)
        owed[v] -= 1
        word.append(v)
    return tuple(word)


# -- presets and text format -------------------------------------------

_PRESET_HELP = "kronecker, a:<n>, d:<n>, e:<6|7|8>, dtilde:<n>, e6tilde, e7tilde, e8tilde"


def _preset_edges(name: str) -> tuple[int, list[tuple[int, int]], int]:
    """(vertex count, 1-indexed underlying edges, default sink)."""
    if name == "kronecker":
        return 2, [(1, 2), (1, 2)], 2
    if name == "e6tilde":
        return 7, [(1, 2), (2, 3), (1, 4), (4, 5), (1, 6), (6, 7)], 1
    if name == "e7tilde":
        return 8, [(i, i + 1) for i in range(1, 7)] + [(4, 8)], 4
    if name == "e8tilde":
        return 9, [(i, i + 1) for i in range(1, 8)] + [(6, 9)], 6
    if ":" in name:
        fam, _, arg = name.partition(":")
        try:
            k = int(arg)
        except ValueError:
            raise InvalidInputError(f"bad preset argument {arg!r}; presets: {_PRESET_HELP}")
        if fam == "a" and k >= 1:
            return k, [(i, i + 1) for i in range(1, k)], k
        if fam == "d" and k >= 4:
            return k, [(1, 3), (2, 3)] + [(i, i + 1) for i in range(3, k)], k
        if fam == "e" and k in (6, 7, 8):
            return k, [(i, i + 1) for i in range(1, k - 1)] + [(3, k)], 3
        if fam == "dtilde" and k >= 4:
            edges = [(1, 3), (2, 3)] + [(i, i + 1) for i in range(3, k - 1)] + [(k - 1, k), (k - 1, k + 1)]
            return k + 1, edges, 3
    raise InvalidInputError(f"unknown preset {name!r}; presets: {_PRESET_HELP}")


def preset_quiver(name: str, sink: int | None = None) -> Quiver:
    """Build a named quiver, all arrows oriented toward its designated sink
    (or toward `sink`, 0-indexed, when given)."""
    n, edges, default_sink = _preset_edges(name)
    Q = Quiver(n, tuple((s - 1, t - 1) for s, t in edges))
    target = (default_sink - 1) if sink is None else sink
    return reorient_toward(Q, target)


def parse_quiver(text: str) -> Quiver:
    """Parse the plain-text quiver format.

    Lines: '# comment', 'vertices <n>' (exactly once, first), and
    'arrow <s> <t>' with 1-indexed endpoints.
    """
    n = None
    arrows: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "vertices":
            if n is not None:
                raise QuiverSyntaxError("duplicate 'vertices' directive", line=lineno)
            if len(parts) != 2 or not parts[1].isdigit() or int(parts[1]) < 1:
                raise QuiverSyntaxError("expected 'vertices <n>' with n >= 1", line=lineno)
            n = int(parts[1])
        elif parts[0] == "arrow":
            if n is None:
                raise QuiverSyntaxError("'arrow' before 'vertices'", line=lineno)
            if len(parts) != 3:
                raise QuiverSyntaxError("expected 'arrow <source> <target>'", line=lineno)
            try:
                s, t = int(parts[1]), int(parts[2])
            except ValueError:
                raise QuiverSyntaxError("arrow endpoints must be integers", line=lineno)
            if not (1 <= s <= n and 1 <= t <= n):
                raise QuiverSyntaxError(f"arrow endpoint out of range 1..{n}", line=lineno)
            arrows.append((s - 1, t - 1))
        else:
            raise QuiverSyntaxError(f"unknown directive {parts[0]!r}", line=lineno)
    if n is None:
        raise QuiverSyntaxError("missing 'vertices' directive")
    return Quiver(n, tuple(arrows))

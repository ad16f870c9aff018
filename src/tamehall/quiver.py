"""Quivers, underlying-graph classification, Euler/Tits forms and root
combinatorics.

Vertices are 0-indexed throughout the library; parsing and formatting are
the only places that speak the 1-indexed external convention.  A Quiver is
immutable and hashable, so derived data (delta, Coxeter matrices) can be
cached per quiver.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

import numpy as np

from .errors import (
    InfeasibleEnumerationError,
    InternalInconsistencyError,
    InvalidInputError,
    QuiverStructureError,
    QuiverSyntaxError,
)

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
        self._check_acyclic()
        self._check_connected()

    def _check_acyclic(self):
        indeg = [0] * self.n
        for _, t in self.arrows:
            indeg[t] += 1
        queue = [v for v in range(self.n) if indeg[v] == 0]
        seen = 0
        while queue:
            v = queue.pop()
            seen += 1
            for s, t in self.arrows:
                if s == v:
                    indeg[t] -= 1
                    if indeg[t] == 0:
                        queue.append(t)
        if seen != self.n:
            raise QuiverStructureError("quiver has an oriented cycle", code="cycle")

    def _check_connected(self):
        if self.n == 1:
            return
        adj = {v: set() for v in range(self.n)}
        for s, t in self.arrows:
            adj[s].add(t)
            adj[t].add(s)
        stack, seen = [0], {0}
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != self.n:
            raise QuiverStructureError("underlying graph is disconnected", code="disconnected")

    # -- local structure ------------------------------------------------

    def incoming(self, i: int) -> tuple[int, ...]:
        """Indices into `arrows` of the arrows ending at i."""
        return tuple(a for a, (s, t) in enumerate(self.arrows) if t == i)

    def outgoing(self, i: int) -> tuple[int, ...]:
        return tuple(a for a, (s, t) in enumerate(self.arrows) if s == i)

    def is_sink(self, i: int) -> bool:
        return not self.outgoing(i)

    def is_source(self, i: int) -> bool:
        return not self.incoming(i)

    def sinks(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.n) if self.is_sink(v))

    def sources(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.n) if self.is_source(v))

    def underlying_edges(self) -> tuple[tuple[int, int], ...]:
        """Undirected edge multiset, endpoints sorted."""
        return tuple(tuple(sorted((s, t))) for s, t in self.arrows)

    def degree(self, v: int) -> int:
        return sum(1 for s, t in self.arrows if s == v or t == v)

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


def admissible_sink_order(Q: Quiver, vertices=None) -> tuple[int, ...]:
    """Ordering of `vertices` (default: all of them) in which each vertex is
    a sink of the subquiver on the vertices not yet taken; ties broken by
    smallest index.

    Reversing at a vertex already taken only flips the arrows incident to
    it, so the arrows among the remaining vertices are still Q's own and
    each vertex is a sink of the reflected quiver at its turn.
    """
    remaining = set(range(Q.n) if vertices is None else vertices)
    targets = {v: {t for s, t in Q.arrows if s == v} for v in remaining}
    order = []
    while remaining:
        sink = min(v for v in remaining if not targets[v] & remaining)
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


def is_dynkin(Q: Quiver) -> bool:
    cls = classify_graph(Q)
    return cls.family != "other" and not cls.affine


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
    form.  Defined exactly for affine quivers."""
    n = Q.n
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = Fraction(2)
    for s, t in Q.arrows:
        rows[s][t] -= 1
        rows[t][s] -= 1
    # rational kernel by Gaussian elimination
    mat = [row[:] for row in rows]
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, n) if mat[i][c] != 0), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(n):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(n) if c not in pivots]
    if len(free) != 1:
        raise InvalidInputError(
            f"quiver is not affine (radical dimension {len(free)})")
    f = free[0]
    vec = [Fraction(0)] * n
    vec[f] = Fraction(1)
    for i, c in enumerate(pivots):
        vec[c] = -mat[i][f]
    denom_lcm = 1
    for x in vec:
        denom_lcm = denom_lcm * x.denominator // gcd(denom_lcm, x.denominator)
    ints = [int(x * denom_lcm) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
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
    total = 1
    for b in bound:
        total *= b + 1
        if total > budget:
            raise InfeasibleEnumerationError(
                f"box of size >{budget} in positive_real_roots", budget=budget)
    grids = np.meshgrid(*[np.arange(b + 1) for b in bound], indexing="ij")
    X = np.stack([g.reshape(-1) for g in grids], axis=1).astype(np.int64)
    q = (X * X).sum(axis=1)
    for s, t in Q.arrows:
        q -= X[:, s] * X[:, t]
    mask = (q == 1) & (X.sum(axis=1) > 0)
    roots = [tuple(int(v) for v in row) for row in X[mask]]
    roots.sort()
    return roots


def unit_vector(n: int, i: int) -> DimVector:
    return tuple(1 if j == i else 0 for j in range(n))


def reflect_dimvec(Q: Quiver, i: int, x) -> DimVector:
    """Simple reflection s_i of the underlying diagram applied to x."""
    return tuple(int(v) for v in _reflection_matrix(Q, i) @ np.array(x, dtype=np.int64))


def _reflection_matrix(Q: Quiver, i: int) -> np.ndarray:
    S = np.eye(Q.n, dtype=np.int64)
    S[i, i] = -1
    for u, v in Q.arrows:
        if u == i:
            S[i, v] += 1
        elif v == i:
            S[i, u] += 1
    return S


def _sweep_matrix(Q: Quiver, order) -> np.ndarray:
    """Product of the simple reflections along `order`, first one rightmost."""
    Phi = np.eye(Q.n, dtype=np.int64)
    for i in order:
        Phi = _reflection_matrix(Q, i) @ Phi
    Phi.setflags(write=False)
    return Phi


@lru_cache(maxsize=None)
def coxeter_matrix(Q: Quiver) -> np.ndarray:
    """Phi with dim tau(M) = Phi @ dim M, built from the admissible sink
    order of Q."""
    return _sweep_matrix(Q, admissible_sink_order(Q))


@lru_cache(maxsize=None)
def coxeter_inverse(Q: Quiver) -> np.ndarray:
    return _sweep_matrix(Q, reversed(admissible_sink_order(Q)))


def reflect_to_simple(Q: Quiver, x) -> tuple[int, tuple[int, ...], Quiver]:
    """Walk a preprojective root down to a simple projective by sink
    reflections.

    Returns (vertex i, reflection word, final quiver): applying the word of
    sink reflections to Q yields the final quiver, where x has become the
    i-th unit vector and i is a sink.
    """
    x = tuple(int(v) for v in x)
    delta = radical_delta(Q)
    if tits_form(Q, x) != 1 or defect(Q, x) >= 0:
        raise InvalidInputError(f"{x} is not a preprojective real root")
    limit = Q.n * (sum(x) + sum(delta))
    word: list[int] = []
    cur = Q
    y = x
    steps = 0
    while steps <= limit:
        for i in admissible_sink_order(cur):
            if y == unit_vector(Q.n, i):
                return i, tuple(word), cur
            y2 = reflect_dimvec(cur, i, y)
            if any(v < 0 for v in y2) or not any(y2):
                raise InternalInconsistencyError(
                    f"reflection walk left the positive cone at {y} -> {y2}")
            word.append(i)
            y = y2
            cur = sigma_reverse(cur, i)
            steps += 1
            if steps > limit:
                break
    raise InvalidInputError(
        f"{x} is not preprojective: no simple reached within {limit} reflections")


# -- reorientation and sink words --------------------------------------


def _tree_distances(Q: Quiver, root: int) -> list[int]:
    adj: dict[int, set[int]] = {v: set() for v in range(Q.n)}
    for s, t in Q.arrows:
        adj[s].add(t)
        adj[t].add(s)
    dist = [-1] * Q.n
    dist[root] = 0
    frontier = [root]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def reorient_toward(Q: Quiver, sink: int) -> Quiver:
    """Orient every underlying edge toward `sink` along the unique path.
    Valid for trees and for the double edge on two vertices."""
    if not (0 <= sink < Q.n):
        raise InvalidInputError(f"sink {sink} out of range")
    dist = _tree_distances(Q, sink)
    arrows = []
    for s, t in Q.arrows:
        if dist[s] == dist[t]:
            raise InvalidInputError("reorientation requires a tree (or the 2-vertex double edge)")
        if dist[s] > dist[t]:
            arrows.append((s, t))
        else:
            arrows.append((t, s))
    return Quiver(Q.n, tuple(arrows))


def sink_sequence_to(Q: Quiver, i: int) -> tuple[int, ...]:
    """Word of sink reflections turning Q into its all-arrows-toward-i
    orientation, never reflecting at i or at a neighbour of i.

    Requires the underlying graph to be a tree and i to be a sink of Q.
    Each wrongly oriented edge is fixed by reflecting through an admissible
    ordering of the far-side component, which flips exactly that edge.
    """
    if not Q.is_tree():
        raise InvalidInputError("sink words are defined for trees only")
    if not Q.is_sink(i):
        raise InvalidInputError(f"vertex {i} must be a sink")
    target = reorient_toward(Q, i)
    dist = _tree_distances(Q, i)
    forbidden = {i} | {u for u, v in Q.underlying_edges() if v == i} | {v for u, v in Q.underlying_edges() if u == i}
    wrong = []
    for (s, t), (s2, t2) in zip(Q.arrows, target.arrows):
        if (s, t) != (s2, t2):
            far = s2  # target orientation points far -> near
            wrong.append((dist[far], far, (s, t)))
    wrong.sort()
    cur = Q
    word: list[int] = []
    for _, far, _ in wrong:
        # w is on the far side of the edge toward i when the path from i
        # to w runs through far
        dist_far = _tree_distances(Q, far)
        comp = [w for w in range(Q.n) if dist_far[w] + dist[far] == dist[w]]
        for v in admissible_sink_order(cur, comp):
            if v in forbidden:
                raise InternalInconsistencyError("sink word touched a forbidden vertex")
            if not cur.is_sink(v):
                raise InternalInconsistencyError(f"vertex {v} not a sink at its turn")
            cur = sigma_reverse(cur, v)
            word.append(v)
    if cur != target:
        raise InternalInconsistencyError("sink word did not produce the one-sink orientation")
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


def format_quiver(Q: Quiver) -> str:
    lines = [f"vertices {Q.n}"]
    for s, t in Q.arrows:
        lines.append(f"arrow {s + 1} {t + 1}")
    return "\n".join(lines) + "\n"

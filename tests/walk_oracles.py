"""The quiver walks that `quiver.sink_sequence_to` and
`quiver.injective_walk` replaced, kept as the reference the oracle suites
compare them with: the sink word that fixes one wrongly oriented edge at a
time by reflecting through an admissible order of its far-side component,
and the walk of a preprojective root down to a simple projective by sweeps
of sink reflections on dimension vectors.  Beside them, the module of a
preinjective root built by translating its injective r times afresh, the
reference for the memoised translates of `functors._walk`."""

import numpy as np

from tamehall.functors import tau
from tamehall.quiver import (
    _reflection_matrix,
    admissible_sink_order,
    defect,
    injective_walk,
    radical_delta,
    reorient_toward,
    sigma_reverse,
    tits_form,
)
from tamehall.reps import injective_rep

from rep_helpers import unit_vector


def _tree_distances(Q, root):
    adj = {v: set() for v in range(Q.n)}
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


def subset_sink_order(Q, vertices):
    """Ordering of `vertices` in which each is a sink of the subquiver on
    the vertices of the subset not yet taken; ties broken by smallest
    index."""
    remaining = set(vertices)
    targets = {v: {t for s, t in Q.arrows if s == v} for v in remaining}
    order = []
    while remaining:
        sink = min(v for v in remaining if not targets[v] & remaining)
        order.append(sink)
        remaining.discard(sink)
    return tuple(order)


def component_flip_word(Q, i):
    """Word of sink reflections turning the tree (or double edge) Q into
    its all-arrows-toward-i orientation.  Each wrongly oriented edge, in
    order of the distance of its far endpoint from i, is fixed by
    reflecting through an admissible order of the far-side component,
    which flips exactly that edge."""
    target = reorient_toward(Q, i)
    dist = _tree_distances(Q, i)
    wrong = sorted({(dist[far], far) for (far, near), arrow in zip(target.arrows, Q.arrows)
                    if (far, near) != arrow})
    cur = Q
    word = []
    for _, far in wrong:
        dist_far = _tree_distances(Q, far)
        comp = [w for w in range(Q.n) if dist_far[w] + dist[far] == dist[w]]
        for v in subset_sink_order(cur, comp):
            assert cur.is_sink(v), f"vertex {v} not a sink at its turn"
            cur = sigma_reverse(cur, v)
            word.append(v)
    assert cur == target, "component flips missed the one-sink orientation"
    return tuple(word)


def reflect_dimvec(Q, i, x):
    """Simple reflection s_i of the underlying diagram applied to x."""
    return tuple(int(v) for v in _reflection_matrix(Q, i) @ np.array(x, dtype=np.int64))


def reflect_to_simple(Q, x):
    """(vertex i, reflection word, final quiver): sweeps of sink
    reflections in admissible order carry the preprojective root x to the
    unit vector at i, a sink of the final quiver."""
    x = tuple(int(v) for v in x)
    assert tits_form(Q, x) == 1 and defect(Q, x) < 0, f"{x} is not preprojective"
    limit = Q.n * (sum(x) + sum(radical_delta(Q)))
    word = []
    cur, y = Q, x
    while len(word) <= limit:
        for i in admissible_sink_order(cur):
            if y == unit_vector(Q.n, i):
                return i, tuple(word), cur
            y = reflect_dimvec(cur, i, y)
            assert all(v >= 0 for v in y) and any(y), "walk left the positive cone"
            word.append(i)
            cur = sigma_reverse(cur, i)
    raise AssertionError(f"{x} reached no simple within {limit} reflections")


def tau_loop_walk(Q, F, x):
    """The module of the preinjective root x: the injective I_j that the
    Coxeter walk reaches, translated r times in a loop."""
    j, r = injective_walk(Q, x)
    N = injective_rep(Q, F, j)
    for _ in range(r):
        N = tau(N)
    return N

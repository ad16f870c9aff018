"""The height sink word and the Coxeter walk against the walks they
replaced (`tests/walk_oracles.py`), on random orientations of the presets.

Two sink words with the same letter counts that reach the same
orientation may differ in order only by reflections at non-adjacent
sinks, which commute on matrices: so the modules moved along them must be
equal to the byte."""

import random
from collections import Counter

from tamehall.functors import build_preprojective, reflect_plus
from tamehall.gf import field
from tamehall.homreg import homogeneous_simples
from tamehall.quiver import (
    Quiver,
    defect,
    injective_dims,
    injective_walk,
    opposite,
    positive_real_roots,
    preset_quiver,
    radical_delta,
    reorient_toward,
    sigma_reverse,
    sink_sequence_to,
)
from tamehall.reps import injective_rep

from walk_oracles import component_flip_word, reflect_to_simple

TREE_PRESETS = ("a:1", "a:2", "a:5", "d:4", "d:6", "e:6", "e:7", "e:8",
                "dtilde:4", "dtilde:5", "dtilde:6", "e6tilde", "e7tilde", "e8tilde")
AFFINE_PRESETS = ("kronecker", "dtilde:4", "dtilde:5", "dtilde:6", "e6tilde",
                  "e7tilde", "e8tilde")
# Largest box of dimension vectors the root suites enumerate.
ROOT_BOX = 50_000


def random_orientation(name, rng):
    """The preset with each arrow flipped at random; the two arrows of the
    Kronecker quiver flip together, so that it stays acyclic."""
    base = preset_quiver(name)
    flips = [rng.random() < 0.5 for _ in base.arrows]
    if name == "kronecker":
        flips = [flips[0]] * 2
    return Quiver(base.n, tuple((t, s) if f else (s, t) for f, (s, t) in zip(flips, base.arrows)))


def moved(M, word):
    for v in word:
        M = reflect_plus(M, v)
    return M


def same_bytes(M, N):
    return (M.quiver == N.quiver and M.field == N.field and M.dims == N.dims
            and all(a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
                    for a, b in zip(M.mats, N.mats)))


def test_height_word_matches_the_component_flips():
    rng = random.Random(181)
    for name in ("kronecker",) + TREE_PRESETS:
        for _ in range(8):
            Q = random_orientation(name, rng)
            for i in range(Q.n):
                word = sink_sequence_to(Q, i)
                assert Counter(word) == Counter(component_flip_word(Q, i))
                cur = Q
                for v in word:
                    assert cur.is_sink(v)
                    cur = sigma_reverse(cur, v)
                assert cur == reorient_toward(Q, i)
                if Q.is_sink(i):
                    near = {s for s, t in Q.arrows if t == i}
                    assert not ({i} | near) & set(word)


def test_height_word_moves_homogeneous_simples_as_the_component_flips_do():
    rng = random.Random(182)
    for name in AFFINE_PRESETS:
        Q0 = preset_quiver(name)
        for q in (3, 4):
            for _ in range(3):
                k, i = rng.randrange(Q0.n), rng.randrange(Q0.n)
                Q = reorient_toward(Q0, k)
                M = next(homogeneous_simples(Q, field(q)))[1]
                assert same_bytes(moved(M, sink_sequence_to(Q, i)),
                                  moved(M, component_flip_word(Q, i)))


def test_height_word_moves_preprojectives_as_the_component_flips_do():
    rng = random.Random(183)
    F = field(3)
    for name in AFFINE_PRESETS:
        for _ in range(4):
            Q = random_orientation(name, rng)
            roots = [x for x in positive_real_roots(Q, radical_delta(Q))
                     if defect(Q, x) < 0 and sum(x) <= 10]
            for x in rng.sample(roots, min(4, len(roots))):
                M = build_preprojective(Q, F, x)
                i = rng.randrange(Q.n)
                assert same_bytes(moved(M, sink_sequence_to(Q, i)),
                                  moved(M, component_flip_word(Q, i)))


def _box(Q):
    """2 delta where the box of dimension vectors below it stays small,
    otherwise delta."""
    delta = radical_delta(Q)
    size = 1
    for d in delta:
        size *= 2 * d + 1
    return tuple(2 * d for d in delta) if size <= ROOT_BOX else delta


def test_coxeter_walk_on_the_opposite_quiver_finds_the_reflected_vertex():
    rng = random.Random(184)
    for name in AFFINE_PRESETS:
        for _ in range(3):
            Q = random_orientation(name, rng)
            for x in positive_real_roots(Q, _box(Q)):
                if defect(Q, x) < 0:
                    j, r = injective_walk(opposite(Q), x)
                    assert j == reflect_to_simple(Q, x)[0]


def test_injective_dims_count_paths_as_the_injectives_do():
    rng = random.Random(185)
    F = field(2)
    for name in AFFINE_PRESETS + ("a:5", "d:6", "e:8"):
        for _ in range(4):
            Q = random_orientation(name, rng)
            assert injective_dims(Q) == tuple(injective_rep(Q, F, j).dims for j in range(Q.n))


def test_coxeter_walk_refuses_roots_that_are_not_preinjective():
    Q = preset_quiver("dtilde:4")
    delta = radical_delta(Q)
    assert injective_walk(Q, delta) is None
    for x in positive_real_roots(Q, delta):
        assert (injective_walk(Q, x) is not None) == (defect(Q, x) > 0)

"""The height sink word, the Coxeter walk, the orbit list of the
preprojective roots and the memoised translates against the walks they
replaced (`tests/walk_oracles.py`) and the box scan of the roots, on
random orientations of the presets.

Two sink words with the same letter counts that reach the same
orientation may differ in order only by reflections at non-adjacent
sinks, which commute on matrices: so the modules moved along them must be
equal to the byte."""

import random
from collections import Counter

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tamehall import functors
from tamehall.functors import build_preinjective, build_preprojective, reflect_plus
from tamehall.gf import field
from tamehall.homreg import homogeneous_simples
from tamehall.quiver import (
    defect,
    injective_dims,
    injective_walk,
    opposite,
    positive_real_roots,
    preprojective_roots,
    preset_quiver,
    radical_delta,
    reorient_toward,
    sigma_reverse,
    sink_sequence_to,
    tits_form,
)
from tamehall.reps import dual, injective_rep

from rep_helpers import random_orientation
from walk_oracles import component_flip_word, reflect_to_simple, tau_loop_walk

TREE_PRESETS = ("a:1", "a:2", "a:5", "d:4", "d:6", "e:6", "e:7", "e:8",
                "dtilde:4", "dtilde:5", "dtilde:6", "e6tilde", "e7tilde", "e8tilde")
AFFINE_PRESETS = ("kronecker", "dtilde:4", "dtilde:5", "dtilde:6", "e6tilde",
                  "e7tilde", "e8tilde")
# Largest box of dimension vectors the root suites enumerate.
ROOT_BOX = 50_000
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


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


@st.composite
def affine_quivers(draw):
    """A random orientation of one of the affine presets."""
    return random_orientation(draw(st.sampled_from(AFFINE_PRESETS)),
                              random.Random(draw(st.integers(0, 2**32))))


@PROPERTY
@given(affine_quivers())
def test_orbit_list_is_the_box_scan_and_the_walk_set(Q):
    """At delta, and at 2 delta where `_box` scans it, the orbit list is
    the negative-defect roots of the box scan and the roots the walk on
    Q^op accepts.  The walk accepts only real roots, since Phi keeps the
    Tits form, so walking the scan's roots covers the whole box."""
    delta = radical_delta(Q)
    for m in (1, 2) if _box(Q) != delta else (1,):
        box = positive_real_roots(Q, tuple(m * d for d in delta))
        got = preprojective_roots(Q, m)
        assert got == tuple(x for x in box if defect(Q, x) < 0)
        assert got == tuple(x for x in box if injective_walk(opposite(Q), x) is not None)


def test_orbit_list_of_e8tilde_beyond_the_box_scan():
    """At 2 delta and 3 delta, where the box scan refuses E~8, the list
    holds real roots of negative defect below m delta."""
    Q = preset_quiver("e8tilde")
    delta = radical_delta(Q)
    for m, count in ((1, 106), (2, 212), (3, 318)):
        roots = preprojective_roots(Q, m)
        assert len(roots) == count
        for x in roots:
            assert tits_form(Q, x) == 1 and defect(Q, x) < 0
            assert all(a <= m * d for a, d in zip(x, delta))


def _preinjective_sample(Q, rng, k):
    """k preinjective roots inside `_box(Q)`, or all when there are fewer."""
    roots = [x for x in positive_real_roots(Q, _box(Q)) if defect(Q, x) > 0]
    return rng.sample(roots, min(k, len(roots)))


def test_memoised_walk_equals_the_translate_loop():
    rng = random.Random(186)
    for name in AFFINE_PRESETS:
        for q in (3, 4, 5):
            F = field(q)
            Q = random_orientation(name, rng)
            for x in _preinjective_sample(Q, rng, 6):
                assert same_bytes(functors._walk(Q, F, x, "preinjective"), tau_loop_walk(Q, F, x))


def test_forced_fallback_equals_the_translate_loop(monkeypatch, fresh_memo):
    """With every lift refused, the constructors take the walk over the
    target field itself; the memo is emptied around the test, so that no
    module it builds outlives the patch."""
    monkeypatch.setattr(functors, "is_brick", lambda M: False)
    rng = random.Random(187)
    for name in ("kronecker", "dtilde:4", "e6tilde"):
        for q in (2, 4, 5):
            F = field(q)
            Q = random_orientation(name, rng)
            for x in _preinjective_sample(Q, rng, 4):
                assert same_bytes(build_preinjective(Q, F, x), tau_loop_walk(Q, F, x))
            for x in preprojective_roots(Q, 1)[:4]:
                assert same_bytes(build_preprojective(Q, F, x),
                                  dual(tau_loop_walk(opposite(Q), F, x)))

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from tamehall.errors import (
    InfeasibleEnumerationError,
    InvalidInputError,
    QuiverStructureError,
    QuiverSyntaxError,
)
from tamehall.quiver import (
    Quiver,
    admissible_sink_order,
    classify_graph,
    coxeter_inverse,
    coxeter_matrix,
    defect,
    euler_form,
    is_affine,
    parse_quiver,
    positive_real_roots,
    preset_quiver,
    radical_delta,
    reorient_toward,
    sigma_reverse,
    sink_sequence_to,
    tits_form,
)

from rep_helpers import unit_vector


def kronecker():
    return preset_quiver("kronecker")


def path_quiver(n):
    return preset_quiver(f"a:{n}")


# ---------------------------------------------------------------- validation


def test_quiver_rejects_loop():
    with pytest.raises(QuiverStructureError) as e:
        Quiver(2, ((0, 0),))
    assert e.value.code == "loop"


def test_quiver_rejects_oriented_cycle():
    with pytest.raises(QuiverStructureError) as e:
        Quiver(3, ((0, 1), (1, 2), (2, 0)))
    assert e.value.code == "cycle"


def test_cached_sink_order_still_rejects_a_cycle_on_every_build():
    # the cache keeps no exceptions: an equal cyclic quiver raises again
    for _ in range(2):
        with pytest.raises(QuiverStructureError) as e:
            Quiver(4, ((0, 1), (1, 2), (2, 3), (3, 0)))
        assert e.value.code == "cycle"


def test_quiver_rejects_disconnected():
    with pytest.raises(QuiverStructureError) as e:
        Quiver(4, ((0, 1), (2, 3)))
    assert e.value.code == "disconnected"


def test_quiver_rejects_empty():
    with pytest.raises(QuiverStructureError):
        Quiver(0, ())


def test_quiver_hashable_and_cached():
    assert hash(kronecker()) == hash(preset_quiver("kronecker"))
    assert radical_delta(kronecker()) is radical_delta(preset_quiver("kronecker"))


# ---------------------------------------------------------------- presets


ALL_PRESETS = ["kronecker", "a:1", "a:2", "a:5", "d:4", "d:6", "e:6", "e:7", "e:8",
               "dtilde:4", "dtilde:6", "e6tilde", "e7tilde", "e8tilde"]

AFFINE_PRESETS = ["kronecker", "dtilde:4", "dtilde:5", "dtilde:6", "e6tilde",
                  "e7tilde", "e8tilde"]


def test_preset_symbols():
    expected = {
        "kronecker": "A~1", "a:1": "A1", "a:2": "A2", "a:5": "A5",
        "d:4": "D4", "d:6": "D6", "e:6": "E6", "e:7": "E7", "e:8": "E8",
        "dtilde:4": "D~4", "dtilde:6": "D~6", "e6tilde": "E~6",
        "e7tilde": "E~7", "e8tilde": "E~8",
    }
    for name, symbol in expected.items():
        assert classify_graph(preset_quiver(name)).symbol == symbol


def test_presets_are_single_sink():
    for name in ALL_PRESETS:
        Q = preset_quiver(name)
        assert len(Q.sinks()) == 1


def test_kronecker_layout():
    Q = kronecker()
    assert Q.n == 2
    assert Q.arrows == ((0, 1), (0, 1))
    assert preset_quiver("kronecker", sink=0).arrows == ((1, 0), (1, 0))


def test_preset_sink_override():
    Q = preset_quiver("a:3", sink=0)
    assert Q.arrows == ((1, 0), (2, 1))
    Q2 = preset_quiver("dtilde:4", sink=0)
    assert Q2.sinks() == (0,)


def test_unknown_preset_rejected():
    with pytest.raises(InvalidInputError):
        preset_quiver("f:4")
    with pytest.raises(InvalidInputError):
        preset_quiver("d:3")
    with pytest.raises(InvalidInputError):
        preset_quiver("a:x")


# ---------------------------------------------------------------- classification


def test_classify_negatives():
    # star with four arms of length >= 2 at one vertex, and similar shapes
    wild_star = Quiver(9, tuple((i, 0) for i in range(1, 5)) + tuple((i + 4, i) for i in range(1, 5)))
    assert classify_graph(wild_star).symbol == "other"
    arms_126 = Quiver(10, ((1, 0), (2, 1), (3, 0), (4, 3), (5, 0), (6, 5), (7, 6), (8, 7), (9, 8)))
    assert classify_graph(arms_126).symbol == "other"
    triple = Quiver(2, ((0, 1), (0, 1), (0, 1)))
    assert classify_graph(triple).symbol == "other"


def test_classify_cycle_orientations():
    # acyclically oriented triangle has underlying affine A2 diagram
    tri = Quiver(3, ((0, 1), (0, 2), (2, 1)))
    assert classify_graph(tri).symbol == "A~2"


def test_classify_dtilde_chain_lengths():
    for n in (4, 5, 7, 9):
        assert classify_graph(preset_quiver(f"dtilde:{n}")).symbol == f"D~{n}"


def test_is_affine_is_dynkin():
    assert is_affine(kronecker()) and classify_graph(kronecker()).family != "other"
    e8 = classify_graph(preset_quiver("e:8"))
    assert e8.family != "other" and not e8.affine and not is_affine(preset_quiver("e:8"))
    tri = Quiver(3, ((0, 1), (0, 2), (2, 1)))
    assert is_affine(tri)


# ---------------------------------------------------------------- Euler form


def _cartan_inverse_transpose(Q):
    """Independent oracle: path-count matrix C, then <a,b> = a C^-T b."""
    n = Q.n
    A = [[0] * n for _ in range(n)]
    for s, t in Q.arrows:
        A[t][s] += 1
    C = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    P = [row[:] for row in C]
    for _ in range(n):
        P = [[sum(A[i][k] * P[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        C = [[C[i][j] + P[i][j] for j in range(n)] for i in range(n)]
    # invert C by Gauss-Jordan over Q
    aug = [row[:] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(C)]
    for c in range(n):
        pr = next(r for r in range(c, n) if aug[r][c] != 0)
        aug[c], aug[pr] = aug[pr], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    Cinv = [row[n:] for row in aug]
    return C, Cinv


def _oracle_euler(Q, a, b):
    _, Cinv = _cartan_inverse_transpose(Q)
    n = Q.n
    return sum(Fraction(a[i]) * Cinv[j][i] * b[j] for i in range(n) for j in range(n))


def test_euler_form_matches_cartan_oracle():
    rng = random.Random(7)
    for name in ["a:2", "a:4", "d:4", "e:6", "kronecker", "dtilde:4", "e7tilde"]:
        Q = preset_quiver(name)
        for _ in range(6):
            a = [rng.randrange(0, 5) for _ in range(Q.n)]
            b = [rng.randrange(0, 5) for _ in range(Q.n)]
            assert _oracle_euler(Q, a, b) == euler_form(Q, a, b)


def test_euler_form_on_units_counts_arrows():
    Q = preset_quiver("dtilde:4")
    n = Q.n
    for i in range(n):
        for j in range(n):
            e_i, e_j = unit_vector(n, i), unit_vector(n, j)
            expected = int(i == j) - sum(1 for s, t in Q.arrows if (s, t) == (i, j))
            assert euler_form(Q, e_i, e_j) == expected


def test_tits_form_of_simples_is_one():
    for name in ALL_PRESETS:
        Q = preset_quiver(name)
        for i in range(Q.n):
            assert tits_form(Q, unit_vector(Q.n, i)) == 1


# ---------------------------------------------------------------- delta and defect


EXPECTED_DELTA = {
    "kronecker": (1, 1),
    "dtilde:4": (1, 1, 2, 1, 1),
    "dtilde:5": (1, 1, 2, 2, 1, 1),
    "dtilde:6": (1, 1, 2, 2, 2, 1, 1),
    "e6tilde": (3, 2, 1, 2, 1, 2, 1),
    "e7tilde": (1, 2, 3, 4, 3, 2, 1, 2),
    "e8tilde": (1, 2, 3, 4, 5, 6, 4, 2, 3),
}


def test_radical_delta_values():
    for name, expected in EXPECTED_DELTA.items():
        assert radical_delta(preset_quiver(name)) == expected


def test_radical_delta_is_radical_and_harmonic():
    for name in AFFINE_PRESETS:
        Q = preset_quiver(name)
        d = radical_delta(Q)
        assert all(x > 0 for x in d)
        assert tits_form(Q, d) == 0
        for i in range(Q.n):
            nb = sum(d[s] if t == i else d[t] for s, t in Q.arrows if i in (s, t))
            assert 2 * d[i] == nb
        rng = random.Random(3)
        for _ in range(5):
            x = [rng.randrange(0, 4) for _ in range(Q.n)]
            assert euler_form(Q, d, x) == -euler_form(Q, x, d)


def test_radical_delta_rejects_dynkin():
    for name in ["a:3", "d:5", "e:8"]:
        with pytest.raises(InvalidInputError):
            radical_delta(preset_quiver(name))


def test_defect_of_units_on_single_sink_orientation():
    for name in AFFINE_PRESETS:
        Q = preset_quiver(name)
        d = radical_delta(Q)
        for i in range(Q.n):
            assert defect(Q, unit_vector(Q.n, i)) == -d[i] if i == Q.sinks()[0] else True
    # the designated sink carries defect -delta_i; check the frozen cases
    Q = preset_quiver("e8tilde")
    assert defect(Q, unit_vector(9, 5)) == -6
    assert defect(kronecker(), (0, 1)) == -1
    assert defect(kronecker(), (1, 0)) == 1
    assert defect(preset_quiver("dtilde:4"), unit_vector(5, 2)) == -2


def test_defect_is_linear_and_vanishes_on_delta():
    for name in AFFINE_PRESETS:
        Q = preset_quiver(name)
        d = radical_delta(Q)
        assert defect(Q, d) == 0
        x = tuple(range(1, Q.n + 1))
        two_x = tuple(2 * v for v in x)
        assert defect(Q, two_x) == 2 * defect(Q, x)


# ---------------------------------------------------------------- roots


def _brute_roots(Q, bound):
    out = []
    for x in itertools.product(*[range(b + 1) for b in bound]):
        if any(x) and tits_form(Q, x) == 1:
            out.append(x)
    return sorted(out)


def test_kronecker_roots_small_box():
    got = positive_real_roots(kronecker(), (2, 2))
    assert got == [(0, 1), (1, 0), (1, 2), (2, 1)]


def test_roots_match_brute_scan():
    cases = [("kronecker", (3, 3)), ("a:3", (2, 2, 2)), ("dtilde:4", (2, 2, 3, 2, 2)),
             ("e:6", (2, 2, 3, 2, 2, 2))]
    for name, bound in cases:
        Q = preset_quiver(name)
        assert positive_real_roots(Q, bound) == _brute_roots(Q, bound)


def test_dynkin_positive_root_counts():
    # numbers of positive roots for small Dynkin diagrams
    assert len(positive_real_roots(path_quiver(3), (1, 1, 1))) == 6
    Q = preset_quiver("d:4")
    assert len(positive_real_roots(Q, (1, 1, 2, 1))) == 12
    Q = preset_quiver("e:6")
    assert len(positive_real_roots(Q, (1, 2, 3, 2, 1, 2))) == 36


def test_affine_roots_below_delta():
    # delta itself is imaginary, so it never shows up among the real roots
    for name in ["kronecker", "dtilde:4", "e6tilde"]:
        Q = preset_quiver(name)
        d = radical_delta(Q)
        for x in positive_real_roots(Q, d):
            assert x != d
    # all Kronecker real roots have nonzero defect; larger affine types also
    # carry defect-zero real roots (finite tubes)
    K = kronecker()
    assert all(defect(K, x) != 0 for x in positive_real_roots(K, radical_delta(K)))
    Q4 = preset_quiver("dtilde:4")
    regular = [x for x in positive_real_roots(Q4, radical_delta(Q4)) if defect(Q4, x) == 0]
    assert (0, 0, 1, 1, 1) in regular


def test_roots_budget_guard():
    with pytest.raises(InfeasibleEnumerationError):
        positive_real_roots(preset_quiver("e8tilde"), (50,) * 9, budget=10_000)


def test_roots_rejects_bad_bound():
    with pytest.raises(InvalidInputError):
        positive_real_roots(kronecker(), (2,))


# ---------------------------------------------------------------- reflections


def test_admissible_order_path():
    Q = Quiver(3, ((0, 1), (1, 2)))
    assert admissible_sink_order(Q) == (2, 1, 0)


def _acyclic_orientations(Q):
    edges = Q.underlying_edges()
    for flips in itertools.product((False, True), repeat=len(edges)):
        try:
            yield Quiver(Q.n, tuple((t, s) if f else (s, t) for (s, t), f in zip(edges, flips)))
        except QuiverStructureError:
            continue


def test_admissible_order_is_admissible():
    for name in ALL_PRESETS:
        for Q in _acyclic_orientations(preset_quiver(name)):
            cur = Q
            for i in admissible_sink_order(Q):
                assert cur.is_sink(i)
                cur = sigma_reverse(cur, i)
            assert cur == Q  # reversing every vertex once restores the orientation


def test_sigma_reverse_requires_sink_or_source():
    Q = Quiver(3, ((0, 1), (1, 2)))
    for _ in range(3):  # the result cache must not swallow the check
        with pytest.raises(InvalidInputError):
            sigma_reverse(Q, 1)


def test_sigma_reverse_returns_the_cached_quiver():
    Q = Quiver(3, ((0, 1), (1, 2)))
    R = sigma_reverse(Q, 2)
    assert R == Quiver(3, ((0, 1), (2, 1)))
    assert sigma_reverse(Q, 2) is R
    assert sigma_reverse(Quiver(3, ((0, 1), (1, 2))), 2) is R


def test_coxeter_on_two_vertex_examples():
    Q = Quiver(2, ((0, 1),))
    Phi = coxeter_matrix(Q)
    assert tuple(Phi @ np.array([1, 0])) == (0, 1)
    K = kronecker()
    PhiK = coxeter_matrix(K)
    assert tuple(PhiK @ np.array([2, 3])) == (0, 1)
    assert tuple(PhiK @ np.array([3, 4])) == (1, 2)


def test_coxeter_inverse_is_inverse():
    for name in ALL_PRESETS:
        Q = preset_quiver(name)
        prod = coxeter_matrix(Q) @ coxeter_inverse(Q)
        assert np.array_equal(prod, np.eye(Q.n, dtype=np.int64))


def test_coxeter_twists_euler_form():
    rng = random.Random(5)
    for name in ["kronecker", "a:3", "d:4", "dtilde:5", "e6tilde"]:
        Q = preset_quiver(name)
        Phi = coxeter_matrix(Q)
        for _ in range(6):
            a = np.array([rng.randrange(0, 4) for _ in range(Q.n)])
            b = np.array([rng.randrange(0, 4) for _ in range(Q.n)])
            assert euler_form(Q, a, b) == -euler_form(Q, b, Phi @ a)


def test_coxeter_fixes_delta():
    for name in AFFINE_PRESETS:
        Q = preset_quiver(name)
        d = np.array(radical_delta(Q))
        assert tuple(coxeter_matrix(Q) @ d) == tuple(d)


# ---------------------------------------------------------------- reorientation


def test_reorient_toward_all_vertices():
    for name in ["a:4", "d:5", "e6tilde", "dtilde:6"]:
        Q = preset_quiver(name)
        for i in range(Q.n):
            R = reorient_toward(Q, i)
            assert R.sinks() == (i,)
            assert sorted(R.underlying_edges()) == sorted(Q.underlying_edges())


def _random_tree_orientation_with_sink(name, i, rng):
    Q = preset_quiver(name)
    arrows = []
    for s, t in Q.underlying_edges():
        if t == i or s == i:
            u = s if t == i else t
            arrows.append((u, i))
        elif rng.random() < 0.5:
            arrows.append((s, t))
        else:
            arrows.append((t, s))
    return Quiver(Q.n, tuple(arrows))


def test_sink_sequence_reaches_single_sink_orientation():
    rng = random.Random(17)
    for name in ["a:5", "d:6", "dtilde:4", "dtilde:6", "e6tilde", "e7tilde", "e8tilde"]:
        n = preset_quiver(name).n
        for trial in range(4):
            i = rng.randrange(n)
            Q = _random_tree_orientation_with_sink(name, i, rng)
            word = sink_sequence_to(Q, i)
            neighbours = {u for u, v in Q.underlying_edges() if v == i} | \
                         {v for u, v in Q.underlying_edges() if u == i}
            assert i not in word
            assert not (set(word) & neighbours)
            cur = Q
            for v in word:
                assert cur.is_sink(v)
                cur = sigma_reverse(cur, v)
            assert cur == reorient_toward(Q, i)


def test_sink_sequence_trivial_when_already_oriented():
    Q = preset_quiver("dtilde:5")
    i = Q.sinks()[0]
    assert sink_sequence_to(Q, i) == ()


def test_sink_sequence_reaches_target_from_non_sink_orientations():
    """The word reaches the orientation toward i from any orientation of a
    tree or of the Kronecker quiver, also when i is not a sink."""
    rng = random.Random(23)
    for name in ["kronecker", "a:5", "d:6", "dtilde:4", "dtilde:5", "dtilde:6",
                 "e6tilde", "e7tilde", "e8tilde"]:
        base = preset_quiver(name)
        tried = 0
        while tried < 6:
            flips = [rng.random() < 0.5 for _ in base.arrows]
            if name == "kronecker":
                flips = [flips[0]] * 2
            Q = Quiver(base.n, tuple((t, s) if f else (s, t)
                                     for f, (s, t) in zip(flips, base.arrows)))
            others = [v for v in range(Q.n) if not Q.is_sink(v)]
            if not others:
                continue
            tried += 1
            i = rng.choice(others)
            cur = Q
            for v in sink_sequence_to(Q, i):
                assert v != i and cur.is_sink(v)
                cur = sigma_reverse(cur, v)
            assert cur == reorient_toward(Q, i)


def test_sink_sequence_accepts_non_sink_and_rejects_cycles():
    Q = preset_quiver("a:3")
    assert sink_sequence_to(Q, 0) == (2, 1, 2)
    assert sink_sequence_to(kronecker(), 0) == (1,)
    cycle = Quiver(4, ((0, 1), (1, 2), (0, 3), (3, 2)))
    with pytest.raises(InvalidInputError):
        sink_sequence_to(cycle, 2)
    with pytest.raises(InvalidInputError):
        sink_sequence_to(Q, 3)


# ---------------------------------------------------------------- parsing


def test_parse_format_round_trip():
    for name in ALL_PRESETS:
        Q = preset_quiver(name)
        text = f"vertices {Q.n}\n" + "".join(f"arrow {s + 1} {t + 1}\n" for s, t in Q.arrows)
        assert parse_quiver(text) == Q


def test_parse_comments_and_blanks():
    text = """
    # a path on three vertices
    vertices 3

    arrow 1 2
    # middle comment
    arrow 2 3
    """
    assert parse_quiver(text) == Quiver(3, ((0, 1), (1, 2)))


def test_parse_errors_carry_line_numbers():
    with pytest.raises(QuiverSyntaxError) as e:
        parse_quiver("vertices 2\narrow 1 3\n")
    assert e.value.line == 2
    with pytest.raises(QuiverSyntaxError) as e:
        parse_quiver("arrow 1 2\n")
    assert e.value.line == 1
    with pytest.raises(QuiverSyntaxError) as e:
        parse_quiver("vertices 2\nvertices 2\n")
    assert e.value.line == 2
    with pytest.raises(QuiverSyntaxError) as e:
        parse_quiver("vertices 2\nedge 1 2\n")
    assert e.value.line == 2
    with pytest.raises(QuiverSyntaxError):
        parse_quiver("# nothing\n")


def test_parse_structure_errors():
    with pytest.raises(QuiverStructureError) as e:
        parse_quiver("vertices 2\narrow 1 1\n")
    assert e.value.code == "loop"
    with pytest.raises(QuiverStructureError) as e:
        parse_quiver("vertices 3\narrow 1 2\narrow 2 3\narrow 3 1\n")
    assert e.value.code == "cycle"

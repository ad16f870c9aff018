"""The submodule count of `gr._count_copies`, which walks the dual DY of
Y, against the count on Y that it replaced (`count_oracles`), and its
budget refusals.

The inputs are modules Y on random orientations of the Kronecker quiver,
A3, D~4 and D~5 over GF(2..5): preprojective root modules and random
modules with zero spaces at some vertices.  X ranges over the GR
submodules of Y, Y itself, submodules of Y with zero spaces, simples, and
random modules of dimension at most dim Y, most of which are not
submodules (u = 0), and modules with a space larger than Y's.
"""

import math
import random

import numpy as np
import pytest

from tamehall import gr, reps
from tamehall.errors import InfeasibleEnumerationError
from tamehall.functors import build_preprojective
from tamehall.gf import field, gaussian_binomial
from tamehall.gr import count_submodules_report, gr_submodules
from tamehall.quiver import (
    is_affine,
    opposite,
    positive_real_roots,
    preprojective_roots,
    preset_quiver,
)
from tamehall.reps import Rep, dual, end_dim, enumerate_subreps, quotient_rep, simple_rep, sub_rep

from count_oracles import count_copies
from rep_helpers import random_orientation

PRESETS = ("kronecker", "a:3", "dtilde:4", "dtilde:5")


def _random_rep(Q, F, dims, rng):
    nprng = np.random.default_rng(rng.getrandbits(32))
    return Rep(Q, F, dims, tuple(nprng.integers(0, F.q, size=(dims[t], dims[s]))
                                 for s, t in Q.arrows))


def _candidates(Y, rng):
    """(kind, X) pairs for one ambient Y."""
    Q, F = Y.quiver, Y.field
    out = [("self", Y)]
    if sum(Y.dims):
        out += [("gr", w.sub) for w in gr_submodules(Y)]
    subs = [s for s in enumerate_subreps(Y) if 0 < sum(U.shape[0] for U in s) < sum(Y.dims)]
    for s in rng.sample(subs, min(3, len(subs))):
        out.append(("sub", sub_rep(Y, s)))
    out += [("simple", simple_rep(Q, F, i)) for i in range(Q.n) if Y.dims[i]]
    for _ in range(2):
        out.append(("random", _random_rep(Q, F, tuple(rng.randint(0, d) for d in Y.dims), rng)))
    big = list(Y.dims)
    big[rng.randrange(Q.n)] += 1
    out.append(("too big", _random_rep(Q, F, tuple(big), rng)))
    return out


def _ambients(Q, F, rng):
    roots = preprojective_roots(Q, 1) if is_affine(Q) else positive_real_roots(Q, (1,) * Q.n)
    roots = [x for x in roots if sum(x) <= 6]
    for x in rng.sample(roots, min(2, len(roots))):
        yield build_preprojective(Q, F, x)
    # a random module, with End small enough for the isomorphism scans
    Y = _random_rep(Q, F, tuple(rng.randint(0, 2) for _ in range(Q.n)), rng)
    while end_dim(Y) > 4:
        Y = _random_rep(Q, F, tuple(rng.randint(0, 2) for _ in range(Q.n)), rng)
    yield Y


def test_count_on_the_dual_equals_the_count_on_y():
    rng = random.Random(23)
    kinds, zero_fits = set(), 0
    for name in PRESETS:
        for q in (2, 3, 4, 5):
            F = field(q)
            Q = random_orientation(name, rng)
            for Y in _ambients(Q, F, rng):
                for kind, X in _candidates(Y, rng):
                    u = gr._count_copies(X, Y, 2_000_000)
                    assert u == count_copies(X, Y), (Q, q, Y.dims, X.dims, kind)
                    kinds.add(kind)
                    zero_fits += u == 0 and all(d <= n for n, d in zip(Y.dims, X.dims))
    assert kinds == {"self", "gr", "sub", "simple", "random", "too big"}
    assert zero_fits


def _worst_pair():
    """On D~4 with the centre its only sink, over GF(5): Y = (2, 2, 4, 1, 2)
    and its GR submodule (1, 1, 3, 1, 2).  The walk on Y starts with
    [4 choose 3]_5 = 156 choices at the centre, the walk on DY with
    [2 choose 1]_5^2 = 36 at the leaves."""
    Q, F = preset_quiver("dtilde:4"), field(5)
    Y = build_preprojective(Q, F, (2, 2, 4, 1, 2))
    (w,) = [w for w in gr_submodules(Y) if w.dims == (1, 1, 3, 1, 2)]
    return w


@pytest.mark.parametrize("centre", ["sink", "source"])
def test_over_budget_count_refuses_before_any_walk(centre, monkeypatch):
    """The count refuses with the estimate prod_j [Y_j choose X_j]_q of
    the walk on Y, whichever of the two sides has fewer first-level
    choices.  The second input is the dual of the first: D Y on Q^op with
    its submodule D(Y/X), where the centre is a source."""
    w = _worst_pair()
    X, Y = w.sub, w.ambient
    if centre == "source":
        X, Y = dual(quotient_rep(Y, w.spaces)), dual(Y)
        assert Y.quiver == opposite(w.ambient.quiver)
    q = Y.field.q
    needed = math.prod(gaussian_binomial(n, d, q) for n, d in zip(Y.dims, X.dims))
    assert needed == 6 * 6 * 156
    assert count_submodules_report(X, Y).u_brute == count_copies(X, Y)
    walked = []
    monkeypatch.setattr(reps, "enumerate_subspaces", lambda *a, **k: walked.append(a) or iter(()))
    with pytest.raises(InfeasibleEnumerationError) as err:
        count_submodules_report(X, Y, budget=needed - 1)
    assert (err.value.needed, err.value.budget) == (needed, needed - 1)
    assert walked == []

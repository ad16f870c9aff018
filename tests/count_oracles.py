"""The direct count that `gr._count_copies` replaced, kept as the
reference it is compared with: every subrep of Y of dimension dim X,
walked on Y itself from the sinks, tested for isomorphism with X."""

from tamehall.reps import enumerate_subreps, is_isomorphic, sub_rep


def count_copies(X, Y, budget=2_000_000):
    u = 0
    for spaces in enumerate_subreps(Y, budget=budget, dims=X.dims):
        if is_isomorphic(sub_rep(Y, spaces), X, budget):
            u += 1
    return u

"""Direct counts that faster paths in the package replaced, kept as the
references they are compared with.

`count_copies` is the count that `gr._count_copies` replaced: every subrep
of Y of dimension dim X, walked on Y itself from the sinks, tested for
isomorphism with X by the scan alone (`rep_helpers.is_isomorphic_by_scan`),
so that the rigid rule of `reps.is_isomorphic` is not its own oracle.

`sink_count_by_classes` is the one-sink count that
`hall.hall_number_sink_fast` replaced: it lists every scalar class c of
the Hom(R, I) basis by `scalar_class_images` on S, the h x W concatenation
of the per-vertex rows pi_j phi_k (flattened), and keeps the classes whose
composite pi_j phi_{c,j} has full row rank at every vertex with
t_j = dim top(I)_j > 0: a nonzero test where t_j = 1, `batched_full_row_rank`
on the classes still alive where t_j >= 2."""

import numpy as np

from tamehall.gf import batched_full_row_rank, scalar_class_images
from tamehall.reps import enumerate_subreps, hom_basis, sub_rep, top_projection

from rep_helpers import is_isomorphic_by_scan


def count_copies(X, Y, budget=2_000_000):
    u = 0
    for spaces in enumerate_subreps(Y, budget=budget, dims=X.dims):
        if is_isomorphic_by_scan(sub_rep(Y, spaces), X, budget):
            u += 1
    return u


def sink_count_by_classes(R, I):
    F, delta = R.field, R.dims
    basis = hom_basis(R, I)
    if not basis:
        return 0
    pi = top_projection(I)
    tops = [p.shape[0] for p in pi]
    order = sorted((j for j in range(R.quiver.n) if tops[j]), key=lambda j: (tops[j], delta[j], j))
    S = np.concatenate([np.stack([F.matmul(pi[j], phi[j]).reshape(-1) for phi in basis])
                        for j in order], axis=1)
    spans, lo = [], 0
    for j in order:
        spans.append((j, slice(lo, lo + tops[j] * delta[j])))
        lo += tops[j] * delta[j]
    total = 0
    for block in scalar_class_images(F, S):
        alive = np.ones(block.shape[0], dtype=bool)
        for j, cols in spans:
            if tops[j] == 1:
                alive &= block[:, cols].any(axis=1)
                continue
            live = np.flatnonzero(alive)
            if live.size == 0:
                break
            mats = block[live, cols].reshape(live.size, tops[j], delta[j])
            alive[live[~batched_full_row_rank(F, mats)]] = False
        total += int(alive.sum())
    return total

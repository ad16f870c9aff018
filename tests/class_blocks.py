"""Scalar classes as coefficient blocks: the enumeration that the one-sink
count and the monomorphism scans used before `gf.scalar_class_images`,
kept as the reference the oracles in the tests are built on."""

import numpy as np

# Rows per block, which bounds the memory of one batched evaluation.
BLOCK_ROWS = 65536


def scalar_class_blocks(q: int, h: int):
    """Yield coefficient blocks (B, h), one row per scalar class of nonzero
    vectors in GF(q)^h.

    Rows have their first nonzero coordinate equal to 1, and come in
    lexicographic order: by the position of that 1, then by the tail.
    """
    for lead in range(h):
        tail = h - lead - 1
        tails = np.indices((q,) * tail).reshape(tail, q ** tail).T
        for start in range(0, tails.shape[0], BLOCK_ROWS):
            chunk = tails[start:start + BLOCK_ROWS]
            block = np.zeros((chunk.shape[0], h), dtype=np.int64)
            block[:, lead] = 1
            block[:, lead + 1:] = chunk
            yield block

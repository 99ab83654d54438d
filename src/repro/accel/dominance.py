"""Packed strict-dominance kernels for similarity-vector blocks.

A block ``B`` is the list of similarity vectors of all candidate pairs
sharing one entity (Algorithm 1's unit of work).  The reference loop
(:func:`repro.accel.reference.dominance_counts`; pruning keeps the same
loop for blocks below ``_MIN_NUMPY_BLOCK``) answers "how many vectors of
``B`` strictly dominate ``v``" in O(|B|²·d) Python; here the block is
packed into a ``float64`` matrix and the counts come from broadcast
comparisons.

Strict dominance is exact boolean work, so the kernel's counts equal the
reference loop's by construction.  A sort-by-component-sum prefilter
bounds the comparisons: ``s ≻ t`` implies ``sum(s) >= sum(t)`` even
under floating-point rounding (each partial add is monotone in its
operands), so after sorting by descending sum only the prefix with
``sum >= sum(t)`` can contain dominators of ``t``; strictness is then
restored with an explicit any-greater test, which also rejects exact
duplicates sharing the prefix.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.obs import runtime as obs

Vector = tuple[float, ...]

#: Below this block size the NumPy call overhead beats the Python loop.
_MIN_NUMPY_BLOCK = 24

#: Comparison-element budget per broadcast chunk (bounds peak memory).
_CHUNK_BUDGET = 1 << 22


def _counts_numpy(matrix, cap: int | None, weights) -> list[int]:
    """Broadcast dominance counts over a packed (n, d) float64 block.

    ``weights`` (int64) carries row multiplicities: row ``j``'s count is
    the weighted number of rows strictly dominating it.  Identical
    vectors share one row, and a dominator's multiplicity is how many
    originals it stands for.
    """
    n = len(matrix)
    if n * n * max(matrix.shape[1], 1) <= _CHUNK_BUDGET // 4:
        # Small block: one direct broadcast beats the sort prefilter's
        # fixed overhead (argsort + searchsorted + masking).
        candidates = matrix[:, None, :]
        targets = matrix[None, :, :]
        dominates = (candidates >= targets).all(axis=-1) & (
            candidates > targets
        ).any(axis=-1)
        counts = (dominates * weights[:, None]).sum(axis=0)
        if cap is not None:
            np.minimum(counts, cap, out=counts)
        return counts.tolist()
    sums = matrix.sum(axis=1)
    order = np.argsort(-sums, kind="stable")
    packed = matrix[order]
    packed_weights = weights[order]
    neg_sorted_sums = -sums[order]  # ascending
    # prefix[i]: number of rows whose sum is >= the i-th sorted row's
    # (rows past it cannot dominate it, see module docstring).
    prefix = np.searchsorted(neg_sorted_sums, neg_sorted_sums, side="right")
    counts = np.zeros(n, dtype=np.int64)
    width = matrix.shape[1]
    start = 0
    while start < n:
        pmax = int(prefix[start])
        budget = max(pmax * width, 1)
        stop = min(n, start + max(1, _CHUNK_BUDGET // budget))
        # prefix grows over the chunk (later rows see more candidates);
        # re-shrink until the actual prefix at the chunk end fits the
        # budget, or a single row remains (which may legitimately need
        # the whole prefix).
        while (
            stop > start + 1
            and int(prefix[stop - 1]) * (stop - start) * max(width, 1)
            > _CHUNK_BUDGET
        ):
            stop = start + max(1, (stop - start) // 2)
        pmax = int(prefix[stop - 1])
        candidates = packed[:pmax, None, :]
        targets = packed[None, start:stop, :]
        ge_all = (candidates >= targets).all(axis=-1)
        gt_any = (candidates > targets).any(axis=-1)
        in_prefix = np.arange(pmax)[:, None] < prefix[start:stop][None, :]
        counts[start:stop] = (
            (ge_all & gt_any & in_prefix) * packed_weights[:pmax, None]
        ).sum(axis=0)
        start = stop
    if cap is not None:
        np.minimum(counts, cap, out=counts)
    result = np.empty(n, dtype=np.int64)
    result[order] = counts
    return result.tolist()


class PackedVectors:
    """A vector index packed into one ``float64`` matrix.

    Per-block kernels then slice by row index instead of re-converting
    Python tuples — the conversion, not the comparisons, dominates the
    kernel cost on realistic block sizes.
    :func:`repro.core.pruning.partial_order_pruning` packs one per call
    and drops it on return.
    """

    __slots__ = ("_vectors", "matrix", "row")

    def __init__(self, vectors: dict):
        self._vectors = vectors
        self.row = {pair: i for i, pair in enumerate(vectors)}
        matrix = np.asarray(tuple(vectors.values()), dtype=np.float64)
        if matrix.ndim == 1:  # zero-width vectors (no attribute matches)
            matrix = matrix.reshape(len(vectors), 0)
        self.matrix = matrix

    def counts(self, pairs: Sequence, cap: int | None = None) -> list[int]:
        """Strict-dominance counts for the block formed by ``pairs``.

        Identical vectors are merged first (ambiguous blocks are full of
        ties, and equal vectors never strictly dominate each other): the
        kernel runs on the distinct rows with multiplicity weights, and
        every original pair reads its distinct row's weighted count.
        """
        with obs.timed("kernel.dominance"):
            vectors = self._vectors
            slots: dict = {}
            first_rows: list[int] = []
            multiplicity: list[int] = []
            slot_of: list[int] = []
            for pair in pairs:
                vector = vectors[pair]
                slot = slots.get(vector)
                if slot is None:
                    slot = len(first_rows)
                    slots[vector] = slot
                    first_rows.append(self.row[pair])
                    multiplicity.append(0)
                multiplicity[slot] += 1
                slot_of.append(slot)
            if len(first_rows) <= 1:
                # One distinct vector: ties all around, nothing dominates.
                return [0] * len(pairs)
            unique_counts = _counts_numpy(
                self.matrix[first_rows],
                cap,
                np.asarray(multiplicity, dtype=np.int64),
            )
            return [unique_counts[slot] for slot in slot_of]


def _any_dominator_python(
    targets: Sequence[Vector], candidates: Sequence[Vector]
) -> list[bool]:
    flags = []
    for vector in targets:
        flags.append(
            any(
                other != vector and all(x >= y for x, y in zip(other, vector))
                for other in candidates
            )
        )
    return flags


def _any_dominator_numpy(target_matrix, candidate_matrix) -> list[bool]:
    m, width = candidate_matrix.shape
    flags = np.zeros(len(target_matrix), dtype=bool)
    chunk = max(1, _CHUNK_BUDGET // max(m * width, 1))
    for start in range(0, len(target_matrix), chunk):
        block = target_matrix[None, start : start + chunk, :]
        ge_all = (candidate_matrix[:, None, :] >= block).all(axis=-1)
        gt_any = (candidate_matrix[:, None, :] > block).any(axis=-1)
        flags[start : start + chunk] = (ge_all & gt_any).any(axis=0)
    return flags.tolist()


def any_strict_dominator(
    targets: Sequence[Vector], candidates: Sequence[Vector]
) -> list[bool]:
    """Per target, whether *any* candidate strictly dominates it."""
    if not targets:
        return []
    if not candidates:
        return [False] * len(targets)
    if len(targets) * len(candidates) < _MIN_NUMPY_BLOCK**2:
        return _any_dominator_python(targets, candidates)

    with obs.timed("kernel.dominance"):
        return _any_dominator_numpy(
            np.asarray(targets, dtype=np.float64),
            np.asarray(candidates, dtype=np.float64),
        )

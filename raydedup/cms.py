"""Count-min sketch for distributed document-frequency ordering.

The AllPairs/PPJoin prefix filter (Bayardo et al., WWW'07) needs a
GLOBAL total order over shingles, ideally rare-first — but correctness
only needs the order to be total and identical everywhere. Round 1
materialized the exact DF table on the driver (``take_all`` of every
distinct shingle — the documented 100-TB scale-killer). A count-min
sketch (Cormode & Muthukrishnan, 2005) replaces it: a FIXED-size
(d × w) counter array, built per block and merged by elementwise sum
(CMS is linear), broadcast once via ``ray.put``. Ordering by
``(df_hat(s), hash(s))`` is deterministic given the sketch;
overestimation only demotes some rare shingles toward the common end —
more candidate checks, never a lost pair.
"""

from __future__ import annotations

import numpy as np

# multiply-shift row hashes: idx_i = (h * A_i) >> (64 - log2(w))
_CMS_SALTS = np.array(
    [0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9, 0x27D4EB2F165667C5],
    dtype=np.uint64,
)


class CountMinSketch:
    def __init__(self, depth: int = 4, log2_width: int = 17, counts: np.ndarray | None = None):
        self.depth = depth
        self.log2_width = log2_width
        self.width = 1 << log2_width
        self.counts = (
            np.zeros((depth, self.width), dtype=np.uint32) if counts is None else counts
        )

    def _indices(self, hashes: np.ndarray) -> np.ndarray:
        """(depth, n) row indices for uint64 hashes."""
        h = np.asarray(hashes, dtype=np.uint64)
        shift = np.uint64(64 - self.log2_width)
        return ((h[None, :] * _CMS_SALTS[: self.depth, None]) >> shift).astype(np.int64)

    def add_hashes(self, hashes: np.ndarray) -> None:
        idx = self._indices(hashes)
        for i in range(self.depth):
            np.add.at(self.counts[i], idx[i], 1)

    def estimate(self, hashes: np.ndarray) -> np.ndarray:
        """Min-over-rows count estimate (never underestimates)."""
        if len(hashes) == 0:
            return np.zeros(0, dtype=np.uint32)
        idx = self._indices(hashes)
        est = self.counts[0][idx[0]]
        for i in range(1, self.depth):
            np.minimum(est, self.counts[i][idx[i]], out=est)
        return est

    def merge(self, other: "CountMinSketch") -> "CountMinSketch":
        self.counts += other.counts
        return self


def build_df_sketch(slim_ds, text_col: str, n: int, depth: int = 4, log2_width: int = 17) -> np.ndarray:
    """Run the DF-sketch aggregate over ``slim_ds`` and return the raw
    counter array (a GLOBAL keyless aggregate; the merged state is a
    fixed 2 MB array)."""
    return slim_ds.aggregate(shingle_df_sketch_aggregate(text_col, n, depth, log2_width))[
        "shingle_df_cms"
    ]


def shingle_df_sketch_aggregate(text_col: str, n: int, depth: int = 4, log2_width: int = 17):
    """Ray ``AggregateFn`` building the corpus-wide shingle-DF CMS: each
    block contributes one distinct-shingle count per doc (DF, not TF);
    merge is elementwise sum. The finalized value is the raw counter
    array (small, fixed size — safe to ship to the driver and
    broadcast)."""
    from ray.data.aggregate import AggregateFn
    from ray.data.block import BlockAccessor

    from raydedup.suffix import flat_ngram_hashes64, unique_per_row

    def accumulate_block(state: np.ndarray, block) -> np.ndarray:
        col = BlockAccessor.for_block(block).to_arrow().column(text_col)
        cnt, w = flat_ngram_hashes64(col, n)
        _, uniq = unique_per_row(cnt, w)  # DF = one count per doc, not TF
        if len(uniq):
            cms = CountMinSketch(depth, log2_width, counts=state)
            cms.add_hashes(uniq)
            return cms.counts
        return state

    return AggregateFn(
        init=lambda k: np.zeros((depth, 1 << log2_width), dtype=np.uint32),
        accumulate_block=accumulate_block,
        merge=lambda a, b: a + b,
        finalize=lambda c: c,
        name="shingle_df_cms",
    )

"""Mergeable streaming quantile sketch (compactor scheme) + AggregateFn.

The missing member of the sketch family next to MinHash / HLL / Bloom /
count-min: bounded-memory rank/quantile estimation over a numeric
column, mergeable across blocks — the distributed shape is identical to
``hll_aggregate_fn`` (partial sketch per block, pairwise merge, finalize
on the tiny final state).

Public-knowledge provenance: the compactor hierarchy of Karnin, Lang &
Liberty, "Optimal quantile approximation in streams" (FOCS 2016, the
KLL sketch), using the deterministic alternating-offset compaction of
Manku, Rajagopalan & Lindsay (SIGMOD 1998) instead of coin flips —
deterministic given an item order, and the worst-case rank-error bound
below holds for ANY order (so Ray's nondeterministic merge order only
moves the estimate WITHIN the bound, never outside it). The reference
library (ekzhu/datasketch) has no quantile sketch; this extends the
family the way HLL++ (hyperloglog.py:323-381) extends HLL.

Error bound (worst case, any stream/merge order): each compaction of a
level holding items of weight ``w`` discards every other item of its
sorted buffer, perturbing any rank by at most ``w``; a level of
capacity ``k`` compacts at most ``n / (k · w)`` times, so the total
rank error is at most ``sum_i n/k = L·n/k`` over ``L`` levels, with
``L ≈ log2(n/k)``. ``rank_error_bound()`` returns this exact per-state
value; the ``price_quantiles_sketch`` verifier checks the MEASURED
error against it with exact rank counts.
"""

from __future__ import annotations

import numpy as np


class KllSketch:
    """Levels of value buffers; items at level ``i`` carry weight 2^i.

    ``update_many`` is vectorized (append + sort-based compaction);
    ``merge`` concatenates levels then re-compacts. State is a plain
    (k, levels, compactions, n) tuple of numpy arrays — pickles small
    and fast for the aggregate shuffle.
    """

    __slots__ = ("k", "levels", "compactions", "n")

    def __init__(self, k: int = 256, levels: list | None = None, compactions: list | None = None, n: int = 0):
        self.k = int(k)
        self.levels: list[np.ndarray] = (
            [np.asarray(l, np.float64) for l in levels] if levels is not None else [np.empty(0, np.float64)]
        )
        self.compactions: list[int] = list(compactions) if compactions is not None else [0]
        self.n = int(n)

    # ------------------------------------------------------------- build
    def update_many(self, vals) -> "KllSketch":
        v = np.asarray(vals, dtype=np.float64)
        v = v[~np.isnan(v)]
        if len(v) == 0:
            return self
        self.n += len(v)
        self.levels[0] = np.concatenate([self.levels[0], v])
        self._compress()
        return self

    def merge(self, other: "KllSketch") -> "KllSketch":
        if other.k != self.k:
            raise ValueError("cannot merge sketches with different k")
        while len(self.levels) < len(other.levels):
            self.levels.append(np.empty(0, np.float64))
            self.compactions.append(0)
        for i, buf in enumerate(other.levels):
            if len(buf):
                self.levels[i] = np.concatenate([self.levels[i], buf])
            self.compactions[i] += other.compactions[i]
        self.n += other.n
        self._compress()
        return self

    def _compress(self) -> None:
        i = 0
        while i < len(self.levels):
            buf = self.levels[i]
            if len(buf) > self.k:
                srt = np.sort(buf, kind="stable")
                off = self.compactions[i] & 1  # deterministic alternating offset
                self.compactions[i] += 1
                promoted = srt[off::2]
                self.levels[i] = np.empty(0, np.float64)
                if i + 1 == len(self.levels):
                    self.levels.append(np.empty(0, np.float64))
                    self.compactions.append(0)
                self.levels[i + 1] = np.concatenate([self.levels[i + 1], promoted])
            i += 1

    # ------------------------------------------------------------- query
    def _weighted(self) -> tuple[np.ndarray, np.ndarray]:
        vals = [b for b in self.levels if len(b)]
        wts = [np.full(len(b), 1 << i, np.int64) for i, b in enumerate(self.levels) if len(b)]
        if not vals:
            return np.empty(0, np.float64), np.empty(0, np.int64)
        v = np.concatenate(vals)
        w = np.concatenate(wts)
        order = np.argsort(v, kind="stable")
        return v[order], w[order]

    def quantiles(self, qs) -> np.ndarray:
        """Smallest retained value whose cumulative weight reaches
        ``ceil(q · W)`` (percentile_disc semantics over the weighted
        sample)."""
        v, w = self._weighted()
        if len(v) == 0:
            return np.full(len(list(qs)), np.nan)
        cw = np.cumsum(w)
        total = cw[-1]
        ranks = np.ceil(np.asarray(list(qs), np.float64) * total).astype(np.int64)
        idx = np.minimum(np.searchsorted(cw, np.maximum(ranks, 1), side="left"), len(v) - 1)
        return v[idx]

    def rank_error_bound(self) -> int:
        """Worst-case |true rank − sketch rank| over any query value:
        each compaction at level ``i`` perturbs ranks by ≤ 2^i."""
        return int(sum((1 << i) * c for i, c in enumerate(self.compactions)))

    # ---------------------------------------------------------- plumbing
    def state(self) -> tuple:
        return (self.k, [l.copy() for l in self.levels], list(self.compactions), self.n)

    @classmethod
    def from_state(cls, st: tuple) -> "KllSketch":
        k, levels, compactions, n = st
        return cls(k, levels=levels, compactions=compactions, n=n)

    def to_bytes(self) -> bytes:
        """Flat wire form — a single ``bytes`` value, so aggregate
        states ride the shuffle as an Arrow ``binary`` column instead
        of tripping Ray's object-column pickle fallback (which logs a
        conversion traceback per shuffle block). Layout: little-endian
        int64 header ``(k, n, L, compactions[L], level_lens[L])`` then
        the concatenated float64 level buffers."""
        L = len(self.levels)
        head = np.empty(3 + 2 * L, dtype="<i8")
        head[0], head[1], head[2] = self.k, self.n, L
        head[3 : 3 + L] = self.compactions
        head[3 + L :] = [len(b) for b in self.levels]
        body = (
            np.concatenate(self.levels).astype("<f8")
            if any(len(b) for b in self.levels)
            else np.empty(0, "<f8")
        )
        return head.tobytes() + body.tobytes()

    @classmethod
    def from_bytes(cls, blob: bytes) -> "KllSketch":
        k, n, L = np.frombuffer(blob[:24], "<i8")
        head = np.frombuffer(blob[24 : 24 + 16 * L], "<i8")
        flat = np.frombuffer(blob[24 + 16 * L :], "<f8")
        lens = head[L:]
        offs = np.concatenate(([0], np.cumsum(lens)))
        levels = [flat[offs[i] : offs[i + 1]].copy() for i in range(L)]
        return cls(int(k), levels=levels, compactions=head[:L].tolist(), n=int(n))


def kll_aggregate_fn(column: str, k: int = 256, alias_name: str | None = None):
    """``ray.data.aggregate.AggregateFn`` building a KLL state over
    ``column`` — partial sketch per block, pairwise merge, finalize
    returns the wire-form ``bytes`` state (quantile extraction is a
    driver-side O(k·L) ``KllSketch.from_bytes`` call on the tiny final
    state). States travel as an Arrow ``binary`` column — never the
    object-dtype pickle fallback. Works global and grouped."""
    from ray.data.aggregate import AggregateFn

    name = alias_name or f"kll({column})"

    def accumulate_block(state: bytes, block) -> bytes:
        sk = KllSketch.from_bytes(state)
        col = block.column(column) if hasattr(block, "column") else block[column]
        sk.update_many(col.to_numpy(zero_copy_only=False))
        return sk.to_bytes()

    return AggregateFn(
        init=lambda _k: KllSketch(k).to_bytes(),
        accumulate_block=accumulate_block,
        merge=lambda a, b: KllSketch.from_bytes(a).merge(KllSketch.from_bytes(b)).to_bytes(),
        finalize=lambda st: st,
        name=name,
    )

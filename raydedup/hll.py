"""HyperLogLog as a mergeable, vectorized aggregate.

Same register semantics as the reference (``datasketch/hyperloglog.py``):
32-bit SHA1 hash, index = low ``p`` bits, rank = ``(32 - p) -
bit_length(hv >> p) + 1``, register = int8 max; estimate =
``alpha * m^2 / sum(2^-reg)`` with the small-range linear-counting and
large-range corrections (``hyperloglog.py:144-168``, ``248-252``).
Merge = elementwise register max (``hyperloglog.py:170-183``) — the
textbook distributed sketch, mapped to a ``ray.data`` ``AggregateFn``
whose partial state is one register file per block.

Unlike the reference's per-item ``update`` loop, the per-batch path
hashes/updates whole numpy arrays at once.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np


def _bit_length_u64(bits: np.ndarray) -> np.ndarray:
    """Exact integer bit length of uint64 values, vectorized.

    float64 log2 on a full 64-bit value can round across an integer
    boundary (e.g. values within ~2^-53 relative distance of a power of
    two), skewing the rank by one vs the reference. Splitting into
    32-bit halves makes every input exactly representable in float64,
    where ``floor(log2(v))`` is provably exact: the gap between
    ``log2(2^k - 1)`` and ``k`` is ≥ 2^-33, far above the 1-ulp kernel
    error."""
    bits = np.asarray(bits, dtype=np.uint64)
    hi = (bits >> np.uint64(32)).astype(np.int64)
    lo = (bits & np.uint64(0xFFFFFFFF)).astype(np.int64)
    bl = np.zeros(len(bits), dtype=np.int64)
    m = hi > 0
    if m.any():
        bl[m] = 33 + np.floor(np.log2(hi[m].astype(np.float64))).astype(np.int64)
    m2 = (~m) & (lo > 0)
    if m2.any():
        bl[m2] = 1 + np.floor(np.log2(lo[m2].astype(np.float64))).astype(np.int64)
    return bl


def _alpha(p: int) -> float:
    if p == 4:
        return 0.673
    if p == 5:
        return 0.697
    if p == 6:
        return 0.709
    return 0.7213 / (1.0 + 1.079 / (1 << p))


class HllSketch:
    """Register-file HLL with vectorized batch updates."""

    def __init__(self, p: int = 8, reg: np.ndarray | None = None, hashfunc: str = "sha1"):
        if not 4 <= p <= 16:
            raise ValueError("p must be in [4, 16]")
        self.hashfunc = hashfunc
        self.p = p
        self.m = 1 << p
        self.reg = np.zeros(self.m, dtype=np.int8) if reg is None else np.asarray(reg, dtype=np.int8)
        self.max_rank = 32 - p
        self.alpha = _alpha(p)

    def update_hashes(self, hv: np.ndarray) -> None:
        """Vectorized update from precomputed 32/64-bit hash values."""
        hv = np.asarray(hv, dtype=np.uint64)
        idx = (hv & np.uint64(self.m - 1)).astype(np.int64)
        bits = (hv >> np.uint64(self.p)).astype(np.uint64)
        bl = _bit_length_u64(bits)
        rank = (self.max_rank - bl + 1).astype(np.int8)
        np.maximum.at(self.reg, idx, rank)

    def update_tokens(self, tokens) -> None:
        from raydedup.hashing import HASH32_FUNCS

        fn = HASH32_FUNCS[self.hashfunc]
        hv = np.fromiter((fn(t) for t in tokens), dtype=np.uint64, count=len(tokens))
        if len(hv):
            self.update_hashes(hv)

    def merge(self, other: "HllSketch") -> "HllSketch":
        if other.p != self.p:
            raise ValueError("precision mismatch")
        np.maximum(self.reg, other.reg, out=self.reg)
        return self

    def count(self) -> float:
        e = self.alpha * float(self.m**2) / np.sum(2.0 ** (-self.reg.astype(np.float64)))
        if e <= 2.5 * self.m:
            num_zero = self.m - np.count_nonzero(self.reg)
            if num_zero > 0:
                return float(self.m * np.log(self.m / float(num_zero)))
            return float(e)
        if e <= (1.0 / 30.0) * (1 << 32):
            return float(e)
        return float(-(1 << 32) * np.log(1.0 - e / (1 << 32)))

    # ------------------------------------------------------ wire format
    def bytesize(self) -> int:
        """Size of the reference wire format: 1 byte ``p`` + ``m``
        register bytes (reference ``hyperloglog.py:270-278``)."""
        return 1 + self.m

    def serialize(self, buf: bytearray | memoryview | None = None) -> bytes:
        """Cross-language byte serialization, byte-compatible with the
        reference (``hyperloglog.py:280-287``: ``struct 'B%dB' % m`` —
        one unsigned byte ``p`` followed by the m registers). With
        ``buf`` given, packs in place like the reference; always
        returns the serialized bytes."""
        out = bytes([self.p]) + self.reg.astype(np.uint8).tobytes()
        if buf is not None:
            if len(buf) < len(out):
                raise ValueError("buffer too small for this HyperLogLog")
            buf[: len(out)] = out
        return out

    @classmethod
    def deserialize(cls, buf) -> "HllSketch":
        """Inverse of :meth:`serialize`; accepts buffers written by the
        reference's ``serialize`` too (same byte layout)."""
        mv = memoryview(buf)
        p = mv[0]
        m = 1 << p
        reg = np.frombuffer(mv[1 : 1 + m], dtype=np.uint8).astype(np.int8)
        return cls(p, reg=reg)


def _distinct_tokens(block, column: str) -> list[bytes]:
    """Distinct column values of a block as utf-8 bytes — HLL registers
    only depend on the DISTINCT hash set, so deduping first (one Arrow
    kernel) removes most of the per-value Python hashing cost."""
    import pyarrow.compute as pc
    from ray.data.block import BlockAccessor

    col = BlockAccessor.for_block(block).to_arrow().column(column)
    vals = pc.unique(pc.cast(col.combine_chunks(), "string"))
    return [v.encode("utf-8") for v in vals.to_pylist() if v is not None]


def _register_aggregate_fn(sketch_cls, column: str, p: int, name: str, hashfunc: str):
    """A ``ray.data.aggregate.AggregateFn`` over ``sketch_cls``'s int8
    register file: partial registers per block, elementwise-max merge,
    estimate at finalize. Works for global and grouped aggregation."""
    from ray.data.aggregate import AggregateFn

    def accumulate_block(state: np.ndarray, block) -> np.ndarray:
        sk = sketch_cls(p, reg=state.copy(), hashfunc=hashfunc)
        sk.update_tokens(_distinct_tokens(block, column))
        return sk.reg

    return AggregateFn(
        init=lambda k: np.zeros(1 << p, dtype=np.int8),
        accumulate_block=accumulate_block,
        merge=lambda a, b: np.maximum(a, b),
        finalize=lambda reg: float(sketch_cls(p, reg=reg).count()),
        name=name,
    )


def hll_aggregate_fn(column: str, p: int = 8, alias_name: str | None = None, hashfunc: str = "sha1"):
    """A ``ray.data.aggregate.AggregateFn`` computing an approximate
    distinct count of ``column`` — partial register files per block,
    elementwise-max merge, estimate at finalize. Works for global and
    grouped aggregation.
    """
    return _register_aggregate_fn(HllSketch, column, p, alias_name or f"hll_ndv({column})", hashfunc)


def hllpp_aggregate_fn(column: str, p: int = 12, alias_name: str | None = None, hashfunc: str = "sha1"):
    """Distributed HLL++ distinct count (64-bit variant with the
    published bias correction) — same shape as ``hll_aggregate_fn``."""
    return _register_aggregate_fn(HllPlusPlusSketch, column, p, alias_name or f"hllpp_ndv({column})", hashfunc)


# HLL++-style 64-bit variant (reference HyperLogLogPlusPlus,
# hyperloglog.py:323-381): 64-bit hash removes the large-range
# correction; small range uses linear counting below the published
# per-p thresholds, and estimates ≤ 5m subtract the empirically
# tabulated bias (mean of the 6 nearest raw-estimate neighbors). The
# threshold / raw-estimate / bias vectors are the public companion data
# of Heule et al., "HyperLogLog in Practice" (EDBT 2013), packed as a
# binary asset (raydedup/data/hllpp_bias.npz).
_HLLPP_CONST: dict | None = None


def _hllpp_const() -> dict:
    global _HLLPP_CONST
    if _HLLPP_CONST is None:
        import os

        path = os.path.join(os.path.dirname(__file__), "data", "hllpp_bias.npz")
        _HLLPP_CONST = dict(np.load(path))
    return _HLLPP_CONST


class HllPlusPlusSketch(HllSketch):
    """64-bit-hash register HLL (merge-compatible only with itself)."""

    def __init__(self, p: int = 8, reg: np.ndarray | None = None, hashfunc: str = "sha1"):
        if not 4 <= p <= 18:
            raise ValueError("p must be in [4, 18] for the 64-bit variant")
        super().__init__(p if p <= 16 else 16, reg, hashfunc=hashfunc)
        if p > 16:  # HllSketch guard is [4,16]; widen for HLL++
            self.p = p
            self.m = 1 << p
            self.reg = np.zeros(self.m, dtype=np.int8) if reg is None else np.asarray(reg, dtype=np.int8)
            self.alpha = _alpha(p)
        self.max_rank = 64 - p

    def update_tokens(self, tokens) -> None:
        from raydedup.hashing import HASH64_FUNCS

        fn = HASH64_FUNCS[self.hashfunc]
        hv = np.fromiter((fn(t) for t in tokens), dtype=np.uint64, count=len(tokens))
        if len(hv):
            self.update_hashes(hv)

    def _estimate_bias(self, e: float) -> float:
        const = _hllpp_const()
        raw = const[f"raw_estimate_p{self.p}"]
        bias = const[f"bias_p{self.p}"]
        nearest = np.argsort((e - raw) ** 2)[:6]
        return float(np.mean(bias[nearest]))

    def count(self) -> float:
        num_zero = self.m - np.count_nonzero(self.reg)
        if num_zero > 0:
            lc = float(self.m * np.log(self.m / float(num_zero)))
            if lc <= float(_hllpp_const()["thresholds"][self.p - 4]):
                return lc
        e = float(
            self.alpha * float(self.m**2) / np.sum(2.0 ** (-self.reg.astype(np.float64)))
        )
        if e <= 5 * self.m:
            return e - self._estimate_bias(e)
        return e

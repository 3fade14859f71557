"""Distributed prefix sum (scan) over an ordered key column.

Ray Data has no scan primitive: cumulative aggregates need every
earlier row's contribution, which a ``map_batches`` can't see and a
``groupby`` destroys. The training-data op that needs one is sequence
packing — concatenate documents in a deterministic order and chunk the
token stream at a fixed sequence length, so every doc needs the global
token offset of its first token (GPT-2/T5-style "concat then chunk";
the reference has no counterpart — this is an engine-level addition).

The scan here is the classic two-level carry, shaped for 100 TB:

1. The caller hands a SLIM projected dataset (order_col int, value_col
   int — ~16 B rows; never text). It is staged once; the two metadata
   passes below re-read the pinned blocks instead of re-executing
   upstream lineage (the double-execution trap the rarity-vocab
   broadcast hit in round 5).
2. Pass A (tiny): per-batch (min, max) of ``order_col`` → global
   bounds on the driver (one row per block).
3. The order domain splits into K fixed-width ranges (K = the shuffle
   partition count — doc ids are dense in every corpus here; a skewed
   id space would swap in quantile boundaries, same carry shape).
   Pass B (tiny): per-batch per-range value sums via argsort+reduceat
   (int64 throughout — no bincount float64, whose 2^53 mantissa a
   10^12-token corpus would overflow) → K int64 totals on the driver
   → exclusive-cumsum carry ``base[k]``.
4. Pass C: one keyed-run pass partitioned on the range id with
   ``order_col`` as the secondary sort — each run is one range's rows
   in order, so offset = base[range] + intra-run exclusive cumsum.
   The K-entry carry ships inside the task closure (K ≤ cluster CPUs;
   a few KB — no broadcast machinery needed).

Driver-side state is O(K + num_blocks) integers regardless of data
size; the only all-to-all moves the slim rows once. ``order_col``
values must be unique (ties would make the intra-run cumsum order,
and therefore the scan, ill-defined).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from raydedup.stages.grouped import (
    auto_partitions,
    effective_partitions,
    map_key_runs,
    staged,
)

__all__ = ["exclusive_prefix_sum"]

_RNG_COL = "__scan_rng"


def exclusive_prefix_sum(
    ds,
    order_col: str,
    value_col: str,
    out_col: str = "offset",
    num_partitions: int | None = None,
):
    """Add ``out_col`` = sum of ``value_col`` over all rows with a
    smaller ``order_col`` (exclusive running total in ``order_col``
    order). Returns a Dataset whose blocks are not in ``order_col``
    order; input should be slim (project first)."""
    slim = staged(ds)
    parts = effective_partitions(
        num_partitions if num_partitions is not None else auto_partitions(slim)
    )

    def batch_bounds(t: pa.Table) -> pa.Table:
        o = t.column(order_col).to_numpy(zero_copy_only=False)
        if len(o) == 0:
            return pa.table({"mn": pa.array([], pa.int64()), "mx": pa.array([], pa.int64())})
        return pa.table({"mn": [int(o.min())], "mx": [int(o.max())]})

    # ray 2.49 skips map UDFs on empty blocks, so a zero-row input block
    # passes through with the pre-UDF (order, value) schema — keep only
    # rows the UDF actually produced
    bounds = [
        b
        for b in slim.map_batches(batch_bounds, batch_format="pyarrow").take_all()
        if "mn" in b
    ]
    if not bounds:
        # Ray 2.49 skips map UDFs on empty blocks, so build the typed
        # empty result explicitly instead of appending in a map.
        import ray.data as rd

        schema = slim.schema()
        empty = pa.table(
            {f.name: pa.array([], f.type) for f in schema.base_schema}
        ).append_column(out_col, pa.array([], pa.int64()))
        return rd.from_arrow(empty)
    mn = min(b["mn"] for b in bounds)
    mx = max(b["mx"] for b in bounds)
    width = max(1, -((mn - mx - 1) // parts))  # ceil((mx-mn+1)/parts)

    def range_sums(t: pa.Table) -> pa.Table:
        o = t.column(order_col).to_numpy(zero_copy_only=False).astype(np.int64)
        v = t.column(value_col).to_numpy(zero_copy_only=False).astype(np.int64)
        rng = (o - mn) // width
        idx = np.argsort(rng, kind="stable")
        rs = rng[idx]
        cut = np.concatenate(([0], np.nonzero(rs[1:] != rs[:-1])[0] + 1))
        return pa.table(
            {
                "rng": pa.array(rs[cut], pa.int64()),
                "s": pa.array(np.add.reduceat(v[idx], cut) if len(cut) else v[:0], pa.int64()),
            }
        )

    partial = slim.map_batches(range_sums, batch_format="pyarrow").take_all()
    totals = np.zeros(parts, np.int64)
    for row in partial:
        if "rng" in row:  # same empty-block pass-through guard
            totals[row["rng"]] += row["s"]
    base = np.concatenate(([0], np.cumsum(totals)[:-1]))

    def add_rng(t: pa.Table) -> pa.Table:
        o = t.column(order_col).to_numpy(zero_copy_only=False).astype(np.int64)
        return t.append_column(_RNG_COL, pa.array((o - mn) // width, pa.int64()))

    tagged = slim.map_batches(add_rng, batch_format="pyarrow")

    def scan_runs(block: pa.Table, starts, ends) -> pa.Table:
        v = block.column(value_col).to_numpy(zero_copy_only=False).astype(np.int64)
        rng = block.column(_RNG_COL).to_numpy(zero_copy_only=False)
        off = np.empty(len(v), np.int64)
        for s, e in zip(starts, ends):  # ~1 range per hash partition
            c = np.cumsum(v[s:e])
            off[s:e] = base[rng[s]] + c - v[s:e]
        return block.drop_columns([_RNG_COL]).append_column(
            out_col, pa.array(off, pa.int64())
        )

    return map_key_runs(
        tagged, _RNG_COL, scan_runs, parts, min_run=1, sort_extra=[order_col]
    )

"""Vectorized group processing: range-partition + sort + per-block runs.

``GroupedData.map_groups`` invokes Python once per group and builds an
Arrow table per group — ruinous when the grouping key has millions of
tiny groups (LSH buckets, anchor windows). This helper instead:

1. ``keyed_partitions``: ``repartition(P)`` (coalesce to P blocks), then
   ``sort(keys)`` — a task-only range partition (sampled boundaries, a
   split in P map tasks, a merge in P reduce tasks). Every key lands
   wholly inside one block: a reducer returns one merged block, and
   the sort is on exactly the run keys, so no boundary falls inside a
   run;
2. ``map_batches(fn, batch_size=None)`` — fn sees a whole partition and
   detects group runs with one vectorized compare, skipping singleton
   runs without touching Python per group.

This is the engine's primitive for all bucket-shaped shuffles; the
partition count P is the knob that maps to cluster width. It starts no
actors. ``aggregate_per_key`` is the grouped sum/min/max/count with a
map-side combiner, on the same keyed grouping; ``map_blocks`` runs a
small map over a pinned table as at most one plain Ray task per CPU;
``top_k_per_key`` keeps the first k rows per key without a keyed
shuffle.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from raydedup.hashing import ragged_arange


def effective_partitions(requested: int) -> int:
    """Clamp a partition count to the cluster's CPU budget. A keyed
    shuffle runs one sample, one map and one reduce task per partition;
    tasks queued beyond the CPU budget make the raylet pre-start idle
    workers (≈ 77 MB each), while on a big cluster the requested count
    scales up."""
    try:
        import ray

        cpus = int(ray.cluster_resources().get("CPU", requested))
    except Exception:  # pragma: no cover
        cpus = requested
    return max(2, min(requested, cpus))


def auto_partitions(ds_or_rows, requested: int | None = None, rows_per_partition: int = 16384) -> int:
    """Partition count scaled to the INPUT size, capped at the cluster
    CPU budget. Each partition of a keyed shuffle costs three tasks
    with a fixed scheduling cost, so small inputs want few partitions;
    any corpus beyond ``cpus × rows_per_partition`` rows hits the CPU
    cap, so cluster-scale behavior is unchanged. The 16k-row default
    was measured on a 32-CPU host: at ~180k input rows the flagship ran
    ~25% faster at 10-16 partitions than at the CPU cap. For Datasets,
    only a METADATA-cheap count is used (``meta_count``); a dataset
    with real lineage falls back to the CPU cap rather than paying a
    full execution just to size the shuffle."""
    rows = ds_or_rows if isinstance(ds_or_rows, int) else meta_count(ds_or_rows)
    cap = effective_partitions(requested if requested else 1 << 30)
    return cap if rows is None else max(2, min(cap, rows // rows_per_partition))


def meta_count(ds) -> int | None:
    """Row count when it is METADATA-cheap (parquet reads, materialized
    stages), else None — never pays an execution."""
    try:
        return ds._meta_count()
    except Exception:  # pragma: no cover - private-API drift
        return None


# Inputs at or below this row count skip the sort and run keyed
# grouping as ONE map task over a metadata-level coalesce. A distributed
# sort is a sample, a map and a reduce round of tasks. On 65,537 slim
# rows (2-CPU session on a 1-CPU host) it took 0.70-0.92 s in traced
# perfbench probes and 0.08-0.72 s (median 0.17 s) over 5 warm
# repeats, against 0.05-0.16 s for the coalesced task.
# The single-task path is semantically identical — all rows of a key in
# one sorted block — and 64k rows of the engine's widest shuffle rows
# (signature fixed_size_list<uint32,128> ≈ 0.5 KB) is ~32 MB, well
# inside one worker's heap. Any corpus beyond the threshold takes the
# distributed sort, so cluster-scale behavior is unchanged.
SMALL_SHUFFLE_ROWS = 65536


def keyed_partitions(ds, keys: list[str], num_partitions: int, approx_rows: int | None = None):
    """Blocks in which every distinct ``keys`` tuple lies wholly in one
    block: the engine's one keyed shuffle.

    Small inputs (see SMALL_SHUFFLE_ROWS) coalesce into one block; only
    a metadata-cheap row count — or a caller-supplied UPPER BOUND
    (``approx_rows``, e.g. for a union the planner can't size) — can
    trigger that, so datasets with real lineage never pay an execution
    to size themselves. Larger inputs coalesce to P blocks first (a
    sort runs one sample, map and reduce task per INPUT block) and then
    range-partition with ``sort(keys)``. Sort on exactly the run keys:
    multi-column boundaries are tuples, so a secondary column would let
    a boundary fall inside a run. Callers sort in-block: the coalesced
    block is unsorted, a secondary order is never a partition key, and
    empty sort partitions come back as zero-column tables."""
    rows = meta_count(ds)
    if rows is None:
        rows = approx_rows
    if rows is not None and rows <= SMALL_SHUFFLE_ROWS:
        return ds.repartition(1)  # split/merge of block refs
    return ds.repartition(effective_partitions(num_partitions)).sort(list(keys))


def staged(ds):
    """Execute-and-pin a stage output (object-store blocks, spillable).

    Sequential staged executions keep one shuffle live at a time (Ray
    2.49's streaming executor ran the substring pipeline 2× slower with
    several all-to-all operators in one plan), and the barrier is free
    in practice: every consumer of these outputs is itself an
    all-to-all."""
    return ds.materialize()


def _map_blocks_task(fn, *blocks) -> pa.Table:
    from ray.data.block import BlockAccessor

    return pa.concat_tables([fn(BlockAccessor.for_block(b).to_arrow()) for b in blocks])


_remote_map_blocks = None


def map_blocks(ds, fn):
    """``fn(pa.Table) -> pa.Table`` over every non-empty block of
    ``ds``, as at most P = ``effective_partitions`` plain Ray tasks.
    Each task takes ⌈blocks/P⌉ contiguous blocks, calls ``fn`` once per
    block and returns one Arrow block; the result is a materialized
    Dataset of those blocks.

    For small maps over pinned data. Before an operator's first task
    reports its output size, Ray Data 2.49 budgets it at twice
    ``target_max_block_size`` (256 MiB), which is the whole Ray Data
    store share of a 512 MiB object store, so a ``map_batches`` over a
    pinned 13-block table ran one ~15 ms task at a time on 2 CPUs. The
    cap of P tasks is deliberate: one task per block queued more tasks
    than CPUs and the raylet started extra workers (≈ 77 MB each).

    Runs eagerly; a lazy ``ds`` executes once, here. Zero-row input
    blocks are dropped on the driver from the block metadata, so ``fn``
    never sees one, as with ``map_batches``; an input with no rows
    returns an empty Dataset with no blocks."""
    import ray
    import ray.data as rd

    global _remote_map_blocks
    blocks = [ref for bundle in ds.iter_internal_ref_bundles() for ref, meta in bundle.blocks if meta.num_rows != 0]
    if not blocks:
        return rd.from_arrow_refs([])
    if _remote_map_blocks is None:
        _remote_map_blocks = ray.remote(_map_blocks_task)
    fn_ref = ray.put(fn)
    per = -(-len(blocks) // effective_partitions(len(blocks)))
    return rd.from_arrow_refs(
        [_remote_map_blocks.remote(fn_ref, *blocks[i : i + per]) for i in range(0, len(blocks), per)]
    )


def task_stage(cls, **kwargs):
    """Per-task cache around a stage class for ``map_batches`` tasks:
    ``cls(**kwargs)`` is built once per map TASK and reused across that
    task's batches (the closure, ``holder`` included, is deserialized
    per task), while scheduling stays elastic tasks — right for stages
    whose state is tiny (seed-derived permutations, codec parameters,
    compiled regexes) or one broadcast ObjectRef fetched in
    ``__init__``. Only state too costly to rebuild per task (a model)
    would want an actor pool."""
    holder: dict = {}

    def fn(batch):
        if "s" not in holder:
            holder["s"] = cls(**kwargs)
        return holder["s"](batch)

    return fn


def _run_bounds(block: pa.Table, keys: list[str]):
    n = len(block)
    change = np.zeros(n - 1, dtype=bool)
    for k in keys:
        col = block.column(k).to_numpy(zero_copy_only=False)
        change |= col[1:] != col[:-1]
    idx = np.nonzero(change)[0] + 1
    starts = np.concatenate(([0], idx))
    ends = np.concatenate((idx, [n]))
    return starts, ends


def map_key_runs(ds, keys: str | list[str], run_fn, num_partitions: int, min_run: int = 2, sort_extra: list[str] | tuple = (), approx_rows: int | None = None, **map_kwargs):
    """Apply ``run_fn(block, starts, ends)`` to every key partition.

    ``block`` is a pyarrow.Table sorted by ``keys`` (+ ``sort_extra``
    as secondary sort columns — runs are still delimited on ``keys``
    alone, but rows inside each run arrive in ``sort_extra`` order,
    letting run kernels replace per-run sorting/unique with
    consecutive-run logic); ``starts``/``ends`` are numpy index arrays
    delimiting runs with ≥ 2 rows (singleton groups are pre-filtered —
    the common case for LSH buckets). ``run_fn`` returns a
    pyarrow.Table.

    Partitions come from ``keyed_partitions``; ``per_block`` sorts
    in-block (the coalesced path arrives unsorted, and ``sort_extra``
    is never a range-partition key). Ray 2.49 skips the map UDF on
    empty blocks, so empty partitions — zero-column tables out of the
    sort — never reach ``run_fn`` from the shuffle.
    """
    if isinstance(keys, str):
        keys = [keys]
    parted = keyed_partitions(ds, keys, num_partitions, approx_rows)

    sort_cols = list(keys) + [c for c in sort_extra if c not in keys]

    def per_block(block: pa.Table) -> pa.Table:
        if len(block) == 0:
            return run_fn(block, np.empty(0, np.int64), np.empty(0, np.int64))
        block = block.sort_by([(k, "ascending") for k in sort_cols])
        starts, ends = _run_bounds(block, keys)
        multi = (ends - starts) >= min_run
        return run_fn(block, starts[multi], ends[multi])

    return parted.map_batches(per_block, batch_size=None, batch_format="pyarrow", **map_kwargs)


def top_k_per_key(ds, keys: list[str], order: list[tuple[str, str]], k: int):
    """The first ``k`` rows of every distinct ``keys`` tuple under the
    total order ``order`` (pyarrow sort keys, e.g. ``[("cos",
    "descending"), ("id", "ascending")]``); with ``keys=[]`` the whole
    dataset is one group. Output rows come sorted by ``keys`` ascending,
    then ``order``.

    One kernel, two passes: every block keeps its own first k per key
    (the combiner), then one task over ``repartition(1)`` keeps the
    first k of those. The first k of per-block first k's is the global
    first k, and a full sort, unlike a partial select, never drops a
    tied row that wins globally. Only keys × k × blocks rows reach the
    merge, so it needs no keyed shuffle."""
    spec = [(c, "ascending") for c in keys] + list(order)

    def first_k(block: pa.Table) -> pa.Table:
        if len(block) == 0:
            return block
        block = block.sort_by(spec)
        starts, ends = _run_bounds(block, keys)
        cnt = np.minimum(ends - starts, k)
        return block.take(pa.array(np.repeat(starts, cnt) + ragged_arange(cnt)))

    combined = ds.map_batches(first_k, batch_size=None, batch_format="pyarrow")
    return combined.repartition(1).map_batches(first_k, batch_size=None, batch_format="pyarrow")


_MERGE = {"sum": "sum", "min": "min", "max": "max", "count": "sum"}


def _null_free(col):
    """``col`` with nulls replaced by one fixed value of its type ("" or
    0)."""
    if col.null_count == 0:
        return col
    t = col.type
    text = pa.types.is_string(t) or pa.types.is_large_string(t) or pa.types.is_binary(t) or pa.types.is_large_binary(t)
    return pc.fill_null(col, pa.scalar("" if text else 0).cast(t))


def aggregate_per_key(ds, keys: list[str], aggs: dict[str, tuple[str, str]]):
    """One row per distinct ``keys`` tuple with its grouped aggregates:
    ``aggs`` maps each output column to ``(input column, fn)``, fn one
    of ``sum``, ``min``, ``max`` or ``count``. ``count`` counts non-null
    values, like SQL ``count(col)``; ``aggs={}`` gives the distinct
    keys. A null key is its own group, as in SQL ``GROUP BY``. Output
    row order is unspecified.

    One kernel, two passes: every block collapses to one row per key
    (the combiner, pyarrow's ``group_by``), the partials are pinned, and
    the same kernel merges them per key partition (counts merge as
    sums). Pinning makes the partial row count metadata-cheap, so
    ``keyed_partitions`` sizes the merge from the partials, not the
    input.

    The kernel never groups on a column holding nulls: a key with nulls
    is grouped as a null-free copy plus a validity flag, because pyarrow
    16's multi-key ``group_by`` splits groups when a key holds nulls (a
    string key before an int64 key with nulls gave 46 groups for 43
    distinct keys). The merge sorts on the null-free copies too, since
    Ray's sort boundary search compares None with ``<`` and raises on
    string keys; a null and its fill value then share one block, and
    the validity flag keeps them apart."""
    merge = {out: (out, _MERGE[fn]) for out, (_, fn) in aggs.items()}  # KeyError: not sum/min/max/count
    sort_keys = [f"__key{i}" for i in range(len(keys))]

    def kernel(specs: dict[str, tuple[str, str]], with_sort_keys: bool):
        pairs = list(dict.fromkeys(specs.values()))  # each (col, fn) once

        def fn(block: pa.Table) -> pa.Table:
            by = {}
            for i, k in enumerate(keys):
                col = block.column(k)
                by[sort_keys[i]] = _null_free(col)
                if col.null_count:
                    by[f"__valid{i}"] = pc.is_valid(col)
            t = pa.table({**by, **{c: block.column(c) for c, _ in pairs}})
            g = t.group_by(list(by), use_threads=False).aggregate(pairs)
            cols = {}
            for i, (k, s) in enumerate(zip(keys, sort_keys)):
                kc = g.column(s)
                if f"__valid{i}" in by:
                    kc = pc.if_else(g.column(f"__valid{i}"), kc, pa.nulls(len(g), kc.type))
                cols[k] = kc
            cols.update({out: g.column(f"{c}_{f}") for out, (c, f) in specs.items()})
            if with_sort_keys:
                cols.update({s: g.column(s) for s in sort_keys})
            return pa.table(cols)

        return fn

    pre = staged(ds.map_batches(kernel(aggs, True), batch_size=None, batch_format="pyarrow"))
    parted = keyed_partitions(pre, sort_keys, auto_partitions(pre))
    return parted.map_batches(kernel(merge, False), batch_size=None, batch_format="pyarrow")


def unique_rows_partitioned(ds, keys: list[str], num_partitions: int):
    """Distinct rows over ``keys`` (projection included): key partition
    + per-block sort + keep first of each run — the vectorized
    replacement for ``groupby(keys).count()``-style dedupe."""
    parted = keyed_partitions(ds, keys, num_partitions)

    def per_block(block: pa.Table) -> pa.Table:
        block = block.select(keys)
        if len(block) <= 1:
            return block
        block = block.sort_by([(k, "ascending") for k in keys])
        starts, _ = _run_bounds(block, keys)
        return block.take(pa.array(starts))

    return parted.map_batches(per_block, batch_size=None, batch_format="pyarrow")

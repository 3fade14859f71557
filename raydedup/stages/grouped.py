"""Vectorized group processing: hash-partition + per-partition runs.

``GroupedData.map_groups`` invokes Python once per group and builds an
Arrow table per group — ruinous when the grouping key has millions of
tiny groups (LSH buckets, anchor windows). ``map_key_runs`` is the
engine's one path for keyed run processing instead:

1. ``keyed_partitions`` (internal), the engine's one keyed shuffle, on
   plain Ray tasks: at most P split tasks hash the key tuple of their
   contiguous input blocks and return P slices each, then P reduce
   tasks concatenate one slice from every split task, so every key
   lies wholly inside one partition, and call a per-partition
   function on it;
2. for ``map_key_runs`` that function sorts the partition by the keys
   (plus any secondary columns) and finds its runs with
   ``_run_bounds``, one Arrow compare per key, so the run function sees
   a whole partition and never runs Python per group.

The partition count P is the knob that maps to cluster width. It
starts no actors and runs no Ray Data operator after the shuffle.
Every keyed operator here sits on the same keyed grouping:
``unique_rows_partitioned`` is a ``map_key_runs`` that keeps each run's
first row; ``aggregate_per_key`` is the grouped sum/min/max/count with
a map-side combiner; ``top_k_per_key`` keeps the first k rows per key
without a keyed shuffle, on ``_run_bounds``. ``map_blocks`` runs a map
over a pinned table or a lazy read as at most one plain Ray task per
CPU.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from raydedup.hashing import ragged_arange


def effective_partitions(requested: int) -> int:
    """Clamp a partition count to the cluster's CPU budget. A keyed
    shuffle runs one split and one reduce task per partition; tasks
    queued beyond the CPU budget make the raylet pre-start idle
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
    CPU budget. Each partition of a keyed shuffle costs two tasks
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


# Inputs at or below this row count run keyed grouping as ONE reduce
# task over all input blocks, with no split round (P = 1): a split
# round is a second task round-trip for every partition. 64k rows of
# the engine's widest shuffle rows (signature fixed_size_list<uint32,
# 128> ≈ 0.5 KB) is ~32 MB, well inside one worker's heap; any input
# beyond the threshold is hash-partitioned, so cluster-scale behavior
# is unchanged.
SMALL_SHUFFLE_ROWS = 65536

# Any fixed seed: every split task must hash a key tuple alike.
_KEY_SEED = 0x5EED


def _key_partition(t: pa.Table, keys: list[str], num_partitions: int) -> np.ndarray:
    """Partition index in [0, P) of every row of ``t``: polars' row hash
    of the ``keys`` tuple, so equal tuples, nulls included, get one
    index in every process. Dictionary columns are decoded first
    (polars hashes a category by its code)."""
    import polars as pl

    cols = [c.cast(c.type.value_type) if pa.types.is_dictionary(c.type) else c for c in t.select(keys).columns]
    h = pl.from_arrow(pa.table(cols, names=keys)).hash_rows(seed=_KEY_SEED).to_numpy()
    return (h % np.uint64(num_partitions)).astype(np.int64)


def _concat(blocks) -> pa.Table:
    from ray.data.block import BlockAccessor

    return pa.concat_tables([BlockAccessor.for_block(b).to_arrow() for b in blocks], promote_options="permissive")


def _split_task(keys, num_partitions, *blocks):
    """The rows of ``blocks`` as P slices: slice i holds the rows whose
    key tuple hashes to partition i."""
    t = _concat(blocks)
    part = _key_partition(t, keys, num_partitions)
    cuts = np.concatenate(([0], np.cumsum(np.bincount(part, minlength=num_partitions))))
    t = t.take(pa.array(np.argsort(part, kind="stable")))
    return tuple(t.slice(cuts[i], cuts[i + 1] - cuts[i]) for i in range(num_partitions))


def _reduce_task(fn, *slices):
    """``fn`` over one whole partition, with its output's block
    metadata; ``(None, None)`` for an empty partition."""
    from ray.data.block import BlockMetadataWithSchema

    t = _concat(slices)
    if t.num_rows == 0:
        return None, None
    out = fn(t)
    return out, BlockMetadataWithSchema.from_block(out)


def keyed_partitions(ds, keys: list[str], num_partitions: int, fn):
    """``fn(pa.Table) -> pa.Table`` over every key partition of ``ds``:
    the engine's one keyed shuffle. Every distinct ``keys`` tuple lies
    wholly inside one partition; ``fn`` gets each non-empty partition
    once, as one unsorted table, and never an empty one.

    Eager: a lazy ``ds`` executes once, here, and the block metadata
    of its output gives the exact row count. Up to SMALL_SHUFFLE_ROWS
    rows run as one reduce task over all the blocks (P = 1). Above it,
    at most P = ``effective_partitions(num_partitions)`` split tasks
    each take contiguous input blocks and return P slices by the key
    hash, and P reduce tasks each concatenate their slices and call
    ``fn``. Returns a materialized Dataset of ``fn``'s outputs, one
    block per non-empty partition, in no key order across blocks. A
    hot key lands wholly in one partition."""
    import ray

    blocks, rows = _input_blocks(ds)
    if not blocks:
        return _pinned_dataset([], [])
    if rows <= SMALL_SHUFFLE_ROWS:
        parts = [blocks]
    else:
        p = effective_partitions(num_partitions)
        per = -(-len(blocks) // p)
        split = _remote(_split_task).options(num_returns=p)
        slices = [split.remote(keys, p, *blocks[i : i + per]) for i in range(0, len(blocks), per)]
        parts = [[s[i] for s in slices] for i in range(p)]
    fn_ref = ray.put(fn)
    reduce = _remote(_reduce_task).options(num_returns=2)
    outs = [reduce.remote(fn_ref, *part) for part in parts]
    metas = ray.get([o[1] for o in outs])
    return _pinned_dataset([o[0] for o, m in zip(outs, metas) if m is not None], [m for m in metas if m is not None])


def staged(ds):
    """Execute-and-pin a lazy stage output that more than one consumer
    reads (object-store blocks, spillable), so its lineage runs once.
    A keyed result needs no pin: ``keyed_partitions`` is eager."""
    return ds.materialize()


def _map_blocks_task(fn, *blocks):
    from ray.data.block import BlockAccessor, BlockMetadataWithSchema

    out = pa.concat_tables([fn(BlockAccessor.for_block(b).to_arrow()) for b in blocks])
    return out, BlockMetadataWithSchema.from_block(out)


_REMOTE: dict = {}


def _remote(task):
    """``ray.remote(task)``, built once per process."""
    if task not in _REMOTE:
        import ray

        _REMOTE[task] = ray.remote(task)
    return _REMOTE[task]


def _input_blocks(ds) -> tuple[list, int]:
    """The refs of ``ds``'s non-empty blocks and their total row count,
    from the block metadata; a lazy ``ds`` executes once, here, and its
    blocks stay in the object store while the refs are held."""
    metas = [(ref, meta.num_rows) for bundle in ds.iter_internal_ref_bundles() for ref, meta in bundle.blocks if meta.num_rows != 0]
    return [ref for ref, _ in metas], sum(n for _, n in metas)


def _pinned_dataset(refs: list, meta: list):
    """``ray.data.from_arrow_refs(refs)`` given each block's
    ``BlockMetadataWithSchema`` (what ``from_arrow_refs`` computes in
    one remote task per block)."""
    from ray.data._internal.logical.interfaces import LogicalPlan
    from ray.data._internal.logical.operators.from_operators import FromArrow
    from ray.data._internal.plan import ExecutionPlan
    from ray.data._internal.stats import DatasetStats
    from ray.data.context import DataContext
    from ray.data.dataset import MaterializedDataset

    plan = ExecutionPlan(DatasetStats(metadata={"FromArrow": meta}, parent=None), DataContext.get_current().copy())
    return MaterializedDataset(plan, LogicalPlan(FromArrow(refs, meta), plan._context))


def map_blocks(ds, fn):
    """``fn(pa.Table) -> pa.Table`` over every non-empty block of
    ``ds``, as at most P = ``effective_partitions`` plain Ray tasks.
    Each task takes ⌈blocks/P⌉ contiguous blocks, calls ``fn`` once per
    block and returns one Arrow block with its block metadata; the
    result is a materialized Dataset of those blocks. The tasks return
    the metadata so that building the Dataset runs no further task:
    ``ray.data.from_arrow_refs`` runs one per block, and in a cold
    2-CPU session one such task waited 0.65 s for a worker the raylet
    started for it.

    For maps over a pinned table (the band explode, the substring
    passes, the split of the components peel output) or a lazy read
    (the signature map). Before an operator's
    first task reports its output size, Ray Data 2.49 budgets it at
    twice ``target_max_block_size`` (256 MiB), which is the whole Ray
    Data store share of a 512 MiB object store, so a ``map_batches``
    over a pinned 13-block table ran one ~15 ms task at a time on 2
    CPUs. The cap of P tasks is deliberate: one task
    per block queued more tasks than CPUs and the raylet started extra
    workers (≈ 77 MB each).

    Runs eagerly; a lazy ``ds`` executes once, here, and its blocks
    stay in the object store until the tasks finish. Zero-row input
    blocks are dropped on the driver from the block metadata, so ``fn``
    never sees one, as with ``map_batches``; an input with no rows
    returns an empty Dataset with no blocks."""
    import ray

    blocks, _ = _input_blocks(ds)
    if not blocks:
        return _pinned_dataset([], [])
    fn_ref = ray.put(fn)
    per = -(-len(blocks) // effective_partitions(len(blocks)))
    task = _remote(_map_blocks_task).options(num_returns=2)
    outs = [task.remote(fn_ref, *blocks[i : i + per]) for i in range(0, len(blocks), per)]
    return _pinned_dataset([o[0] for o in outs], ray.get([o[1] for o in outs]))


def task_stage(cls, **kwargs):
    """Per-task cache around a stage class for ``map_batches`` tasks:
    ``cls(**kwargs)`` is built once per map TASK and reused across that
    task's batches (the closure, ``holder`` included, is deserialized
    per task), while scheduling stays elastic tasks — right for stages
    whose state is tiny (the weighted MinHash's seed-derived
    permutations, codec parameters, compiled regexes) or one broadcast
    ObjectRef fetched in ``__init__``. Only state too costly to rebuild
    per task (a model) would want an actor pool. The signature map does
    not use it: ``signatures.signature_map`` builds its stage per block
    inside ``map_blocks`` tasks."""
    holder: dict = {}

    def fn(batch):
        if "s" not in holder:
            holder["s"] = cls(**kwargs)
        return holder["s"](batch)

    return fn


def _run_bounds(block: pa.Table, keys: list[str]):
    """``(starts, ends)`` of the runs of equal ``keys`` tuples in a
    block sorted by ``keys``: one Arrow ``not_equal`` per key, so string
    keys never become Python objects. A null equals a null and differs
    from every value, as in SQL ``GROUP BY``."""
    n = len(block)
    if n == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    change = np.zeros(n - 1, dtype=bool)
    for k in keys:
        col = block.column(k)
        ne = pc.not_equal(col.slice(1), col.slice(0, n - 1))
        change |= pc.fill_null(ne, False).to_numpy(zero_copy_only=False)
        if col.null_count:
            null = pc.is_null(col).to_numpy(zero_copy_only=False)
            change |= null[1:] != null[:-1]
    idx = np.flatnonzero(change) + 1
    return np.concatenate(([0], idx)), np.concatenate((idx, [n]))


def map_key_runs(ds, keys: str | list[str], run_fn, num_partitions: int, min_run: int = 2, sort_extra: list[str] | tuple = ()):
    """Apply ``run_fn(block, starts, ends)`` to every key partition:
    the engine's one path for keyed run processing.

    ``block`` is a pyarrow.Table sorted by ``keys`` (+ ``sort_extra``
    as secondary sort columns — runs are still delimited on ``keys``
    alone, but rows inside each run arrive in ``sort_extra`` order,
    letting run kernels replace per-run sorting/unique with
    consecutive-run logic); ``starts``/``ends`` are numpy index arrays
    delimiting runs with ≥ ``min_run`` rows (by default singleton
    groups, the common case for LSH buckets, are pre-filtered).
    ``run_fn`` returns a pyarrow.Table.

    Partitions come from ``keyed_partitions``, so the call is eager
    and returns a materialized Dataset; each partition is sorted in
    its reduce task, and an empty partition never reaches ``run_fn``.
    """
    if isinstance(keys, str):
        keys = [keys]
    spec = [(c, "ascending") for c in dict.fromkeys([*keys, *sort_extra])]

    def per_partition(block: pa.Table) -> pa.Table:
        block = block.sort_by(spec)
        starts, ends = _run_bounds(block, keys)
        multi = (ends - starts) >= min_run
        return run_fn(block, starts[multi], ends[multi])

    return keyed_partitions(ds, keys, num_partitions, per_partition)


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
    (the combiner, pyarrow's ``group_by``), then ``keyed_partitions``
    merges the partials per key partition with the same kernel (counts
    merge as sums).

    The kernel never groups on a column holding nulls: a key with nulls
    is grouped as a null-free copy plus a validity flag, because pyarrow
    16's multi-key ``group_by`` splits groups when a key holds nulls (a
    string key before an int64 key with nulls gave 46 groups for 43
    distinct keys)."""
    merge = {out: (out, _MERGE[fn]) for out, (_, fn) in aggs.items()}  # KeyError: not sum/min/max/count

    def kernel(specs: dict[str, tuple[str, str]]):
        pairs = list(dict.fromkeys(specs.values()))  # each (col, fn) once

        def fn(block: pa.Table) -> pa.Table:
            by = {}
            for i, k in enumerate(keys):
                col = block.column(k)
                by[f"__key{i}"] = _null_free(col)
                if col.null_count:
                    by[f"__valid{i}"] = pc.is_valid(col)
            t = pa.table({**by, **{c: block.column(c) for c, _ in pairs}})
            g = t.group_by(list(by), use_threads=False).aggregate(pairs)
            cols = {}
            for i, k in enumerate(keys):
                kc = g.column(f"__key{i}")
                if f"__valid{i}" in by:
                    kc = pc.if_else(g.column(f"__valid{i}"), kc, pa.nulls(len(g), kc.type))
                cols[k] = kc
            cols.update({out: g.column(f"{c}_{f}") for out, (c, f) in specs.items()})
            return pa.table(cols)

        return fn

    pre = ds.map_batches(kernel(aggs), batch_size=None, batch_format="pyarrow")
    return keyed_partitions(pre, keys, auto_partitions(ds), kernel(merge))


def unique_rows_partitioned(ds, keys: list[str], num_partitions: int):
    """Distinct rows over ``keys`` (projection included): the first row
    of every run — the vectorized replacement for
    ``groupby(keys).count()``-style dedupe."""

    def first_rows(block: pa.Table, starts, ends) -> pa.Table:
        return block.select(keys).take(pa.array(starts))

    return map_key_runs(ds, keys, first_rows, num_partitions, min_run=1)

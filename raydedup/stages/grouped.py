"""Vectorized group processing: hash-partition + sort + per-block runs.

``GroupedData.map_groups`` invokes Python once per group and builds an
Arrow table per group — ruinous when the grouping key has millions of
tiny groups (LSH buckets, anchor windows). This helper instead:

1. ``repartition(P, keys=[...])`` under the HASH_SHUFFLE strategy —
   every group lands wholly inside one block (sorted per-block in the
   UDF; finalize-time sort is unsafe on empty partitions, see
   ``map_key_runs``);
2. ``map_batches(fn, batch_size=None)`` — fn sees a whole partition and
   detects group runs with one ``np.unique`` call, skipping singleton
   runs without touching Python per group.

This is the engine's primitive for all bucket-shaped shuffles; the
partition count P is the knob that maps to cluster width.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def ensure_hash_shuffle():
    """Make the global DataContext safe+fast for hash shuffles: select
    HASH_SHUFFLE (needed by keyed repartition) and clamp the default
    shuffle parallelism to the CPU budget — the stock default (200
    partitions → up to 64 aggregator actors) deadlocks sessions with few
    CPUs. Datasets snapshot the context at creation, so call this before
    building datasets (queries._read / pipeline entry do)."""
    import os

    from ray.data.context import DataContext, ShuffleStrategy

    ctx = DataContext.get_current()
    if ctx.shuffle_strategy != ShuffleStrategy.HASH_SHUFFLE:
        ctx.shuffle_strategy = ShuffleStrategy.HASH_SHUFFLE
    cpus = _session_cpus()
    _fit_aggregators(ctx, cpus)
    if not cpus:
        cpus = os.cpu_count() or 8
    ctx.default_hash_shuffle_parallelism = max(2, cpus)
    return ctx


def _session_cpus() -> int:
    """CPU budget of the live Ray session; 0 when none is running."""
    try:
        import ray

        return int(ray.cluster_resources().get("CPU", 0)) if ray.is_initialized() else 0
    except Exception:  # pragma: no cover
        return 0


def _fit_aggregators(ctx, cpus: int) -> None:
    """Below 2 CPUs, Ray 2.49 reserves ``min(1, (CPU/2)/P)`` CPU per
    hash-shuffle (and keyed groupby-aggregate) aggregator actor while
    each map task asks for a full CPU, so the map tasks never schedule
    and the first shuffle hangs. Zero-CPU aggregators leave the one CPU
    to the map tasks. Sessions with 2+ CPUs keep Ray's default."""
    if 0 < cpus < 2:
        ctx.hash_shuffle_operator_actor_num_cpus_per_partition_override = 0
        ctx.hash_aggregate_operator_actor_num_cpus_per_partition_override = 0


def effective_partitions(requested: int) -> int:
    """Clamp a partition count to the cluster's CPU budget. Each hash
    shuffle spawns ~one aggregator actor per partition; asking for more
    partitions than CPUs just multiplies actors (and can wedge a small
    session), while on a big cluster the requested count scales up."""
    try:
        import ray

        cpus = int(ray.cluster_resources().get("CPU", requested))
    except Exception:  # pragma: no cover
        cpus = requested
    return max(2, min(requested, cpus))


def auto_partitions(ds_or_rows, requested: int | None = None, rows_per_partition: int = 16384) -> int:
    """Partition count scaled to the INPUT size, capped at the cluster
    CPU budget. Each hash shuffle spawns one aggregator actor per
    partition with a measurable fixed cost (~0.1s each), so small
    inputs want few partitions; any corpus beyond ``cpus ×
    rows_per_partition`` rows hits the CPU cap, so cluster-scale
    behavior is unchanged. The 16k-row default is measured: at ~180k
    input rows the flagship runs ~25% faster at 10-16 partitions than
    at the 32-CPU cap (aggregator spawn cost), while 2-8-CPU sessions
    and 1M+-row corpora stay CPU-capped either way. For Datasets, only a METADATA-cheap count is
    used (parquet reads, materialized stages — ``_meta_count``); a
    dataset with real lineage falls back to the CPU cap rather than
    paying a full execution just to size the shuffle."""
    if isinstance(ds_or_rows, int):
        rows = ds_or_rows
    else:
        try:
            rows = ds_or_rows._meta_count()
        except Exception:  # pragma: no cover - private-API drift
            rows = None
        if rows is None:
            return effective_partitions(requested if requested else 1 << 30)
    cap = effective_partitions(requested if requested else 1 << 30)
    return max(2, min(cap, rows // rows_per_partition))


def meta_count(ds) -> int | None:
    """Row count when it is METADATA-cheap (parquet reads, materialized
    stages), else None — never pays an execution."""
    try:
        return ds._meta_count()
    except Exception:  # pragma: no cover - private-API drift
        return None


# Inputs at or below this row count skip the hash-shuffle operator and
# run keyed grouping as ONE map task over a metadata-level coalesce:
# in Ray 2.49 a HashShuffleOperator execution costs ~1.3-1.7 s of fixed
# aggregator-actor machinery even on a 5k-row input (measured vs 0.55 s
# for a plain map execution), which dominates every small-table query.
# The single-task path is semantically identical — all rows of a key in
# one sorted block — and 64k rows of the engine's widest shuffle rows
# (signature fixed_size_list<uint32,128> ≈ 0.5 KB) is ~32 MB, well
# inside one worker's heap. Large inputs are untouched: any corpus
# beyond the threshold takes the distributed aggregator path exactly as
# before, so cluster-scale behavior is unchanged.
SMALL_SHUFFLE_ROWS = 65536


def _keyed_partitions(ds, keys: list[str], num_partitions: int, approx_rows: int | None = None):
    """Keyed repartition with the small-input fast path (see
    SMALL_SHUFFLE_ROWS). Only a metadata-cheap row count — or a
    caller-supplied UPPER BOUND (``approx_rows``, e.g. for a union the
    planner can't size) — can trigger
    the coalesce; datasets with real lineage never pay an execution to
    size themselves."""
    rows = meta_count(ds)
    if rows is None:
        rows = approx_rows
    if rows is not None and rows <= SMALL_SHUFFLE_ROWS:
        return ds.repartition(1)  # split/merge of block refs, no actors
    return ds.repartition(effective_partitions(num_partitions), keys=keys)


def staged(ds):
    """Execute-and-pin a stage output (object-store blocks, spillable).

    Ray 2.49's streaming executor degrades badly when several
    HashShuffleOperators are live in one plan (measured 2× wall on the
    substring pipeline; GCS function-export contention — see round-1
    notes). Sequential staged executions are both safer and faster, and
    the barrier is free in practice: every consumer of these outputs is
    itself an all-to-all."""
    return ds.materialize()


def task_stage(cls, **kwargs):
    """Per-worker cache around a stage class for ``map_batches`` tasks:
    ``cls(**kwargs)`` is built once per worker PROCESS (the same
    amortization as an actor pool) while scheduling stays elastic
    tasks — right for stages whose state is tiny (seed-derived
    permutations, compiled regexes, small tables). Heavy-state stages
    (decode codecs, models) stay real actor pools."""
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


def tune_for_session(ds):
    """Retrofit a dataset's snapshotted DataContext for this session:
    hash strategy + parallelism clamped to the *actual* CPU budget.
    Datasets snapshot the context at creation, so datasets built before
    ``ensure_hash_shuffle`` ran (or before ray.init fixed the CPU count)
    would otherwise carry an unclamped default (or, on a 1-CPU session,
    full-CPU aggregators) that deadlocks small sessions."""
    try:
        from ray.data.context import ShuffleStrategy

        ds.context.shuffle_strategy = ShuffleStrategy.HASH_SHUFFLE
        ds.context.default_hash_shuffle_parallelism = effective_partitions(1 << 30)
        _fit_aggregators(ds.context, _session_cpus())
    except Exception:  # pragma: no cover
        pass
    return ds


def map_key_runs(ds, keys: str | list[str], run_fn, num_partitions: int, min_run: int = 2, sort_extra: list[str] | tuple = (), approx_rows: int | None = None, **map_kwargs):
    """Apply ``run_fn(block, starts, ends)`` to every hash partition.

    ``block`` is a pyarrow.Table sorted by ``keys`` (+ ``sort_extra``
    as secondary sort columns — runs are still delimited on ``keys``
    alone, but rows inside each run arrive in ``sort_extra`` order,
    letting run kernels replace per-run sorting/unique with
    consecutive-run logic); ``starts``/``ends`` are numpy index arrays
    delimiting runs with ≥ 2 rows (singleton groups are pre-filtered —
    the common case for LSH buckets). ``run_fn`` returns a
    pyarrow.Table.

    The keyed repartition deliberately does NOT use ``sort=True``: the
    hash-shuffle aggregator's finalize-time ``sort_by`` crashes on
    partitions that received no schema (ray 2.49 skips the map UDF on
    empty blocks AND skips the schema broadcast when the first shuffled
    block is empty → a zero-column empty partition has no key columns
    to sort). Sorting inside ``per_block`` is the same work, runs only
    on non-empty partitions, and makes every keyed shuffle in the
    engine safe against empty upstream partitions.
    """
    if isinstance(keys, str):
        keys = [keys]
    ensure_hash_shuffle()
    tune_for_session(ds)
    parted = _keyed_partitions(ds, keys, num_partitions, approx_rows)

    sort_cols = list(keys) + [c for c in sort_extra if c not in keys]

    def per_block(block: pa.Table) -> pa.Table:
        if len(block) == 0:
            return run_fn(block, np.empty(0, np.int64), np.empty(0, np.int64))
        block = block.sort_by([(k, "ascending") for k in sort_cols])
        starts, ends = _run_bounds(block, keys)
        multi = (ends - starts) >= min_run
        return run_fn(block, starts[multi], ends[multi])

    return parted.map_batches(per_block, batch_size=None, batch_format="pyarrow", **map_kwargs)


def merge_key_groups(ds, key: str, group_fn):
    """Tail merge for per-block partial results (e.g. top-k candidates
    per (query, block)): the input is tiny BY CONSTRUCTION — k × Q ×
    num_blocks rows — so a hash-shuffle ``groupby().map_groups`` costs
    more in aggregator machinery (~1.3-1.7 s fixed per execution, see
    SMALL_SHUFFLE_ROWS) than the merge itself. Coalesce the block refs
    into ONE map task, sort by ``key``, and call ``group_fn`` once per
    key run — Q Python calls on a few hundred rows, never driver-side."""

    def per_block(block: pa.Table) -> pa.Table:
        if len(block) == 0:
            return group_fn(block)
        block = block.sort_by([(key, "ascending")])
        starts, ends = _run_bounds(block, [key])
        outs = [group_fn(block.slice(s, e - s)) for s, e in zip(starts, ends)]
        return pa.concat_tables(outs)

    return ds.repartition(1).map_batches(
        per_block, batch_size=None, batch_format="pyarrow"
    )


def unique_rows_partitioned(ds, keys: list[str], num_partitions: int):
    """Distinct rows over ``keys`` (projection included): hash-partition
    + per-block sort + keep first of each run — the vectorized
    replacement for ``groupby(keys).count()``-style dedupe. Sort happens
    inside the block UDF, never in shuffle finalize (see map_key_runs)."""
    ensure_hash_shuffle()
    tune_for_session(ds)
    parted = _keyed_partitions(ds, keys, num_partitions)

    def per_block(block: pa.Table) -> pa.Table:
        block = block.select(keys)
        if len(block) <= 1:
            return block
        block = block.sort_by([(k, "ascending") for k in keys])
        starts, _ = _run_bounds(block, keys)
        return block.take(pa.array(starts))

    return parted.map_batches(per_block, batch_size=None, batch_format="pyarrow")

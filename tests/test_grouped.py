"""Regression tests for the keyed-shuffle primitive (stages/grouped.py).

Keyed grouping is a coalesce to P blocks plus a range-partition sort;
every distinct key must reach exactly one ``per_block`` call, also when
partitions far outnumber keys (empty sort partitions come back as
zero-column tables, and Ray 2.49 skips map UDFs on empty blocks) and
when blocks exceed a small ``target_max_block_size``. These tests chain
keyed shuffles with far more partitions than keys and verify results
stay correct on both sides of the SMALL_SHUFFLE_ROWS gate.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest


def _ds_from_table(t: pa.Table, blocks: int):
    import ray.data as rd

    return rd.from_arrow(t).repartition(blocks)


def test_map_key_runs_more_partitions_than_keys(ray_session, shuffle_mode):
    from raydedup.stages.grouped import map_key_runs, unique_rows_partitioned

    # ONE distinct key, 64 requested partitions → nearly every hash
    # partition is empty; the run output feeds a second keyed shuffle.
    t = pa.table(
        {
            "k": pa.array([7] * 50, pa.uint64()),
            "doc": pa.array(np.arange(50), pa.int64()),
        }
    )
    ds = _ds_from_table(t, 8)

    def emit(block: pa.Table, starts, ends) -> pa.Table:
        out_a, out_b = [], []
        docs = block.column("doc").to_numpy(zero_copy_only=False)
        for s, e in zip(starts, ends):
            run = np.sort(docs[s:e])
            out_a.extend([int(run[0])] * (len(run) - 1))
            out_b.extend(run[1:].tolist())
        return pa.table(
            {"id_a": pa.array(out_a, pa.int64()), "id_b": pa.array(out_b, pa.int64())}
        )

    pairs = map_key_runs(ds, "k", emit, 64)
    # chained second keyed shuffle on the *emitted* columns — the r01 crash site
    uniq = unique_rows_partitioned(pairs, ["id_a", "id_b"], 64)
    rows = uniq.take_all()
    assert len(rows) == 49
    assert {r["id_a"] for r in rows} == {0}
    assert {r["id_b"] for r in rows} == set(range(1, 50))


def test_map_key_runs_unsorted_input_runs_are_whole_groups(ray_session, shuffle_mode):
    """Groups arrive unsorted within a partition (no finalize sort);
    per-block sort must still present each key as one contiguous run."""
    from raydedup.stages.grouped import map_key_runs

    rng = np.random.default_rng(3)
    keys = rng.integers(0, 20, size=400).astype(np.uint64)
    t = pa.table({"k": pa.array(keys), "v": pa.array(np.arange(400), pa.int64())})
    ds = _ds_from_table(t, 4)

    def emit(block: pa.Table, starts, ends) -> pa.Table:
        ks = block.column("k").to_numpy(zero_copy_only=False)
        sizes = [int(e - s) for s, e in zip(starts, ends)]
        run_keys = [int(ks[s]) for s in starts]
        # within a block, each key appears in at most one run
        assert len(run_keys) == len(set(run_keys))
        return pa.table(
            {
                "k": pa.array(run_keys, pa.uint64()),
                "n": pa.array(sizes, pa.int64()),
            }
        )

    out = map_key_runs(ds, "k", emit, 16).take_all()
    got = {r["k"]: r["n"] for r in out}
    expected = {int(k): int(n) for k, n in zip(*np.unique(keys, return_counts=True)) if n >= 2}
    assert got == expected


@pytest.fixture
def small_blocks():
    """A 16 KiB ``target_max_block_size`` for datasets built in the
    test, so Ray would split any output block it is free to split."""
    import ray.data as rd

    ctx = rd.DataContext.get_current()
    old = ctx.target_max_block_size
    ctx.target_max_block_size = 16 << 10
    yield
    ctx.target_max_block_size = old


@pytest.mark.parametrize("keys", [["k"], ["id_a", "id_b"], ["u"], ["s"], ["s", "id_a"]])
def test_map_key_runs_every_key_in_one_call(ray_session, shuffle_mode, small_blocks, keys):
    """Each key reaches exactly one ``per_block`` call: 30k rows in 20
    input blocks over 4 partitions, with 16 KiB target blocks, never
    split a run across the sort's output blocks — also for a two-column
    key, whose range boundaries are tuples, a full-range uint64 key and
    string keys (``''`` and non-ASCII included)."""
    import uuid

    from raydedup.stages.grouped import map_key_runs

    rng = np.random.default_rng(11)
    n = 30_000
    words = np.array(["", "é", "a\x00"] + [f"w{i}" for i in range(2_000)], dtype=object)
    t = pa.table(
        {
            "k": pa.array(rng.integers(0, 5_000, n), pa.int64()),
            "id_a": pa.array(rng.integers(0, 50, n), pa.int64()),
            "id_b": pa.array(rng.integers(0, 100, n), pa.int64()),
            "u": pa.array(rng.integers(0, 4_000, n, dtype=np.uint64) * np.uint64(4_611_686_018_427_387), pa.uint64()),
            "s": pa.array(words[rng.integers(0, len(words), n)].tolist(), pa.string()),
            "v": pa.array(np.arange(n), pa.int64()),
        }
    )
    ds = _ds_from_table(t, 20)

    def emit(block: pa.Table, starts, ends) -> pa.Table:
        call = uuid.uuid4().hex
        sel = pa.array(starts)
        cols = {k: block.column(k).take(sel) for k in keys}
        return pa.table(
            {
                **cols,
                "n": pa.array(ends - starts, pa.int64()),
                "call": pa.array([call] * len(starts), pa.string()),
            }
        )

    out = map_key_runs(ds, keys, emit, 4, min_run=1).to_pandas()
    want = t.to_pandas().groupby(keys).size()
    # one output row per key means one run in one call
    assert not out.duplicated(keys).any()
    got = out.set_index(keys)["n"].sort_index()
    assert got.to_dict() == want.to_dict()
    if shuffle_mode == "distributed":
        assert out["call"].nunique() >= 2


def test_empty_inputs_stay_typed(ray_session, shuffle_mode):
    """An empty input and an input whose blocks are all empty finish
    with zero rows, also when fed into a second keyed shuffle. Ray 2.49
    skips map UDFs on empty blocks, so an all-empty keyed result reports
    no schema (the callers' ``schema() is None`` fallbacks then build
    their typed empty tables) — never a wrong one."""
    import ray.data as rd

    from raydedup.stages.grouped import map_key_runs, unique_rows_partitioned

    def emit(block: pa.Table, starts, ends) -> pa.Table:
        return pa.table({"k": block.column("k").take(pa.array(starts)), "n": pa.array(ends - starts)})

    t = pa.table({"k": pa.array(np.arange(40) % 7, pa.int64()), "v": pa.array(np.arange(40), pa.int64())})
    empty = rd.from_arrow(t.slice(0, 0))
    all_empty = _ds_from_table(t, 5).map_batches(lambda b: b.slice(0, 0), batch_format="pyarrow")
    for ds in (empty, all_empty):
        runs = map_key_runs(ds, "k", emit, 4)
        for out, cols in (
            (runs, ["k", "n"]),
            (unique_rows_partitioned(ds, ["k", "v"], 4), ["k", "v"]),
            (unique_rows_partitioned(runs, ["k"], 4), ["k"]),
        ):
            out = out.materialize()
            assert out.count() == 0 and out.take_all() == []
            assert out.schema() is None or out.schema().names == cols


def test_exact_dedup_sparse_keys_many_partitions(ray_session, shuffle_mode):
    from raydedup.stages.dedup import exact_dedup

    t = pa.table(
        {
            "doc_id": pa.array(np.arange(40), pa.int64()),
            "text": pa.array(["same text"] * 20 + [f"uniq {i}" for i in range(20)]),
        }
    )
    ds = _ds_from_table(t, 8)
    kept = exact_dedup(ds, ["text"], "doc_id", num_partitions=64).take_all()
    ids = sorted(r["doc_id"] for r in kept)
    assert ids == [0] + list(range(20, 40))


def test_substring_pairs_slim_path(ray_session, shuffle_mode):
    """The two-phase substring path: min-window anchors, hash verify,
    duplicate-class expansion — against a brute-force token-slice oracle."""
    import itertools

    from raydedup.stages.dedup import substring_pairs

    docs = {
        0: "alpha beta gamma delta epsilon zeta",
        1: "prefix words alpha beta gamma delta epsilon zeta suffix tail",
        2: "alpha beta gamma delta",          # contained in 0 and 1
        3: "alpha beta gamma delta",          # exact dup of 2 (class expansion)
        4: "unrelated text about something else entirely here",
        5: "x y",                             # short-doc broadcast path
        6: "wrap x y wrap2 more tokens here",  # contains 5
        7: "beta gamma delta epsilon",        # interior slice of 0 and 1
    }
    t = pa.table(
        {
            "doc_id": pa.array(list(docs), pa.int64()),
            "text": pa.array(list(docs.values()), pa.string()),
        }
    )
    ds = _ds_from_table(t, 3)
    got = {
        (r["id_a"], r["id_b"])
        for r in substring_pairs(ds, "doc_id", "text", window=4).take_all()
    }
    want = set()
    for a, b in itertools.permutations(docs, 2):
        ta, tb = docs[a], docs[b]
        if len(ta) < len(tb) and f" {ta} " in f" {tb} ":
            want.add((a, b))
    assert got == want


def test_top_k_per_key_matches_groupby(ray_session):
    """The combiner + coalesced merge must equal a per-group map_groups,
    with one key and with no key, also when some input blocks are
    empty."""
    import ray.data as rd

    from raydedup.stages.grouped import top_k_per_key

    rng = np.random.default_rng(5)
    t = pa.table(
        {
            "q": pa.array(rng.integers(0, 7, size=300), pa.int64()),
            "v": pa.array(rng.random(300), pa.float64()),
            "id": pa.array(np.arange(300), pa.int64()),
        }
    )
    order = [("v", "descending"), ("id", "ascending")]

    def top3(group: pa.Table) -> pa.Table:
        v = group.column("v").to_numpy(zero_copy_only=False)
        ids = group.column("id").to_numpy(zero_copy_only=False)
        return group.take(pa.array(np.lexsort((ids, -v))[:3]))

    def rows(ds):
        return [(r["q"], r["id"]) for r in ds.take_all()]

    want = {
        (r["q"], r["id"])
        for r in _ds_from_table(t, 5)
        .groupby("q")
        .map_groups(top3, batch_format="pyarrow")
        .take_all()
    }
    got = rows(top_k_per_key(_ds_from_table(t, 5), ["q"], order, 3))
    assert set(got) == want and len(got) == 7 * 3
    v = t.column("v").to_numpy()
    assert got == sorted(got, key=lambda r: (r[0], -v[r[1]], r[1]))  # by key, then order

    whole = rows(top_k_per_key(_ds_from_table(t, 5), [], order, 4))
    assert [i for _, i in whole] == np.lexsort((np.arange(300), -v))[:4].tolist()

    # zero-row blocks among the input blocks
    empty = t.slice(0, 0)
    parts = rd.from_arrow([empty, t.slice(0, 120), empty, t.slice(120), empty])
    assert set(rows(top_k_per_key(parts, ["q"], order, 3))) == want


def test_top_k_ties_keep_smallest_ids(ray_session):
    """40 rows with one score, stored with ids descending in ONE block:
    k=5 must return ids 0..4 (score desc, then id asc) — a partial
    select per block would keep an arbitrary subset of the ties."""
    import ray.data as rd

    from raydedup.stages.ann import brute_force_topk
    from raydedup.stages.grouped import top_k_per_key

    ids = np.arange(40)[::-1]
    t = pa.table({"q": pa.array(np.zeros(40), pa.int64()), "id": pa.array(ids, pa.int64()), "v": pa.array(np.ones(40))})
    got = top_k_per_key(rd.from_arrow(t), ["q"], [("v", "descending"), ("id", "ascending")], 5).take_all()
    assert [r["id"] for r in got] == [0, 1, 2, 3, 4]

    emb = np.zeros((40, 4))
    emb[:, 0] = 1.0  # every vector equals the query: cos is exactly 1
    t = pa.table({"vec_id": pa.array(ids, pa.int64()), "embedding": pa.array(emb.tolist())})
    got = brute_force_topk(rd.from_arrow(t), emb[:1], k=5).take_all()
    assert [r["vec_id"] for r in got] == [0, 1, 2, 3, 4]


def test_aggregate_per_key_matches_pandas(ray_session, shuffle_mode):
    """sum/min/max/count with null values, a null key in each key column
    and a zero-row input block, against pandas (``dropna=False``, SQL
    semantics: an all-null sum is null, count skips nulls); ``aggs={}``
    gives the distinct keys. A string key with nulls before an int key
    with nulls splits groups in pyarrow 16's multi-key ``group_by``, and
    raises in Ray's sort boundary search on the distributed side."""
    import pandas as pd
    import ray.data as rd

    from raydedup.stages.grouped import aggregate_per_key

    rng = np.random.default_rng(9)
    n = 500
    a = rng.integers(0, 11, size=n)
    t = pa.table(
        {
            "a": pa.array(a, pa.int64(), mask=rng.random(n) < 0.1),
            "b": pa.array(rng.choice(["x", "y"], size=n), pa.string(), mask=rng.random(n) < 0.5),
            # a == 10 holds no value at all: its sum, min and max are null
            "v": pa.array(rng.integers(1, 100, size=n), pa.int64(), mask=(rng.random(n) < 0.2) | (a == 10)),
        }
    )
    ds = rd.from_arrow([t.slice(0, 200), t.slice(200, 0), t.slice(200, 150), t.slice(350)])
    aggs = {"s": ("v", "sum"), "lo": ("v", "min"), "hi": ("v", "max"), "c": ("v", "count")}

    def na(x):
        return None if pd.isna(x) else x

    out = aggregate_per_key(ds, ["b", "a"], aggs).take_all()
    got = {(na(r["a"]), na(r["b"])): tuple(na(r[c]) for c in aggs) for r in out}
    g = t.to_pandas().groupby(["a", "b"], dropna=False)["v"]
    ref = pd.DataFrame({"s": g.sum(min_count=1), "lo": g.min(), "hi": g.max(), "c": g.count()})
    want = {(na(ka), na(kb)): tuple(na(x) for x in row) for (ka, kb), row in zip(ref.index, ref.itertuples(index=False))}
    assert got == want
    assert any(ka is None for ka, _ in want) and any(kb is None for _, kb in want)
    assert any(s is None for s, _, _, _ in want.values())

    distinct = aggregate_per_key(ds, ["b", "a"], {}).take_all()
    assert len(distinct) == len(want)
    assert {(na(r["a"]), na(r["b"])) for r in distinct} == set(want)


def test_map_key_runs_approx_rows_hint(ray_session):
    """A union the planner can't size takes the coalesced path when the
    caller supplies a sound row bound — and the result matches the
    distributed path exactly."""
    import raydedup.stages.grouped as G
    from raydedup.stages.grouped import map_key_runs, meta_count

    t = pa.table(
        {
            "k": pa.array(np.repeat(np.arange(10), 10), pa.int64()),
            "v": pa.array(np.arange(100), pa.int64()),
        }
    )
    # a union of two datasets loses the metadata count
    ds = _ds_from_table(t, 3).union(_ds_from_table(t, 2))
    assert meta_count(ds) is None

    def span(block: pa.Table, starts, ends) -> pa.Table:
        ks = block.column("k").to_numpy(zero_copy_only=False)
        vs = block.column("v").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "k": pa.array([int(ks[s]) for s in starts], pa.int64()),
                "lo": pa.array([int(vs[s:e].min()) for s, e in zip(starts, ends)], pa.int64()),
                "n": pa.array([int(e - s) for s, e in zip(starts, ends)], pa.int64()),
            }
        )

    hinted = {
        (r["k"], r["lo"], r["n"])
        for r in map_key_runs(ds, "k", span, 16, approx_rows=200).take_all()
    }
    forced = G.SMALL_SHUFFLE_ROWS
    try:
        G.SMALL_SHUFFLE_ROWS = 0
        dist = {
            (r["k"], r["lo"], r["n"])
            for r in map_key_runs(ds, "k", span, 16, approx_rows=200).take_all()
        }
    finally:
        G.SMALL_SHUFFLE_ROWS = forced
    assert hinted == dist
    assert {k for k, _, _ in hinted} == set(range(10))
    assert all(n == 20 for _, _, n in hinted)


def test_orders_by_segment_shuffle_fallback(ray_session):
    """VERDICT r04 wrong-#2: the dimension-table broadcast in
    q_orders_by_segment is size-gated; a lowered gate must route through
    the reduce-side custkey join and produce the identical table."""
    from raydedup.queries import q_orders_by_segment

    sf = "/root/testdata/sf0.001"
    broadcast = (
        q_orders_by_segment(sf).to_pandas().sort_values("c_mktsegment").reset_index(drop=True)
    )
    joined = (
        q_orders_by_segment(sf, broadcast_max_rows=0)
        .to_pandas()
        .sort_values("c_mktsegment")
        .reset_index(drop=True)
    )
    assert broadcast.equals(joined)


def test_sessionize_events_gap_semantics(ray_session, tmp_path):
    """Gap-based sessionization: a gap of EXACTLY gap_us stays in the
    same session, one microsecond more starts a new one; per-user
    ordinals are 1-based; singleton users sessionize too."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from raydedup.queries import q_sessionize_events

    gap = 1_800_000_000
    base = 1_700_000_000_000_000
    rows = {
        "user_id": [1, 1, 1, 1, 2],
        "ts": pa.array(
            [base, base + gap, base + 2 * gap + 1, base + 2 * gap + 2, base],
            pa.timestamp("us"),
        ),
    }
    pq.write_table(pa.table(rows), tmp_path / "events.parquet")
    out = q_sessionize_events(str(tmp_path)).to_pandas()
    out = out.sort_values(["user_id", "session_id"]).reset_index(drop=True)
    # user 1: events 1+2 share session 1 (gap == gap_us keeps), events
    # 3+4 are session 2 (gap_us+1 breaks); user 2 is a singleton
    assert out.to_dict("records") == [
        {"user_id": 1, "session_id": 1, "n_events": 2, "start_us": base, "end_us": base + gap},
        {"user_id": 1, "session_id": 2, "n_events": 2, "start_us": base + 2 * gap + 1, "end_us": base + 2 * gap + 2},
        {"user_id": 2, "session_id": 1, "n_events": 1, "start_us": base, "end_us": base},
    ]


def test_json_field_stats_extraction(ray_session, tmp_path):
    """The vectorized regex extraction matches per-row parsing,
    including rows without the field (count them, skip their sum)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from raydedup.queries import q_json_field_stats

    rows = {
        "event_type": ["a", "a", "b", "b"],
        "props": ['{"k": 3}', '{"k": -2}', '{"k": 10}', "{}"],
    }
    pq.write_table(pa.table(rows), tmp_path / "events.parquet")
    out = q_json_field_stats(str(tmp_path)).to_pandas().sort_values("event_type")
    assert out.to_dict("records") == [
        {"event_type": "a", "n_events": 2, "sum_k": 1, "max_k": 3},
        {"event_type": "b", "n_events": 2, "sum_k": 10, "max_k": 10},
    ]


def test_asof_join_events_semantics(ray_session, tmp_path):
    """As-of join tie rules pinned on a hand-built stream: equal-ts
    views ARE eligible for a click at the same ts (views sort before
    clicks), ties among views resolve to the largest event_id, clicks
    with no prior view get -1 sentinels, and user streams never bleed
    into each other."""
    import datetime as dt

    import pyarrow as pa
    import pyarrow.parquet as pq

    from raydedup.queries import q_asof_join_events

    t0 = dt.datetime(2024, 1, 1)
    us = lambda n: t0 + dt.timedelta(microseconds=n)
    rows = [
        # user 1: click before any view → -1; then view/click pairs
        (0, us(10), 1, "click"),
        (1, us(20), 1, "view"),
        (2, us(30), 1, "click"),      # → view 1, gap 10
        (3, us(40), 1, "view"),
        (4, us(40), 1, "view"),       # equal-ts views: largest id wins
        (5, us(40), 1, "click"),      # → view 4 (same ts eligible), gap 0
        (6, us(50), 1, "error"),      # other types ignored
        # user 2: isolated — must not see user 1's views
        (7, us(25), 2, "click"),      # → -1
        (8, us(60), 2, "view"),
        (9, us(70), 2, "click"),      # → view 8, gap 10
    ]
    tbl = pa.table(
        {
            "event_id": pa.array([r[0] for r in rows], pa.int64()),
            "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
            "user_id": pa.array([r[2] for r in rows], pa.int64()),
            "event_type": pa.array([r[3] for r in rows]),
        }
    )
    pq.write_table(tbl, tmp_path / "events.parquet")
    got = (
        q_asof_join_events(str(tmp_path))
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    want = {
        0: (-1, -1),
        2: (1, 10),
        5: (4, 0),
        7: (-1, -1),
        9: (8, 10),
    }
    assert got["event_id"].tolist() == sorted(want)
    for row in got.itertuples(index=False):
        assert (row.matched_event_id, row.gap_us) == want[row.event_id], row.event_id


def test_asof_join_events_bruteforce(ray_session):
    """Full sf0.001 events table vs a pure Python per-user scan."""
    import pyarrow.parquet as pq

    from raydedup.queries import q_asof_join_events

    sf = "/root/testdata/sf0.001"
    t = pq.read_table(f"{sf}/events.parquet", columns=["event_id", "ts", "user_id", "event_type"])
    evs = sorted(
        (r for r in t.to_pylist() if r["event_type"] in ("view", "click")),
        key=lambda r: (r["user_id"], r["ts"], r["event_type"] == "click", r["event_id"]),
    )
    want = {}
    last_view = {}
    for r in evs:
        u = r["user_id"]
        if r["event_type"] == "view":
            last_view[u] = r
        else:
            v = last_view.get(u)
            if v is None:
                want[r["event_id"]] = (-1, -1)
            else:
                d = r["ts"] - v["ts"]
                gap = (d.days * 86_400 + d.seconds) * 1_000_000 + d.microseconds
                want[r["event_id"]] = (v["event_id"], gap)
    got = q_asof_join_events(sf).to_pandas()
    assert len(got) == len(want) > 0
    for row in got.itertuples(index=False):
        assert (row.matched_event_id, row.gap_us) == want[row.event_id], row.event_id


def test_overlapping_sessions_boundary_and_dedupe(ray_session, tmp_path):
    """Interval-join edge rules pinned on hand-built sessions around a
    bucket boundary (W = 1 h): a session straddling two buckets pairs
    exactly once with partners in EITHER bucket (canonical-bucket
    dedupe), point-touching intervals (end_a == start_b) count with
    overlap 0 (closed intervals), and equal-start ties canonicalize by
    (user, session)."""
    import datetime as dt

    import pyarrow as pa
    import pyarrow.parquet as pq

    from raydedup.queries import q_overlapping_sessions

    t0 = dt.datetime(2024, 1, 1)  # epoch hour-aligned: bucket edge at +60 min
    m = lambda n: t0 + dt.timedelta(minutes=n)
    rows = [
        # user 1: ONE session [50, 70] min (20-min event gap < 30-min
        # cutoff) — straddles the 60-min bucket boundary, replicates to
        # buckets 0 and 1
        (1, m(50)), (1, m(70)),
        # user 2: [65, 66] — bucket 1 only; overlaps user 1 there
        (2, m(65)), (2, m(66)),
        # user 3: [55, 58] — bucket 0 only; overlaps user 1 there
        (3, m(55)), (3, m(58)),
        # user 4: point session [70, 70] touching user 1's end exactly
        (4, m(70)),
        # user 5: [50, 52] — start TIES user 1's; user id breaks the tie
        (5, m(50)), (5, m(52)),
    ]
    tbl = pa.table(
        {
            "event_id": pa.array(range(len(rows)), pa.int64()),
            "user_id": pa.array([r[0] for r in rows], pa.int64()),
            "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
            "event_type": pa.array(["view"] * len(rows)),
        }
    )
    pq.write_table(tbl, tmp_path / "events.parquet")
    got = q_overlapping_sessions(str(tmp_path)).to_pandas()
    MIN = 60_000_000
    want = {
        (1, 1, 2, 1, 1 * MIN),   # min(70,66)-65
        (1, 1, 3, 1, 3 * MIN),   # min(70,58)-55
        (1, 1, 4, 1, 0),         # point touch
        (1, 1, 5, 1, 2 * MIN),   # tie at 50: user 1 is the 'a' side
    }
    assert set(map(tuple, got.itertuples(index=False))) == want
    assert len(got) == len(want)  # no double-emission across buckets


def test_overlapping_sessions_bruteforce(ray_session):
    """Full sf0.001 pipeline vs a brute-force O(n²) sweep over the
    sessionize output — pins the replicate/sweep machinery independent
    of the SQL oracle."""
    from raydedup.queries import q_overlapping_sessions, q_sessionize_events

    sf = "/root/testdata/sf0.001"
    sess = q_sessionize_events(sf).to_pandas()
    recs = sorted(
        sess.itertuples(index=False),
        key=lambda r: (r.start_us, r.user_id, r.session_id),
    )
    want = set()
    for i, b in enumerate(recs):
        for a in recs[:i]:
            if a.end_us >= b.start_us and a.user_id != b.user_id:
                want.add(
                    (a.user_id, a.session_id, b.user_id, b.session_id,
                     min(a.end_us, b.end_us) - b.start_us)
                )
    got = q_overlapping_sessions(sf).to_pandas()
    assert set(map(tuple, got.itertuples(index=False))) == want
    assert len(got) == len(want) > 0


def test_one_cpu_session_hash_shuffle_completes(tmp_path):
    """A 1-CPU Ray session must finish a distributed keyed grouping and
    a keyed groupby-aggregate (with hash-shuffle aggregator actors, the
    actors' CPU reservation once left no room for the shuffle's map
    tasks). Runs in a fresh process (its own 1-CPU session) and must
    finish within 120 s."""
    import os
    import signal
    import subprocess
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    script = tmp_path / "one_cpu.py"
    script.write_text(
        """
import sys
sys.path.insert(0, %r)
import numpy as np
import pyarrow as pa
import ray
import ray.data as rd

ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
rd.DataContext.get_current().enable_progress_bars = False
import raydedup.stages.grouped as G

G.SMALL_SHUFFLE_ROWS = 0  # force the distributed sort path
ds = rd.from_arrow(pa.table({"k": np.arange(2000) %% 500, "v": np.arange(2000)}))
print(G.map_key_runs(ds, "k", lambda b, s, e: b, num_partitions=2).count())
print(ds.groupby("k").count().count())  # keyed groupby-aggregate shuffle
ray.shutdown()
"""
        % root
    )
    proc = subprocess.Popen(
        [sys.executable, str(script)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=root,  # Ray workers import the package from the driver's cwd
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("1-CPU keyed grouping did not finish within 120 s")
    assert proc.returncode == 0, err[-2000:]
    assert out.split()[-2:] == ["2000", "500"]




@pytest.mark.parametrize(
    "sizes",
    [[30, 25], [10, 20, 30, 40], [7] * 11, [], [12, 0, 9]],
    ids=["fewer_than_P", "exactly_P", "more_than_P", "empty", "zero_row_block"],
)
def test_map_blocks_matches_map_batches(ray_session, sizes):
    """``map_blocks`` returns the rows a ``map_batches`` of the same
    function returns, in input order, in at most P blocks; ``fn`` never
    sees a zero-row block. The test session has 4 CPUs, so P = 4."""
    import ray.data as rd

    from raydedup.stages.grouped import effective_partitions, map_blocks

    assert effective_partitions(1 << 30) == 4
    starts = np.cumsum([0] + sizes[:-1]) if sizes else []
    tables = [pa.table({"v": pa.array(np.arange(s, s + n), pa.int64())}) for s, n in zip(starts, sizes)]
    ds = rd.from_arrow(tables or pa.table({"v": pa.array([], pa.int64())}))

    def even_doubled(batch: pa.Table) -> pa.Table:
        assert batch.num_rows > 0
        v = batch.column("v").to_numpy(zero_copy_only=False)
        v = v[v % 2 == 0]
        return pa.table({"v": pa.array(v), "w": pa.array(v * 2)})

    out = map_blocks(ds, even_doubled)
    want = ds.map_batches(even_doubled, batch_format="pyarrow").take_all()
    assert out.take_all() == sorted(want, key=lambda r: r["v"])
    assert out.num_blocks() <= 4
    assert out.count() == sum(sizes) // 2 + sum(sizes) % 2


@pytest.mark.parametrize("case", ["uint64", "string", "string_nulls", "two_keys"])
def test_run_bounds_match_python_reference(case):
    """``_run_bounds`` on a sorted, multi-chunk block gives the runs of
    a Python scan over the rows: a null equals a null and differs from
    every value, '' included. (Through ``map_key_runs`` the non-null
    key types run in ``test_map_key_runs_every_key_in_one_call``; Ray's
    range-partition sort cannot order None against a string.)"""
    from raydedup.stages.grouped import _run_bounds

    rng = np.random.default_rng(5)
    n = 600
    words = np.array(["", "a", "b", "ab", "ba", "é", "a\x00"], dtype=object)
    u64 = rng.choice(np.array([0, 1, 7, 1 << 40, (1 << 64) - 1], dtype=np.uint64), n)
    text = words[rng.integers(0, len(words), n)].tolist()
    nulled = [None if rng.random() < 0.2 else w for w in text]
    cols = {
        "uint64": {"k": pa.array(u64, pa.uint64())},
        "string": {"k": pa.array(text, pa.string())},
        "string_nulls": {"k": pa.array(nulled, pa.string())},
        "two_keys": {"k": pa.array(nulled, pa.string()), "j": pa.array(u64 % np.uint64(3), pa.uint64())},
    }[case]
    keys = list(cols)
    t = pa.table(cols).sort_by([(k, "ascending") for k in keys])
    t = pa.Table.from_batches(t.to_batches(max_chunksize=97))  # slices cross chunk edges
    assert t.column(keys[0]).num_chunks > 1
    rows = list(zip(*[t.column(k).to_pylist() for k in keys]))
    want = [i for i in range(n) if i == 0 or rows[i] != rows[i - 1]]
    starts, ends = _run_bounds(t, keys)
    assert starts.tolist() == want and ends.tolist() == want[1:] + [n]
    if case == "string_nulls":
        assert (None,) in rows and ("",) in rows
        assert len(starts) == len(set(rows))  # one run for the nulls, one for ''

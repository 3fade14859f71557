"""Distributed prefix-sum (stages/scan.py) — exactness on both shuffle
paths, with shuffled input order, skewed/sparse order keys, and empty
hash partitions (partitions ≫ ranges)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def _check(order: np.ndarray, vals: np.ndarray, blocks: int, parts: int | None):
    import ray.data as rd

    from raydedup.stages.scan import exclusive_prefix_sum

    t = pa.table({"k": pa.array(order, pa.int64()), "v": pa.array(vals, pa.int64())})
    ds = rd.from_arrow(t).repartition(blocks)
    out = exclusive_prefix_sum(ds, "k", "v", out_col="off", num_partitions=parts)
    got = out.to_pandas().sort_values("k").reset_index(drop=True)
    srt = np.argsort(order)
    want = np.cumsum(vals[srt]) - vals[srt]
    assert got["k"].to_numpy().tolist() == order[srt].tolist()
    assert got["off"].to_numpy().tolist() == want.tolist()
    assert got["v"].to_numpy().tolist() == vals[srt].tolist()


def test_prefix_sum_exact_shuffled_input(ray_session, shuffle_mode):
    rng = np.random.default_rng(7)
    order = rng.permutation(1000).astype(np.int64)
    vals = rng.integers(0, 600, size=1000).astype(np.int64)
    _check(order, vals, blocks=7, parts=5)


def test_prefix_sum_sparse_skewed_keys_and_empty_partitions(ray_session, shuffle_mode):
    """Order keys clumped at the bottom of a huge domain: most fixed
    ranges are empty, so many hash partitions see zero rows — the
    empty-block schema path — and one range holds nearly everything."""
    rng = np.random.default_rng(11)
    lo = rng.choice(5000, size=300, replace=False).astype(np.int64)
    hi = np.array([10_000_000, 10_000_001], dtype=np.int64)
    order = np.concatenate([lo, hi])
    vals = rng.integers(1, 100, size=len(order)).astype(np.int64)
    _check(order, vals, blocks=4, parts=16)


def test_prefix_sum_singleton_and_empty(ray_session):
    import ray.data as rd

    from raydedup.stages.scan import exclusive_prefix_sum

    one = rd.from_arrow(pa.table({"k": pa.array([42], pa.int64()), "v": pa.array([9], pa.int64())}))
    got = exclusive_prefix_sum(one, "k", "v", out_col="off").to_pandas()
    assert got["off"].tolist() == [0]

    # more blocks than rows → zero-row input blocks, whose map UDFs
    # ray 2.49 skips (pre-UDF schema pass-through in the metadata passes)
    few = rd.from_arrow(
        pa.table({"k": pa.array([3, 1, 2], pa.int64()), "v": pa.array([5, 7, 11], pa.int64())})
    ).repartition(8)
    got = exclusive_prefix_sum(few, "k", "v", out_col="off").to_pandas().sort_values("k")
    assert got["off"].tolist() == [0, 7, 18]

    empty = rd.from_arrow(pa.table({"k": pa.array([], pa.int64()), "v": pa.array([], pa.int64())}))
    out = exclusive_prefix_sum(empty, "k", "v", out_col="off")
    # ray 2.49 to_pandas() drops columns on zero-row datasets — assert
    # on the Dataset schema (what a union/append downstream would see)
    assert out.count() == 0 and out.schema().names == ["k", "v", "off"]


def test_pack_sequences_bruteforce(ray_session):
    """End-to-end packing vs a pure Python scan over sf0.001: offsets,
    seq ids and positions all exact."""
    import pyarrow.parquet as pq

    from raydedup.queries import QUERIES

    got = (
        QUERIES["pack_sequences"]("/root/testdata/sf0.001")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    tbl = pq.read_table(
        "/root/testdata/sf0.001/documents.parquet", columns=["doc_id", "text"]
    ).sort_by("doc_id")
    toks = [len(t.split()) for t in tbl.column("text").to_pylist()]
    off = np.cumsum(toks) - np.array(toks)
    assert got["doc_id"].tolist() == tbl.column("doc_id").to_pylist()
    assert got["n_tokens"].tolist() == toks
    assert got["tok_offset"].tolist() == off.tolist()
    assert got["seq_id"].tolist() == (off // 512).tolist()
    assert got["seq_pos"].tolist() == (off % 512).tolist()

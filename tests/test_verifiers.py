"""Every ``oracles.VERIFIERS`` entry accepts its query's result over the
sf0.001 corpus and rejects each corrupted copy of that result, so no
verifier is vacuous. Verifiers raise ``VerificationError`` rather than
assert, so both legs hold under ``python -O -m pytest`` too."""

from __future__ import annotations

import ast
import inspect

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from raydedup.oracles import VERIFIERS, VerificationError, _table

SF = "/root/testdata/sf0.001"


def _edit(t: pa.Table, col: str, row: int, fn) -> pa.Table:
    """``t`` with ``col[row]`` replaced by ``fn(col[row])``."""
    vals = t.column(col).to_pylist()
    vals[row] = fn(vals[row])
    i = t.schema.get_field_index(col)
    return t.set_column(i, col, pa.array(vals, t.schema.field(col).type))


def _first_true(t: pa.Table, col: str) -> int:
    rows = [i for i, f in enumerate(t.column(col).to_pylist()) if f]
    assert rows, f"the corpus must give at least one {col} row to corrupt"
    return rows[0]


def _flip(col: str, row: int = 0):
    return lambda t: _edit(t, col, row, lambda v: type(v)(not v))


def _merge_clusters(t: pa.Table) -> pa.Table:
    """The second cluster's members relabelled into the first cluster."""
    first, second = sorted(set(t.column("cluster_id").to_pylist()))[:2]
    col = t.column("cluster_id")
    merged = pc.if_else(pc.equal(col, second), pa.scalar(first, col.type), col)
    return t.set_column(t.schema.get_field_index("cluster_id"), "cluster_id", merged)


def _split_cluster(t: pa.Table) -> pa.Table:
    """Row 0 moved out of its (≥ 2-member) cluster into a new one."""
    fresh = max(t.column("cluster_id").to_pylist()) + 1
    return _edit(t, "cluster_id", 0, lambda v: fresh)


CORRUPT = {
    "hnsw_topk": lambda t: t.slice(1),  # one dropped row
    "ivf_topk": lambda t: t.slice(1),
    "image_features_synth": _flip("decode_ok"),
    "image_thumbs_synth": lambda t: _edit(
        t.sort_by("image_id"), "thumb", 0, lambda b: bytes([b[0] ^ 1]) + b[1:]
    ),
    "image_stream_dedup": _flip("is_dup"),  # the first arrival has no earlier row
    "audio_features_synth": _flip("decode_ok"),
    "video_frames_synth": lambda t: _edit(t, "phash_check", 0, lambda v: v ^ 1),
    # a false negative: clear one flagged doc
    "bloom_dedup_filter": lambda t: _flip("is_dup", _first_true(t, "is_dup"))(t),
    "semantic_dedup": _flip("is_dup"),
    # the median estimate replaced by the 0.99 estimate
    "price_quantiles_sketch": lambda t: _edit(
        t, "est_price", 2, lambda v: t.column("est_price")[4].as_py()
    ),
    "heavy_hitter_terms": lambda t: _edit(
        t, "est_count", 0, lambda v: v + t.column("dec_total")[0].as_py() + 1
    ),
    "minhash_dedup_docs": (_merge_clusters, _split_cluster),
}


@pytest.mark.parametrize("name", sorted(VERIFIERS))
def test_verifier_accepts_result_rejects_corruption(ray_session, name):
    from raydedup.queries import QUERIES

    res = QUERIES[name](SF)
    VERIFIERS[name](SF, res)
    corrupt = CORRUPT[name]
    for fn in corrupt if isinstance(corrupt, tuple) else (corrupt,):
        with pytest.raises(VerificationError):
            VERIFIERS[name](SF, fn(_table(res)))


def test_verifiers_do_not_assert():
    """``python -O`` strips ``assert``; a verifier must raise instead."""
    import raydedup.oracles as og

    tree = ast.parse(inspect.getsource(og))
    asserts = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert not asserts, f"assert statements in raydedup/oracles.py at lines {asserts}"

"""Benchmark inputs.

- The planted F1 image corpus from ``raydedup.synth.make_images_table``
  in its no-pixel form (8x8 payloads; the pipeline never reads the
  ``bytes`` column), with its truth-pair table.  Generated once per
  seed and cached in the checkout; the cache key holds the seed, the
  size and a digest of the generator source, so a generator change is
  never measured on a stale input.
- The query layer's input, ``data/documents.parquet``: a byte copy of
  the 5,000-row ``documents`` table of the repository's sf0.1 test data
  (seed 42), kept here because a run reads only inside its checkout.
"""

from __future__ import annotations

import hashlib
import json
import os

import pyarrow as pa
import pyarrow.parquet as pq

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# 40% of the 50,000-base corpus (91,673 rows) the workloads were
# designed at: ~36,600 rows (``workloads.coalesce_gate`` keeps the size
# gates on their full-size sides).  The corpus's skew probe repeats one
# caption n_base // 10 times; above DedupConfig.bucket_cap (512) that
# bucket collapses to a star as it does at full size, below it the probe
# alone emits ~10^6 clique edges, so n_base stays above 5,120.  Smaller
# corpora (6,000 and 16,000 base rows) made the distributed components
# stage take 1-3 star rounds and 1-2 peel passes depending on the seed,
# so its time spread +-25% across seeds; at 20,000 it held within +-6%.
IMAGES_N_BASE = 20_000
FULL_N_BASE = 50_000
WARMUP_N_BASE = 100  # the warm-up run's corpus (~180 rows)
DOCS_DIR = os.path.join(HERE, "data")  # queries read <dir>/documents.parquet


def file_digest(*paths: str) -> str:
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:12]


def table_digest(table: pa.Table) -> str:
    """Content digest of a table (schema + values, row order included)."""
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, table.schema) as w:
        w.write_table(table.combine_chunks())
    return hashlib.sha256(sink.getvalue().to_pybytes()).hexdigest()[:16]


def make_images(seed: int, n_base: int = IMAGES_N_BASE) -> tuple[pa.Table, pa.Table]:
    from raydedup.synth import make_images_table, truth_pairs_table

    table, truth = make_images_table(n_base=n_base, seed=seed, with_images=False)
    return table, truth_pairs_table(table, truth)


def _write(table: pa.Table, path: str) -> None:
    # small row groups, so the read splits into several tasks
    pq.write_table(table, path + ".tmp", row_group_size=4096)
    os.replace(path + ".tmp", path)


def ensure_images(seed: int, cache_dir: str, n_base: int = IMAGES_N_BASE) -> dict:
    """Generate (or reuse) the image corpus and its truth pairs at
    ``seed``; returns their paths and the corpus digest."""
    gen_src = os.path.join(ROOT, "raydedup", "synth.py")
    key = f"images-s{seed}-n{n_base}-{file_digest(gen_src, __file__)}"
    d = os.path.join(cache_dir, key)
    meta_path = os.path.join(d, "meta.json")
    if os.path.exists(meta_path):
        with open(meta_path) as f:
            return json.load(f)
    os.makedirs(d, exist_ok=True)
    table, truth = make_images(seed, n_base)
    meta = {
        "key": key,
        "dir": d,
        "data": os.path.join(d, "images.parquet"),
        "truth": os.path.join(d, "truth.parquet"),
        "rows": table.num_rows,
        "digest": table_digest(table),
    }
    _write(truth, meta["truth"])
    _write(table, meta["data"])
    with open(meta_path + ".tmp", "w") as f:
        json.dump(meta, f)
    os.replace(meta_path + ".tmp", meta_path)
    return meta

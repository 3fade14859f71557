"""Similarity search over an embedding column (list<float>).

- ``brute_force_topk``: baseline — broadcast the query matrix once
  (``ray.put``), numpy matmul per batch, then ``top_k_per_key`` per
  query. Exact; linear scan.
- ``lsh_bucketed_topk``: scale path — random-hyperplane (SimHash) bucket
  column; queries probe only their bucket (and optional multi-probe
  neighbors). Candidate set shrinks ~2^bits-fold at a small recall cost.
- ``embedding_near_dup_pairs``: cosine near-duplicate pairs via the same
  hyperplane bucketing + within-bucket exact cosine.

All math runs in float64 so results are bit-comparable with DuckDB's
``list_cosine_similarity`` oracle.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from raydedup.stages.grouped import top_k_per_key


def _emb_matrix(batch: pa.Table, col: str) -> np.ndarray:
    arr = batch.column(col)
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if pa.types.is_fixed_size_list(arr.type):
        dim = arr.type.list_size
        return np.asarray(arr.flatten().to_numpy(zero_copy_only=False), dtype=np.float64).reshape(-1, dim)
    if (pa.types.is_list(arr.type) or pa.types.is_large_list(arr.type)) and arr.null_count == 0:
        # parquet embeddings arrive as variable list<float>; when every
        # row has the same length (the embedding contract) the values
        # buffer reshapes zero-copy — no per-row Python materialization
        lens = np.diff(arr.offsets.to_numpy(zero_copy_only=False))
        if len(lens) and lens.min() == lens.max():
            flat = arr.flatten().to_numpy(zero_copy_only=False)
            return np.asarray(flat, dtype=np.float64).reshape(-1, int(lens[0]))
    pylist = arr.to_pylist()
    return np.asarray(pylist, dtype=np.float64)


def _normalize(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return m / n


def _candidates(batch: pa.Table, id_col: str, row, query, cos, query_col: str = "query_idx") -> pa.Table:
    """A score map's candidate rows (query, id, cos): ``row`` indexes
    ``batch``; ``query`` and ``cos`` align with ``row``."""
    return pa.table(
        {
            query_col: pa.array(query, pa.int64()),
            id_col: batch.column(id_col).take(row),
            "cos": pa.array(cos, pa.float64()),
        }
    )


def brute_force_topk(ds, query_vecs: np.ndarray, k: int = 10, id_col: str = "vec_id", emb_col: str = "embedding"):
    """Exact cosine top-k for each query row. Returns a Dataset
    (query_idx, vec_id, cos) of k rows per query.

    The query matrix is broadcast via ``ray.put`` once; each batch does
    one (B, D) @ (D, Q) matmul and emits its B·Q candidate rows, and
    ``top_k_per_key`` keeps k per query per block, so only
    k·Q·num_blocks rows reach the final merge."""
    import ray

    sch = ds.schema()
    if sch is None or ds.count() == 0:
        # empty corpus: map_batches skips empty blocks entirely, so the
        # result would carry the corpus schema, not (query_idx, id, cos)
        import ray.data as rd

        id_t = sch.base_schema.field(id_col).type if sch is not None else pa.int64()
        return rd.from_arrow(
            pa.table(
                {
                    "query_idx": pa.array([], pa.int64()),
                    id_col: pa.array([], id_t),
                    "cos": pa.array([], pa.float64()),
                }
            )
        )
    q = _normalize(np.asarray(query_vecs, dtype=np.float64))
    qref = ray.put(q)

    def score(batch: pa.Table) -> pa.Table:
        qm = ray.get(qref)
        cos = _normalize(_emb_matrix(batch, emb_col)) @ qm.T  # (B, Q)
        row, qi = np.divmod(np.arange(cos.size), qm.shape[0])
        return _candidates(batch, id_col, row, qi, cos.ravel())

    scored = ds.map_batches(score, batch_format="pyarrow", batch_size=4096)
    return top_k_per_key(scored, ["query_idx"], [("cos", "descending"), (id_col, "ascending")], k)


def add_hyperplane_bucket(ds, emb_col: str = "embedding", bits: int = 8, seed: int = 7, dim: int | None = None):
    """Adds a ``bucket`` column = sign-pattern of ``bits`` random
    hyperplanes (cosine-LSH). Deterministic from seed; the hyperplane
    matrix is regenerated per task (cheap) — never shipped."""

    def bucketize(batch: pa.Table) -> pa.Table:
        m = _emb_matrix(batch, emb_col)
        planes = np.random.default_rng(seed).standard_normal((m.shape[1], bits))
        signs = (m @ planes) > 0
        bucket = np.zeros(len(m), dtype=np.uint64)
        for j in range(bits):
            bucket |= signs[:, j].astype(np.uint64) << np.uint64(j)
        return batch.append_column("bucket", pa.array(bucket, pa.uint64()))

    return ds.map_batches(bucketize, batch_format="pyarrow")


_SHARD_CLS = None


def _shard_actor_cls():
    """The HNSW shard actor class, created once (``ray.remote`` needs
    ray imported, which this module defers)."""
    global _SHARD_CLS
    if _SHARD_CLS is not None:
        return _SHARD_CLS
    import ray

    @ray.remote
    class _Shard:
        def __init__(self, id_col, emb_col, m, efc, seed, metric):
            from raydedup.hnsw import HnswIndex

            self.id_col, self.emb_col = id_col, emb_col
            self.index = HnswIndex(m=m, ef_construction=efc, seed=seed, metric=metric)

        def add_blocks(self, block_refs):
            import ray

            from raydedup.stages.ann import _emb_matrix

            # refs nested in a list are not auto-dereferenced — the
            # actor pulls its blocks from the object store itself
            for b in ray.get(list(block_refs)):
                if len(b) == 0:
                    continue
                self.index.add_batch(
                    b.column(self.id_col).to_pylist(), _emb_matrix(b, self.emb_col)
                )
            return True

        def build(self):
            self.index.build()
            return len(self.index.ids)

        def query(self, qvecs, k, ef):
            out = []
            for q in qvecs:
                out.append(self.index.search(q, k=k, ef=ef))
            return out

        def remove(self, keys, hard):
            removed = 0
            for key in keys:
                try:
                    self.index.remove(key, hard=hard)
                    removed += 1
                except KeyError:  # lives on another shard
                    pass
            return removed

        def upsert(self, keys, vecs):
            import numpy as np

            self.index.add_batch(keys, np.asarray(vecs, dtype=np.float64))
            self.index.build()
            return True

        def n_dist(self):
            return self.index.n_dist

        def dump_to_file(self, fp):
            buf = self.index.serialize()
            with open(fp, "wb") as f:
                f.write(buf)
            return len(self.index.id_to_idx)

        def load_from_file(self, fp):
            from raydedup.hnsw import HnswIndex

            with open(fp, "rb") as f:
                self.index = HnswIndex.deserialize(f.read())
            return len(self.index.id_to_idx)

    _SHARD_CLS = _Shard
    return _Shard


class ShardedHnsw:
    """Distributed HNSW: one graph index per shard actor (the
    shared-mutable-index case where raw actors beat the Dataset API),
    queries fan out to every shard and merge top-k on the caller.

    Build path never routes vectors through the driver: the dataset's
    materialized block refs are handed to shard actors round-robin and
    each actor pulls its blocks straight from the object store.

    ``save``/``restore`` persist the built graphs per shard (the
    checkpoint layout the LSH session uses: ``shard-<i>.hnsw`` +
    ``manifest.json``) so an index outlives its actors without a
    rebuild from vectors."""

    def __init__(self, actors, id_col: str, emb_col: str, metric: str = "cosine"):
        self.actors = actors
        self.id_col = id_col
        self.emb_col = emb_col
        self.metric = metric

    @staticmethod
    def build(ds, id_col: str = "vec_id", emb_col: str = "embedding", num_shards: int = 4, m: int = 16, ef_construction: int = 100, seed: int = 1, metric: str = "cosine"):
        import ray

        _Shard = _shard_actor_cls()
        mat = ds.select_columns([id_col, emb_col]).materialize()
        actors = [
            _Shard.remote(id_col, emb_col, m, ef_construction, seed + i, metric)
            for i in range(num_shards)
        ]
        assignments: list[list] = [[] for _ in range(num_shards)]
        i = 0
        for bundle in mat.iter_internal_ref_bundles():
            for block_ref, _meta in bundle.blocks:
                assignments[i % num_shards].append(block_ref)
                i += 1
        import ray

        ray.get([a.add_blocks.remote(refs) for a, refs in zip(actors, assignments)])
        ray.get([a.build.remote() for a in actors])
        return ShardedHnsw(actors, id_col, emb_col, metric)

    def query(self, query_vecs: np.ndarray, k: int = 10, ef: int | None = None):
        """Merged top-k per query across shards: list of (id, score)
        lists — score is similarity (descending) under cosine, distance
        (ascending) otherwise, matching ``HnswIndex.search``."""
        import ray

        per_shard = ray.get([a.query.remote(query_vecs, k, ef) for a in self.actors])
        sign = -1.0 if self.metric == "cosine" else 1.0
        merged = []
        for qi in range(len(query_vecs)):
            all_hits = [h for shard in per_shard for h in shard[qi]]
            all_hits.sort(key=lambda t: (sign * t[1], t[0]))
            merged.append(all_hits[:k])
        return merged

    def remove(self, keys, hard: bool = False) -> int:
        """Remove ids wherever they live: every shard drops the keys it
        holds (a key lives on exactly one shard, so the broadcast is an
        anti-join, not a scatter). Returns the number actually removed."""
        import ray

        return int(sum(ray.get([a.remove.remote(list(keys), hard) for a in self.actors])))

    def upsert(self, keys, vecs) -> None:
        """Insert-or-update: existing copies are hard-removed from
        whichever shard holds them, then each key is routed to a shard
        by id hash so re-upserts stay deterministic."""
        import ray

        keys = list(keys)
        vecs = np.asarray(vecs, dtype=np.float64)
        ray.get([a.remove.remote(keys, True) for a in self.actors])
        ns = len(self.actors)
        routed: list[list[int]] = [[] for _ in range(ns)]
        for j, key in enumerate(keys):
            routed[hash(str(key)) % ns].append(j)
        ray.get(
            [
                self.actors[s].upsert.remote([keys[j] for j in idxs], vecs[idxs])
                for s, idxs in enumerate(routed)
                if idxs
            ]
        )

    def save(self, path: str) -> dict:
        """Checkpoint the built index: every shard serializes its graph
        to ``shard-<i>.hnsw`` in parallel (the driver never touches
        vectors or adjacency), ``manifest.json`` pins the layout. The
        reference pickles its indexes (``minhash.py:529-541``; HNSW
        pickle round-trips in its tests) — this is that contract for
        actor-resident graphs. Requires a path visible to all shard
        actors (shared fs on a multi-node cluster)."""
        import json
        import os

        import ray

        os.makedirs(path, exist_ok=True)
        counts = ray.get(
            [
                a.dump_to_file.remote(os.path.join(path, f"shard-{i}.hnsw"))
                for i, a in enumerate(self.actors)
            ]
        )
        manifest = {
            "format": 1,
            "kind": "sharded_hnsw",
            "num_shards": len(self.actors),
            "id_col": self.id_col,
            "emb_col": self.emb_col,
            "metric": self.metric,
            "points": int(sum(counts)),
        }
        with open(os.path.join(path, "manifest.json"), "w") as f:
            json.dump(manifest, f)
        return manifest

    @staticmethod
    def restore(path: str) -> "ShardedHnsw":
        """Rebuild from ``save`` output: fresh shard actors each load
        their serialized graph — no vector re-ingest, no graph rebuild.
        The shard count is pinned by the manifest (graphs don't
        re-shard without a rebuild); queries, removes, upserts and
        further saves work exactly as before the restart."""
        import json
        import os

        import ray

        with open(os.path.join(path, "manifest.json")) as f:
            m = json.load(f)
        _Shard = _shard_actor_cls()
        actors = [
            _Shard.remote(m["id_col"], m["emb_col"], 16, 100, 1 + i, m["metric"])
            for i in range(m["num_shards"])
        ]
        ray.get(
            [
                a.load_from_file.remote(os.path.join(path, f"shard-{i}.hnsw"))
                for i, a in enumerate(actors)
            ]
        )
        return ShardedHnsw(actors, m["id_col"], m["emb_col"], m["metric"])

    def total_dist_computations(self) -> int:
        import ray

        return int(sum(ray.get([a.n_dist.remote() for a in self.actors])))

    def shutdown(self) -> None:
        import ray

        for a in self.actors:
            ray.kill(a)
        self.actors = []


def build_ivf_centroids(ds, emb_col: str = "embedding", n_centroids: int = 64, sample_rows: int = 20_000, iters: int = 10, seed: int = 5) -> np.ndarray:
    """IVF coarse quantizer: k-means over a bounded SAMPLE (never the
    full table) on the driver — centroids are tiny and broadcast. Lloyd
    iterations on normalized vectors (spherical k-means-ish: cosine
    assignment, mean re-center)."""
    sample = ds.select_columns([emb_col]).limit(sample_rows).take_all()
    m = np.asarray([r[emb_col] for r in sample], dtype=np.float64)
    return spherical_kmeans(m, n_centroids, iters, seed)


def spherical_kmeans(m: np.ndarray, n_centroids: int, iters: int = 10, seed: int = 5) -> np.ndarray:
    """Seeded Lloyd iterations over the rows of ``m`` (normalized here):
    cosine assignment, mean re-center. A function of the row SET, not
    its order."""
    m = _normalize(m)
    # canonicalize the sample order: take_all's block order is an
    # execution accident, and rng.choice picks INDICES — without this
    # sort the "seeded" k-means differed run to run on identical data
    m = m[np.lexsort(m.T[::-1])]
    rng = np.random.default_rng(seed)
    cent = m[rng.choice(len(m), size=min(n_centroids, len(m)), replace=False)]
    for _ in range(iters):
        assign = np.argmax(m @ cent.T, axis=1)
        for c in range(len(cent)):
            members = m[assign == c]
            if len(members):
                v = members.sum(axis=0)
                nv = np.linalg.norm(v)
                if nv:
                    cent[c] = v / nv
    return cent


def add_ivf_cell(ds, centroids: np.ndarray, emb_col: str = "embedding"):
    """Adds a ``cell`` column = nearest-centroid id (the IVF inverted
    list key). Centroids are broadcast once via ``ray.put``."""
    import ray

    cref = ray.put(np.ascontiguousarray(centroids))

    def assign(batch: pa.Table) -> pa.Table:
        cent = ray.get(cref)
        m = _normalize(_emb_matrix(batch, emb_col))
        cell = np.argmax(m @ cent.T, axis=1).astype(np.int32)
        return batch.append_column("cell", pa.array(cell, pa.int32()))

    return ds.map_batches(assign, batch_format="pyarrow")


def ivf_topk(ds, query_vecs: np.ndarray, k: int = 10, nprobe: int = 4, n_centroids: int = 64, id_col: str = "vec_id", emb_col: str = "embedding"):
    """IVF approximate top-k: assign the corpus to inverted cells once,
    probe the ``nprobe`` nearest cells per query, exact-rerank only the
    candidates in those cells (the classic coarse-quantizer scale path;
    candidate fraction ≈ nprobe/n_centroids). Returns a Dataset
    (query_idx, {id_col}, cos) of ≤ k rows per query."""
    import ray

    cent = build_ivf_centroids(ds, emb_col, n_centroids)
    celled = add_ivf_cell(ds.select_columns([id_col, emb_col]), cent, emb_col)
    q = _normalize(np.asarray(query_vecs, dtype=np.float64))
    qcells = np.argsort(-(q @ cent.T), axis=1)[:, :nprobe].astype(np.int32)
    qref = ray.put((q, qcells))

    def score(batch: pa.Table) -> pa.Table:
        qm, qc = ray.get(qref)
        cells = batch.column("cell").to_numpy(zero_copy_only=False)
        row, qi = np.nonzero((cells[:, None, None] == qc[None]).any(axis=2))
        m = _normalize(_emb_matrix(batch, emb_col))
        return _candidates(batch, id_col, row, qi, np.einsum("ij,ij->i", m[row], qm[qi]))

    scored = celled.map_batches(score, batch_format="pyarrow", batch_size=4096)
    return top_k_per_key(scored, ["query_idx"], [("cos", "descending"), (id_col, "ascending")], k)


def embedding_near_dup_pairs(
    ds,
    threshold: float = 0.95,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    bits: int = 6,
    seed: int = 7,
    group_cap: int = 4096,
):
    """Cosine near-dup pairs: hyperplane buckets as ``map_key_runs``
    runs, exact pairwise cosine within each bucket of 2..``group_cap``
    rows. Pairs crossing buckets are missed with probability
    (1 - θ/π)^bits per plane-split — raise ``bits`` for speed, lower
    for recall. Returns (id_a, id_b, cos)."""
    from raydedup.stages.grouped import auto_partitions, map_key_runs

    bucketed = add_hyperplane_bucket(ds.select_columns([id_col, emb_col]), emb_col, bits, seed)

    def within(block: pa.Table, starts, ends) -> pa.Table:
        runs = [(s, e) for s, e in zip(starts, ends) if e - s <= group_cap]
        if not runs:
            return pa.table(
                {"id_a": pa.array([], pa.int64()), "id_b": pa.array([], pa.int64()), "cos": pa.array([], pa.float64())}
            )
        out = []
        m = _normalize(_emb_matrix(block, emb_col))
        ids = block.column(id_col).to_numpy(zero_copy_only=False)
        for s, e in runs:
            cos = m[s:e] @ m[s:e].T
            a, b = np.triu_indices(e - s, k=1)
            keep = cos[a, b] >= threshold
            ia, ib = ids[s:e][a[keep]], ids[s:e][b[keep]]
            out.append(
                pa.table(
                    {
                        "id_a": pa.array(np.minimum(ia, ib)),
                        "id_b": pa.array(np.maximum(ia, ib)),
                        "cos": pa.array(cos[a, b][keep], pa.float64()),
                    }
                )
            )
        return pa.concat_tables(out)

    return map_key_runs(bucketed, "bucket", within, auto_partitions(ds))

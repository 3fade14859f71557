"""The flagship near-dup detection + clustering pipeline.

read(images table) → SignatureStage (map tasks: MinHash over caption
shingles + SimHash from phash) → band explode (MinHash b×r bands ∪
SimHash bit-bands ∪ exact content hashes) → ONE bucket shuffle →
candidate pairs (+ window-anchor substring pairs) → connected
components → (image_id, cluster_id). Candidates stay unfiltered, as the
reference returns them (``datasketch/lsh.py:376-378``).

Per-stage checkpointing: every materialized stage can persist to a
named Parquet directory with a manifest (total rows, wall time, config
fingerprint, and a per-partition lineage record — file name, rows,
bytes — read from the parquet footers, never by re-scanning data); a
resumed run reuses any stage whose manifest is present and
config-compatible — "resumable from checkpoint mid-shuffle" means the
expensive signature and pair tables are never recomputed (SURVEY.md
§4.2/§4.3). The manifest doubles as per-stage + per-partition lineage
and metrics output (north-rule: "per-partition lineage + metrics").
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, asdict

import pyarrow as pa

from raydedup.params import optimal_param
from raydedup.stages.bands import fused_candidate_pairs
from raydedup.stages.components import connected_components
from raydedup.stages.dedup import substring_pairs
from raydedup.stages.grouped import task_stage
from raydedup.stages.signatures import SignatureStage

# SimHash bit-bands over the 64-bit phash: pigeonhole catches every pair
# at Hamming distance ≤ SIMHASH_BANDS - 1 (= 3)
SIMHASH_BANDS = 4
# rows per signature map batch: the (tokens, 128) permute temporary
# stays ~6 MB, cache-friendly
SIGNATURE_BATCH_SIZE = 256


@dataclass
class DedupConfig:
    num_perm: int = 128
    seed: int = 1
    threshold: float = 0.8
    shingle: str = "word3"
    use_substring: bool = True
    substring_window: int = 4
    use_exact: bool = True
    bucket_cap: int = 512
    id_col: str = "image_id"
    text_col: str = "caption"
    phash_col: str | None = "phash"  # None turns SimHash off
    # "sha1" = reference-bit-exact profile; "md5" = DuckDB-reproducible
    # profile (md5_number_lower) for oracled queries — the reference
    # treats hashfunc as pluggable (datasketch/hashfunc.py)
    hashfunc: str = "sha1"
    num_partitions: int | None = None  # None → auto-sized from the input row count
    checkpoint_dir: str | None = None
    # driver-DSU edge budget for connected components; 0 forces the
    # distributed alternating-star path
    max_driver_edges: int = 5_000_000

    @property
    def band_params(self) -> tuple[int, int]:
        return optimal_param(self.threshold, self.num_perm)

    def fingerprint(self) -> str:
        d = asdict(self)
        d.pop("checkpoint_dir", None)
        d.pop("num_partitions", None)
        d.pop("max_driver_edges", None)  # execution strategy, not semantics
        return json.dumps(d, sort_keys=True)


class Checkpointer:
    """Stage-output persistence + lineage manifest."""

    def __init__(self, root: str | None, config_fingerprint: str):
        self.root = root
        self.fp = config_fingerprint
        self.metrics: list[dict] = []
        if root:
            os.makedirs(root, exist_ok=True)

    def run(self, name: str, build):
        """Return a Dataset for stage ``name``: reuse the checkpoint if
        its manifest matches the config, else build, persist, record."""
        import ray.data as rd

        if self.root:
            stage_dir = os.path.join(self.root, name)
            manifest = os.path.join(self.root, f"{name}.manifest.json")
            if os.path.exists(manifest) and os.path.isdir(stage_dir):
                with open(manifest) as f:
                    meta = json.load(f)
                if meta.get("config_fingerprint") == self.fp:
                    self.metrics.append({"stage": name, "reused": True, **meta})
                    return rd.read_parquet(stage_dir)
        t0 = time.perf_counter()
        ds = build()
        if not self.root:
            # no checkpoint dir: pin the stage output in the object store
            # (timed) so downstream consumers never re-run the build
            ds = ds.materialize()
        if self.root:
            stage_dir = os.path.join(self.root, name)
            tmp = stage_dir + ".tmp"
            import shutil

            shutil.rmtree(tmp, ignore_errors=True)
            ds.write_parquet(tmp)
            # per-partition lineage from the parquet footers (no data
            # re-read): one record per written fragment, so a consumer
            # can audit / skip / re-fetch individual partitions
            parts = []
            import pyarrow.parquet as _pq

            for fn in sorted(os.listdir(tmp)):
                fp = os.path.join(tmp, fn)
                if not fn.endswith(".parquet"):
                    continue
                parts.append(
                    {
                        "file": fn,
                        "rows": _pq.ParquetFile(fp).metadata.num_rows,
                        "bytes": os.path.getsize(fp),
                    }
                )
            shutil.rmtree(stage_dir, ignore_errors=True)
            os.rename(tmp, stage_dir)
            meta = {
                "rows": sum(p["rows"] for p in parts),
                "wall_sec": round(time.perf_counter() - t0, 3),
                "config_fingerprint": self.fp,
                "partitions": parts,
            }
            with open(os.path.join(self.root, f"{name}.manifest.json"), "w") as f:
                json.dump(meta, f)
            self.metrics.append({"stage": name, "reused": False, **meta})
            return rd.read_parquet(stage_dir)
        self.metrics.append(
            {"stage": name, "reused": False, "wall_sec": round(time.perf_counter() - t0, 3)}
        )
        return ds

    def flush_metrics(self):
        if self.root:
            with open(os.path.join(self.root, "metrics.json"), "w") as f:
                json.dump(self.metrics, f, indent=1)


def dedup_pipeline(ds, config: DedupConfig | None = None) -> dict:
    """Run the flagship pipeline; returns dict with ``signatures``,
    ``pairs``, ``clusters`` Datasets (clusters may be an Arrow table when
    the driver DSU path is taken) and ``metrics``."""
    cfg = config or DedupConfig()
    from raydedup.stages.grouped import auto_partitions

    npart = cfg.num_partitions if cfg.num_partitions else auto_partitions(ds)
    b, r = cfg.band_params
    ck = Checkpointer(cfg.checkpoint_dir, cfg.fingerprint())

    def build_signatures():
        # stateless map tasks; the (tiny, seed-derived) permutation
        # state is rebuilt once per worker process — task scheduling is
        # elastic where an actor pool pays spin-up + ramp
        fn = task_stage(
            SignatureStage,
            num_perm=cfg.num_perm,
            seed=cfg.seed,
            shingle=cfg.shingle,
            text_col=cfg.text_col,
            phash_col=cfg.phash_col,
            hashfunc=cfg.hashfunc,
        )
        return ds.map_batches(
            fn, batch_format="pyarrow", batch_size=SIGNATURE_BATCH_SIZE, num_cpus=1
        )

    # The signature table is consumed by several downstream branches
    # (minhash bands, simhash bands, exact, substring); the
    # checkpoint (or in-memory materialize) pins it so the lazy plan is
    # never duplicated per branch.
    signatures = ck.run("signatures", build_signatures)

    if signatures.count() == 0:
        # empty corpus: Ray Data reports schema()=None for an empty
        # materialized dataset, which the pair stages can't type against
        # — short-circuit with the canonical empty result instead. The
        # id type comes from the (still schema-bearing) INPUT dataset so
        # a non-string id column keeps a union-compatible empty schema
        # (ADVICE r03; matches the ann.py empty path).
        import ray.data as rd

        in_sch = ds.schema()
        id_t = (
            in_sch.base_schema.field(cfg.id_col).type
            if in_sch is not None and cfg.id_col in in_sch.base_schema.names
            else pa.string()
        )
        empty_pairs = pa.table(
            {"id_a": pa.array([], id_t), "id_b": pa.array([], id_t)}
        )
        empty_clusters = pa.table(
            {"image_id": pa.array([], id_t), "cluster_id": pa.array([], id_t)}
        )
        ck.flush_metrics()
        return {
            "signatures": signatures,
            "pairs": rd.from_arrow(empty_pairs),
            "clusters": empty_clusters,
            "metrics": ck.metrics,
        }

    # Candidate generation: MinHash bands + Hamming-verified SimHash
    # bands + exact content-hash groups share ONE unified (id, bucket,
    # aux, mode) table and ONE shuffle (stages/bands.fused_candidate_pairs)
    # — per-branch shuffles tripled the fixed execution cost and starved
    # scaling at small corpus sizes. Substring dedup stays its own
    # (checkpointable) stage: a broadcast of every caption's anchor,
    # verified in the map that reads each caption's text (no shuffle). All
    # branches read the materialized signature table — never the raw
    # input lineage, which would re-execute the read per branch and can
    # wedge the streaming scheduler behind a blocking repartition.
    branches = {}
    branches["pairs_bands"] = lambda: fused_candidate_pairs(
        signatures,
        cfg.id_col,
        b,
        r,
        num_perm=cfg.num_perm,
        simhash_bands=SIMHASH_BANDS if cfg.phash_col else 0,
        max_hamming=SIMHASH_BANDS - 1,
        exact_cols=(
            tuple([cfg.text_col, cfg.phash_col] if cfg.phash_col else [cfg.text_col])
            if cfg.use_exact
            else ()
        ),
        bucket_cap=cfg.bucket_cap,
        num_partitions=npart,
    )
    if cfg.use_substring:
        branches["pairs_substring"] = lambda: substring_pairs(
            signatures,
            cfg.id_col,
            cfg.text_col,
            window=cfg.substring_window,
        )

    pair_sets = [ck.run(name, build) for name, build in branches.items()]

    from raydedup.stages.grouped import unique_rows_partitioned

    # pair tables are pinned (checkpointed/materialized) → count is
    # free; downstream pair shuffles are sized by PAIR volume, not corpus
    n_pairs = sum(p.count() for p in pair_sets)
    npart_pairs = auto_partitions(n_pairs)

    def build_pairs():
        pairs = pair_sets[0]
        for e in pair_sets[1:]:
            pairs = pairs.union(e)
        return pairs

    # the edge multiset (band and cross-source duplicates still in):
    # union-find is duplicate-tolerant, so components run directly on
    # it and the dedupe shuffle is LAZY — it only executes if a caller
    # actually consumes the ``pairs`` table (the driver queries do;
    # bench's cluster-only flagship run doesn't pay for it)
    edges = ck.run("pairs", build_pairs)

    t0 = time.perf_counter()
    clusters = connected_components(
        edges, max_driver_edges=cfg.max_driver_edges, num_partitions=npart_pairs
    )
    ck.metrics.append({"stage": "components", "wall_sec": round(time.perf_counter() - t0, 3)})
    ck.flush_metrics()
    pairs = unique_rows_partitioned(edges, ["id_a", "id_b"], npart_pairs)
    return {"signatures": signatures, "pairs": pairs, "clusters": clusters, "metrics": ck.metrics}

"""Benchmark harness (driver contract: prints ONE JSON line).

Headline: the flagship image+caption near-dup pipeline (MinHash bands ∪
SimHash bands ∪ exact ∪ substring → pairs → components) over the
deterministic synthetic F1 corpus (BASELINE.json input_hint schema),
cached as parquet under /tmp. Also reports signatures/sec (north-rule
throughput metric) and per-query wall times over $GRAFT_SF_DIR.

    python bench.py              # single run at $RAY_GRAFT_CPUS (def. 32)
    python bench.py --scaling    # fresh N- and 4N-CPU processes (default
                                 # 2 and 8) on the same input → both
                                 # throughputs + scaling efficiency
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
BENCH_N = int(os.environ.get("RAYDEDUP_BENCH_N", "100000"))

BENCH_QUERIES = [
    "exact_dedup_docs",
    "minhash_dedup_docs",
    "substring_pairs_docs",
    "ngram_jaccard_docs",
    "containment_pairs_docs",
    "decontaminate_docs",
    "cluster_representatives",
    "embedding_near_dup",
    "ann_topk",
    "token_counts",
    "doc_quality",
    "repetition_docs",
    "token_rarity_docs",
    "lineitem_agg",
    "window_counts",
    "sessionize_events",
    "event_debounce",
    "asof_join_events",
    "overlapping_sessions",
    "json_field_stats",
    "hll_users_per_type",
    "top_terms",
    "image_dedup_synth",
    "image_thumbs_synth",
    "image_stream_dedup",
    "sliding_window_counts",
    "audio_features_synth",
    "video_frames_synth",
    "dup_ngram_fraction",
    "line_dedup_docs",
    "cross_source_neardup",
    "stratified_sample_docs",
    "source_mix_epochs",
    "pack_sequences",
    "length_quantiles",
    "normalize_docs",
    "semantic_dedup",
    "top_docs_per_source",
    "uniform_sample_docs",
    "price_quantiles_sketch",
    "heavy_hitter_terms",
    "source_similarity",
]


def ensure_bench_table(n_base: int, with_images: bool = True) -> str:
    """Generate-and-cache the synthetic image corpus (deterministic).
    ``with_images=False`` writes 1-pixel payloads — the caption/phash
    workload is identical and the multi-million-row rehearsal corpus
    stays generable. The planted ground truth rides along as
    ``*_truth.parquet`` (see synth.truth_pairs_table) so benches report
    dup-pair recall — the north-rule headline — at corpus scale."""
    suffix = "" if with_images else "_nopix"
    path = f"/tmp/raydedup_bench/images_{n_base}{suffix}_rg4k_v5.parquet"
    tpath = truth_path(path)
    if not (os.path.exists(path) and os.path.exists(tpath)):
        os.makedirs("/tmp/raydedup_bench", exist_ok=True)
        import pyarrow.parquet as pq

        from raydedup.synth import make_images_table, truth_pairs_table

        table, truth = make_images_table(n_base=n_base, with_images=with_images)
        pq.write_table(truth_pairs_table(table, truth), tpath + ".tmp")
        os.rename(tpath + ".tmp", tpath)
        # small row groups: Ray 2.49 still reads the file as ONE task
        # (ReadParquet->SplitBlocks(13) over 9 row groups), but that
        # task splits its output into several blocks for the maps
        pq.write_table(table, path + ".tmp", row_group_size=4096)
        os.rename(path + ".tmp", path)
    return path


def truth_path(img_path: str) -> str:
    return img_path.replace(".parquet", "_truth.parquet")


def planted_recall_for(img_path: str, clusters, cfg) -> dict:
    """Untimed post-check: dup-pair recall of a flagship run against
    the corpus's planted truth (the north-rule headline metric)."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from raydedup.pipeline import SIMHASH_BANDS
    from raydedup.synth import planted_recall

    if hasattr(clusters, "to_arrow_refs"):  # Dataset → driver table
        clusters = pa.concat_tables(ray.get(clusters.to_arrow_refs()))
    return planted_recall(
        clusters,
        pq.read_table(truth_path(img_path)),
        substring_window=cfg.substring_window,
        simhash_bands=SIMHASH_BANDS,
    )


def start_session():
    """Start the local Ray session the bench modes run in (unless one
    is already up), quiet: no progress bars, ray.data logs at ERROR."""
    import logging

    import ray
    import ray.data as rd

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=NUM_CPUS,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    rd.DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


def consume(ds) -> int:
    n = 0
    for b in ds.iter_batches(batch_size=65536, batch_format="pyarrow"):
        n += len(b)
    return n


def run_bench() -> dict:
    import ray.data as rd

    from raydedup.pipeline import DedupConfig, dedup_pipeline
    from raydedup.stages.signatures import signature_map

    start_session()

    img_path = ensure_bench_table(BENCH_N)
    # warm untimed: page cache for the input AND the Ray worker pool —
    # a fresh session spawns its ~NUM_CPUS worker processes lazily on
    # first use, which would otherwise be billed to the first stage
    # (steady-state clusters have persistent workers)
    consume(rd.read_parquet(img_path, columns=["image_id"]))
    rd.range(NUM_CPUS * 4, override_num_blocks=NUM_CPUS * 4).map_batches(
        lambda t: t, batch_format="pyarrow", num_cpus=1
    ).count()

    sig_cols = ["image_id", "caption", "phash"]

    # signatures/sec (north-rule throughput metric): the pipeline's own
    # signature map alone, counted without shipping the signature blocks
    # to the driver
    t0 = time.perf_counter()
    n_rows = signature_map(rd.read_parquet(img_path, columns=sig_cols)).count()
    sig_sec = time.perf_counter() - t0

    # headline: full fused pipeline (signatures recomputed inside)
    t0 = time.perf_counter()
    # partitions auto-sized from input rows (capped at cluster CPUs)
    cfg = DedupConfig()
    ds = rd.read_parquet(img_path, columns=sig_cols + ["w", "h", "fmt"])
    out = dedup_pipeline(ds, cfg)
    clusters = out["clusters"]
    n_clustered = clusters.num_rows if hasattr(clusters, "num_rows") else clusters.count()
    flagship_sec = time.perf_counter() - t0
    stage_walls = {m["stage"]: m.get("wall_sec") for m in out["metrics"] if "stage" in m}
    recall = planted_recall_for(img_path, clusters, cfg)  # untimed post-check

    # per-query timings over the shared sf tables
    from raydedup.queries import QUERIES

    qtimes = {}
    skip_queries = os.environ.get("RAYDEDUP_SKIP_QUERIES") == "1"
    # min over 2 legs per query: this host's single-thread speed swings
    # up to 2× between consecutive runs (BASELINE.md VM-noise protocol);
    # one retimed leg recovers the representative wall the in-process
    # A/B records use, at ~2× bench runtime
    q_legs = int(os.environ.get("RAYDEDUP_QUERY_LEGS", "2"))
    for name in [] if skip_queries else BENCH_QUERIES:
        best = None
        for _ in range(max(1, q_legs)):
            t0 = time.perf_counter()
            res = QUERIES[name](SF_DIR)
            if hasattr(res, "iter_batches"):
                consume(res)
            leg = time.perf_counter() - t0
            best = leg if best is None else min(best, leg)
        qtimes[name] = round(best, 3)

    return {
        "metric": "flagship_image_dedup_sec",
        "value": round(flagship_sec, 3),
        "unit": "sec",
        "queries": qtimes,
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "bench_rows": n_rows,
        "n_clustered": int(n_clustered),
        "signatures_per_sec": round(n_rows / sig_sec, 1),
        "signature_stage_sec": round(sig_sec, 3),
        "stage_walls": stage_walls,
        "dup_pair_recall": recall["dup_pair_recall"],
        "recall_must_pairs": recall["must_pairs"],
        "recall_per_kind": recall["recall_per_kind"],
    }


def run_scaling() -> dict:
    """Same job in fresh processes at N and 4N CPUs (sandbox protocol
    for the two-cluster-size criterion — see BASELINE.md). Levels via
    RAYDEDUP_SCALE_LEVELS="lo,hi"; the default "2,8" evidences compute
    scaling below the single-box memory-bandwidth ceiling (~120k sigs/s
    aggregate, reached between 8 and 16 cores); "8,32" reports the
    saturated regime."""
    lo_n, hi_n = (int(x) for x in os.environ.get("RAYDEDUP_SCALE_LEVELS", "2,8").split(","))
    ensure_bench_table(max(BENCH_N, 300_000))  # shared cache; generation cost excluded

    def run(ncpu: int) -> dict:
        env = dict(
            os.environ,
            RAY_GRAFT_CPUS=str(ncpu),
            RAYDEDUP_SKIP_QUERIES="1",
            RAYDEDUP_BENCH_N=str(max(BENCH_N, 300_000)),
        )
        out = subprocess.run(
            [sys.executable, os.path.join(os.path.dirname(__file__) or ".", "bench.py")],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    ensure_bench_table(max(BENCH_N, 300_000))
    # min over repeats per leg: the host is time-shared and individual
    # runs absorb up to ~20% steal; the minimum estimates the
    # noise-free wall time (both legs get the same treatment)
    repeats = int(os.environ.get("RAYDEDUP_SCALE_REPEATS", "3"))
    lo = min((run(lo_n) for _ in range(repeats)), key=lambda d: d["value"])
    hi = min((run(hi_n) for _ in range(repeats)), key=lambda d: d["value"])
    t_lo, t_hi = lo["value"], hi["value"]
    eff = (t_lo / t_hi) / (hi_n / lo_n)
    return {
        "metric": "scaling_efficiency",
        "value": round(eff, 3),
        "unit": "ratio",
        "cpus_lo": lo_n,
        "cpus_hi": hi_n,
        f"sec_{lo_n}": t_lo,
        f"sec_{hi_n}": t_hi,
        f"signatures_per_sec_{lo_n}": lo["signatures_per_sec"],
        f"signatures_per_sec_{hi_n}": hi["signatures_per_sec"],
        "sig_stage_eff": round((lo["signature_stage_sec"] / hi["signature_stage_sec"]) / (hi_n / lo_n), 3),
        "bench_rows": hi["bench_rows"],
    }


def require_same_labels(distributed, driver) -> None:
    """Raise unless two (image_id, cluster_id) tables label every node
    the same — a runtime check that ``python -O`` keeps."""

    def canon(t):
        return t.to_pandas().sort_values("image_id").reset_index(drop=True)

    if not canon(distributed).equals(canon(driver)):
        raise RuntimeError("distributed labels != driver labels")


def run_components() -> dict:
    """Driver-DSU vs forced-distributed connected components on the same
    dedup-shaped edge list (VERDICT r02 item 1 evidence protocol).

    Graph shape mirrors a near-dup pair table: overwhelmingly tiny
    clusters (stars of 1-3 edges), a few hot stars (skew probes), and
    one long chain (propagation-depth stress), with a 30% duplicate-edge
    multiset on top (band/mode duplicates). Both paths run on
    the same multiset: the driver union-find takes duplicates as they
    are. The distributed leg is ``components_distributed`` with
    ``driver_finish_rows=0``, so it runs the peel pass (which dedupes),
    the star rounds to their fixpoint and the relabel; through
    ``connected_components`` it would finish on the driver as soon as
    the distinct edges fit 4M rows. Labels are checked identical."""
    import numpy as np
    import pyarrow as pa
    import ray
    import ray.data as rd

    start_session()
    n_edges = int(os.environ.get("RAYDEDUP_CC_EDGES", "8000000"))
    rng = np.random.default_rng(0)
    next_id = 0

    def take(n):
        nonlocal next_id
        out = np.arange(next_id, next_id + n, dtype=np.int64)
        next_id += n
        return out

    ea, eb = [], []
    # hot stars: 20 clusters of 5000 (bucket-cap skew shape)
    for _ in range(20):
        ids = take(5000)
        ea.append(np.full(4999, ids[0]))
        eb.append(ids[1:])
    # one 100k chain (worst-case propagation depth)
    chain = take(100_000)
    ea.append(chain[:-1])
    eb.append(chain[1:])
    # tiny clusters of 2-4 for the remainder
    remaining = n_edges - sum(len(x) for x in ea)
    sizes = rng.integers(2, 5, size=remaining)  # edges per cluster = size-1
    sizes = sizes[np.cumsum(sizes - 1) <= remaining]
    ids = take(int(sizes.sum()))
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    roots = np.repeat(ids[starts], sizes - 1)
    mask = np.ones(len(ids), dtype=bool)
    mask[starts] = False
    ea.append(roots)
    eb.append(ids[mask])
    a = np.concatenate(ea)
    b = np.concatenate(eb)
    n_distinct = len(a)
    # 30% duplicate multiset (band/mode dup edges)
    dup = rng.integers(0, len(a), size=len(a) // 3)
    a = np.concatenate([a, a[dup]])
    b = np.concatenate([b, b[dup]])
    perm = rng.permutation(len(a))
    ida = np.char.add("img", a[perm].astype("U9"))
    idb = np.char.add("img", b[perm].astype("U9"))
    table = pa.table({"id_a": pa.array(ida), "id_b": pa.array(idb)})

    from raydedup.stages.components import components_distributed, components_driver
    edges = rd.from_arrow(table).materialize()
    # warm the worker pool untimed
    rd.range(NUM_CPUS * 4, override_num_blocks=NUM_CPUS * 4).map_batches(
        lambda t: t, batch_format="pyarrow", num_cpus=1
    ).count()

    def run(distributed: bool):
        t0 = time.perf_counter()
        if distributed:
            res = components_distributed(edges, driver_finish_rows=0)
            res = pa.concat_tables(ray.get(res.to_arrow_refs()))
        else:
            res = components_driver(edges)
        return time.perf_counter() - t0, res

    reps = int(os.environ.get("RAYDEDUP_CC_REPEATS", "2"))
    t_drv, t_dist, labels = [], [], []
    for _ in range(reps):  # alternate within one process (VM-noise protocol)
        td, res_d = run(distributed=False)
        tx, res_x = run(distributed=True)
        t_drv.append(td)
        t_dist.append(tx)
        labels = [res_d, res_x]
    require_same_labels(labels[0], labels[1])
    return {
        "metric": "components_distributed_over_driver",
        "value": round(min(t_dist) / min(t_drv), 3),
        "unit": "ratio",
        "driver_sec": round(min(t_drv), 3),
        "distributed_sec": round(min(t_dist), 3),
        "edges_multiset": len(a),
        "distinct_edges": int(n_distinct),
        "nodes": int(next_id),
        "num_cpus": NUM_CPUS,
    }


def run_rehearsal() -> dict:
    """End-to-end 100-TB-configuration rehearsal (VERDICT r03 next-#8):
    the flagship pipeline at ~5M rows with ``max_driver_edges=0``
    (forced distributed connected components). The driver-DSU
    components path then runs on the SAME pair table and the two
    labelings are checked identical (the at-scale stand-in for the
    ``minhash_clusters_md5`` oracle), with the wall ratio reported."""
    import pyarrow as pa
    import ray
    import ray.data as rd

    from raydedup.pipeline import DedupConfig, dedup_pipeline
    from raydedup.stages.components import connected_components

    start_session()
    n_base = int(os.environ.get("RAYDEDUP_REHEARSAL_N", "2800000"))
    img_path = ensure_bench_table(n_base, with_images=False)
    consume(rd.read_parquet(img_path, columns=["image_id"]))  # warm page cache
    rd.range(NUM_CPUS * 4, override_num_blocks=NUM_CPUS * 4).map_batches(
        lambda t: t, batch_format="pyarrow", num_cpus=1
    ).count()

    cfg = DedupConfig(max_driver_edges=0)
    ds = rd.read_parquet(img_path, columns=["image_id", "caption", "phash", "w", "h", "fmt"])
    t0 = time.perf_counter()
    out = dedup_pipeline(ds, cfg)
    clusters = out["clusters"]
    if hasattr(clusters, "to_arrow_refs"):
        clusters = pa.concat_tables(ray.get(clusters.to_arrow_refs()))
    flagship_sec = time.perf_counter() - t0
    stage_walls = {m["stage"]: m.get("wall_sec") for m in out["metrics"] if "stage" in m}

    # driver-path components on the SAME pairs: label check + wall ratio
    pairs = out["pairs"]
    t0 = time.perf_counter()
    drv = connected_components(pairs, max_driver_edges=2**62)
    if hasattr(drv, "to_arrow_refs"):
        drv = pa.concat_tables(ray.get(drv.to_arrow_refs()))
    driver_cc_sec = time.perf_counter() - t0

    require_same_labels(clusters, drv)
    recall = planted_recall_for(img_path, clusters, cfg)  # untimed post-check
    return {
        "metric": "rehearsal_flagship_sec",
        "value": round(flagship_sec, 3),
        "unit": "sec",
        "rows": int(ds.count()),
        "n_clustered": int(clusters.num_rows),
        "stage_walls": stage_walls,
        "distributed_cc_sec": stage_walls.get("components"),
        "driver_cc_sec": round(driver_cc_sec, 3),
        "labels_match": True,
        "num_cpus": NUM_CPUS,
        "dup_pair_recall": recall["dup_pair_recall"],
        "recall_must_pairs": recall["must_pairs"],
        "recall_per_kind": recall["recall_per_kind"],
    }


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    elif "--rehearsal" in sys.argv:
        print(json.dumps(run_rehearsal()))
        import ray

        ray.shutdown()
    elif "--components" in sys.argv:
        print(json.dumps(run_components()))
        import ray

        ray.shutdown()
    else:
        result = run_bench()
        print(json.dumps(result))
        import ray

        ray.shutdown()

"""``ray job submit`` entrypoint for the flagship dedup pipeline.

The north rule runs the whole job via ``ray job submit`` against a
fixed-size multi-node cluster (BASELINE.json north_rule). This module
is that entrypoint:

    ray job submit --working-dir . -- \
        python -m raydedup.job --input s3://bucket/images.lance \
            --output /mnt/out/clusters --checkpoint-dir /mnt/ckpt/run1

Inside a submitted job the Ray client is already wired to the cluster
(``RAY_ADDRESS`` is set by the job supervisor), so ``ray.init`` here
connects rather than starts a node; run standalone it falls back to a
local session. Per the driver contract the library itself never calls
``ray.init`` — only this CLI (and bench.py / the test fixture) own a
session, and only when none exists yet.

Output layout (resumable):
  <output>/clusters/   partitioned Parquet (image_id, cluster_id)
  <output>/pairs/      partitioned Parquet (id_a, id_b) — the deduped
                       candidate-pair edge set, written only with
                       ``--write-pairs``
  <output>/job_summary.json   row counts + per-stage walls
A re-run with the same ``--checkpoint-dir`` reuses every finished stage
whose manifest matches the config fingerprint (pipeline.Checkpointer),
so a job killed mid-shuffle resumes instead of recomputing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def build_config(args) -> "DedupConfig":
    from raydedup.pipeline import DedupConfig

    return DedupConfig(
        num_perm=args.num_perm,
        seed=args.seed,
        threshold=args.threshold,
        shingle=args.shingle,
        use_substring=not args.no_substring,
        use_exact=not args.no_exact,
        substring_window=args.substring_window,
        bucket_cap=args.bucket_cap,
        id_col=args.id_col,
        text_col=args.text_col,
        phash_col=None if args.no_simhash else args.phash_col,
        checkpoint_dir=args.checkpoint_dir,
        max_driver_edges=args.max_driver_edges,
    )


def main(argv: list[str] | None = None) -> dict:
    p = argparse.ArgumentParser(
        prog="python -m raydedup.job",
        description="Near-duplicate detection + clustering over an image+caption table.",
    )
    p.add_argument("--input", required=True, help="Lance dataset dir or Parquet path/dir")
    p.add_argument("--output", required=True, help="output directory (clusters/, pairs/)")
    p.add_argument("--checkpoint-dir", default=None, help="stage checkpoint + lineage dir")
    p.add_argument("--threshold", type=float, default=0.8)
    p.add_argument("--num-perm", type=int, default=128)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--shingle", default="word3")
    p.add_argument("--substring-window", type=int, default=4)
    p.add_argument("--bucket-cap", type=int, default=512)
    p.add_argument("--id-col", default="image_id")
    p.add_argument("--text-col", default="caption")
    p.add_argument("--phash-col", default="phash")
    p.add_argument("--no-simhash", action="store_true")
    p.add_argument("--no-substring", action="store_true")
    p.add_argument("--no-exact", action="store_true")
    p.add_argument("--write-pairs", action="store_true", help="also persist the pair edge set")
    p.add_argument(
        "--max-driver-edges",
        type=int,
        default=5_000_000,
        help="distinct-edge budget for the driver DSU; 0 always runs the distributed peel "
        "shuffle, whose remainder goes to the star rounds only above 4M rows",
    )
    args = p.parse_args(argv)

    import ray

    owns_session = not ray.is_initialized()
    if owns_session:
        # Under `ray job submit` RAY_ADDRESS points at the cluster and
        # ray.init() (which honors that env var itself) attaches;
        # standalone — no cluster, no env var — it starts a local
        # session. address="auto" would raise instead of falling back.
        ray.init(ignore_reinit_error=True)

    from raydedup.pipeline import dedup_pipeline
    from raydedup.schema import read_dataset

    cfg = build_config(args)
    cols = [cfg.id_col, cfg.text_col]
    if cfg.phash_col:
        cols.append(cfg.phash_col)
    t0 = time.perf_counter()
    ds = read_dataset(args.input, columns=cols)
    out = dedup_pipeline(ds, cfg)

    os.makedirs(args.output, exist_ok=True)
    clusters = out["clusters"]
    if hasattr(clusters, "write_parquet"):
        n_clustered = clusters.count()
        clusters.write_parquet(os.path.join(args.output, "clusters"))
    else:  # driver-DSU path returns an Arrow table (small by construction)
        import pyarrow.parquet as pq

        n_clustered = clusters.num_rows
        cdir = os.path.join(args.output, "clusters")
        os.makedirs(cdir, exist_ok=True)
        pq.write_table(clusters, os.path.join(cdir, "part-0.parquet"))
    n_pairs = None
    if args.write_pairs:
        pairs = out["pairs"]
        n_pairs = pairs.count()
        pairs.write_parquet(os.path.join(args.output, "pairs"))

    summary = {
        "input": args.input,
        "output": args.output,
        "clustered_rows": int(n_clustered),
        "pair_rows": None if n_pairs is None else int(n_pairs),
        "wall_sec": round(time.perf_counter() - t0, 3),
        "stage_walls": {
            m["stage"]: m.get("wall_sec") for m in out["metrics"] if "stage" in m
        },
        "resumed_stages": [m["stage"] for m in out["metrics"] if m.get("reused")],
        "config_fingerprint": cfg.fingerprint(),
    }
    with open(os.path.join(args.output, "job_summary.json"), "w") as f:
        json.dump(summary, f, indent=1)
    print(json.dumps(summary))
    if owns_session:
        ray.shutdown()
    return summary


if __name__ == "__main__":
    main(sys.argv[1:])

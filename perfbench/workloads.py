"""The two workloads, their untimed correctness checks, the per-layer
probes and the query layer.  Everything here runs inside the child
process that owns the Ray session (see ``child.py``)."""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
import statistics
import sys
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

WORKLOADS = ("flagship", "lsh-distributed")

# The query mix of the traced flagship run (the query layer), run once
# over the sf0.1 documents table in a seed-shuffled order.
# Left out: ngram_jaccard_docs, containment_pairs_docs,
# cluster_representatives, minhash_clusters_md5 and
# lsh_candidate_pairs_docs, whose DuckDB oracles each take over 60 s on
# these 5,000 documents, more than one run may spend on its checks.
QUERY_MIX = (
    "exact_dedup_docs",
    "minhash_dedup_docs",
    "substring_pairs_docs",
    "heavy_hitter_terms",
    "line_dedup_docs",
    "dup_ngram_fraction",
    "decontaminate_docs",
)
MIN_RECALL = 0.99

# pipeline stages inside the timed wall, named as ``Checkpointer.run``
# names them; "edges" is the union of the pair branches
STAGES = ("signatures", "pairs_bands", "pairs_substring", "edges", "components")

PER_LAYER = (
    ("kernel.signature.rows_per_s", "rows/s"),
    ("kernel.signature.memo_hit_ratio", "ratio"),
    ("kernel.band_explode.rows_per_s", "rows/s"),
    ("kernel.band_explode.fanout", "ratio"),
    ("grouped.map_key_runs.distributed_s", "s"),
    ("grouped.map_key_runs.coalesced_s", "s"),
    ("stage.signatures.s", "s"),
    ("stage.signatures.rows_per_s", "rows/s"),
    ("stage.signatures.bytes_out", "B"),
    ("stage.pairs_bands.s", "s"),
    ("stage.pairs_bands.pairs_out", "count"),
    ("stage.pairs_substring.s", "s"),
    ("stage.pairs_substring.pairs_out", "count"),
    ("stage.pairs.s", "s"),
    ("stage.pairs.pairs_out", "count"),
    ("stage.components.s", "s"),
    ("stage.components.edges_in", "count"),
    ("stage.components.clusters_out", "count"),
    ("stage.components.distributed", "flag"),
    *((f"query.{q}.s", "s") for q in QUERY_MIX),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "ratio"),
)


class Ops:
    """One progress line per finished operation, so the parent can count
    attempted and failed operations even if this process dies."""

    def __init__(self, progress_path: str):
        self._f = open(progress_path, "a", buffering=1)

    def done(self, name: str, ok: bool, why: str = "") -> None:
        self._f.write(json.dumps({"op": name, "ok": ok, "why": why}) + "\n")

    def close(self) -> None:
        self._f.close()


class StableValues:
    """Values that must repeat exactly across runs at one seed: the
    first run records them in a file next to the cached input, every
    later run (and iteration) compares."""

    def __init__(self, path: str):
        self.path = path
        self.values = {}
        if os.path.exists(path):
            with open(path) as f:
                self.values = json.load(f)

    def check(self, key: str, value) -> bool:
        if key not in self.values:
            self.values[key] = value
            with open(self.path + ".tmp", "w") as f:
                json.dump(self.values, f)
            os.replace(self.path + ".tmp", self.path)
            return True
        return self.values[key] == value


# ------------------------------------------------------------------ checks
def value_hash(df) -> str:
    """Order-insensitive value hash over sorted column names (the same
    hash ``scripts/check_oracles.py`` compares)."""
    df = df[sorted(df.columns)]
    rows = df.apply(lambda r: "|".join(repr(v) for v in r), axis=1).sort_values()
    return hashlib.sha1("\n".join(rows).encode()).hexdigest()[:16]


def result_signature(df) -> list:
    """[rows, sorted column names, value hash]: equal signatures are what
    ``scripts/check_oracles.py`` accepts as a match."""
    return [len(df), sorted(df.columns), value_hash(df)]


def canonical_labels(labels: pa.Table, id_col: str = "image_id") -> dict:
    """id -> smallest id of its cluster: equal dicts <=> same partition."""
    df = labels.select([id_col, "cluster_id"]).to_pandas()
    rep = df.groupby("cluster_id")[id_col].transform("min")
    return dict(zip(df[id_col], rep))


def same_partition(a: pa.Table, b: pa.Table, id_col: str = "image_id") -> bool:
    return canonical_labels(a, id_col) == canonical_labels(b, id_col)


def pair_partition(pairs: pa.Table) -> pa.Table:
    """(image_id, cluster_id) for every id of the pair table: a plain
    union-find, independent of the program's components stage."""
    parent: dict = {}

    def find(x):
        root = x
        while parent.setdefault(root, root) != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for a, b in zip(pairs.column("id_a").to_pylist(), pairs.column("id_b").to_pylist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    ids = list(parent)
    return pa.table({"image_id": ids, "cluster_id": [find(i) for i in ids]})


def image_recall(clusters: pa.Table, truth: pa.Table, exclude_kinds=()) -> float:
    from raydedup.synth import planted_recall

    if exclude_kinds:
        keep = pc.invert(pc.is_in(truth.column("kind"), pa.array(list(exclude_kinds))))
        truth = truth.filter(keep)
    r = planted_recall(clusters, truth)  # DedupConfig defaults: window 4, 4 bands
    return r["dup_pair_recall"]


def cluster_failures(clusters: pa.Table, truth: pa.Table, exclude_kinds=(), pairs: pa.Table | None = None) -> tuple[float, list[str]]:
    """Recall over the must-pairs, and what is wrong with ``clusters``:
    recall below ``MIN_RECALL``, or a partition other than the
    union-find over the pipeline's own pair table ``pairs``."""
    recall = image_recall(clusters, truth, exclude_kinds)
    why = []
    if recall is None or recall < MIN_RECALL:
        why.append(f"recall {recall} < {MIN_RECALL}")
    if pairs is not None and not same_partition(clusters, pair_partition(pairs)):
        why.append("clusters differ from the union-find over the pair table")
    return recall, why


# ---------------------------------------------------------------- probes
def kernel_probes(table: pa.Table, id_col: str, text_col: str, phash_col: str | None, reps: int = 3) -> dict:
    """L0 kernels without Ray, on the whole input: one call on a fresh
    ``SignatureStage`` (so the doc memo starts empty), then
    ``fused_band_explode`` on its output (median of ``reps``)."""
    from raydedup.params import optimal_param
    from raydedup.stages.bands import fused_band_explode
    from raydedup.stages.signatures import SignatureStage

    n = len(table)
    stage = SignatureStage(text_col=text_col, phash_col=phash_col)
    t0 = time.perf_counter()
    sig = stage(table)
    sig_s = time.perf_counter() - t0
    b, r = optimal_param(0.8, 128)
    exact = (text_col, phash_col) if phash_col else (text_col,)
    band_t, rows_out = [], 0
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fused_band_explode(
            sig, b, r, id_col, simhash_bands=4 if phash_col else 0, exact_cols=exact
        )
        band_t.append(time.perf_counter() - t0)
        rows_out = len(out)
    return {
        "kernel.signature.rows_per_s": n / sig_s,
        "kernel.signature.memo_hit_ratio": 1.0 - len(stage.sig_memo) / n,
        "kernel.band_explode.rows_per_s": n / statistics.median(band_t),
        "kernel.band_explode.fanout": rows_out / n,
    }


def grouped_probes() -> dict:
    """L1: ``map_key_runs`` with an identity run function on slim
    (key, value) inputs one row above and at the coalesce gate."""
    import ray.data as rd

    from raydedup.stages import grouped

    gate = grouped.SMALL_SHUFFLE_ROWS
    out = {}
    for side, rows in (("distributed", gate + 1), ("coalesced", gate)):
        keys = np.arange(rows, dtype=np.int64) % max(1, rows // 2)
        ds = rd.from_arrow(pa.table({"k": keys, "v": np.arange(rows, dtype=np.int64)}))
        t0 = time.perf_counter()
        grouped.map_key_runs(ds, "k", lambda block, s, e: block, num_partitions=2).materialize()
        out[f"grouped.map_key_runs.{side}_s"] = time.perf_counter() - t0
    return out


# -------------------------------------------------------------- workloads
def to_pandas(res):
    import pandas as pd

    return res if isinstance(res, pd.DataFrame) else res.to_pandas()


def _collect(clusters):
    import ray

    if isinstance(clusters, pa.Table):
        return clusters
    return pa.concat_tables(ray.get(clusters.to_arrow_refs()))


@contextlib.contextmanager
def coalesce_gate():
    """Scale the program's ``SMALL_SHUFFLE_ROWS`` coalesce gate with the
    corpus (to 26,214 at 20,000 base rows), so each size-gated step takes
    the side it takes on the full-size corpus (50,000 base rows), and
    restore it afterwards.  There the substring stage sees 91,673 docs,
    above the gate, and components see 57,660 distinct edges, below it;
    here ~36,600 docs and ~22,900 edges."""
    from raydedup.stages import grouped

    from corpus import FULL_N_BASE, IMAGES_N_BASE

    program_gate = grouped.SMALL_SHUFFLE_ROWS
    grouped.SMALL_SHUFFLE_ROWS = program_gate * IMAGES_N_BASE // FULL_N_BASE
    try:
        yield
    finally:
        grouped.SMALL_SHUFFLE_ROWS = program_gate


def pipeline_config(name: str):
    from raydedup.pipeline import DedupConfig

    if name == "flagship":
        return DedupConfig()
    return DedupConfig(use_substring=False, max_driver_edges=0)


def run_workload(spec: dict, ops: Ops, tracer=None) -> tuple[dict, dict]:
    """One operation is one pipeline run with clusters collected, on the
    run's corpus (``spec["input"]``).  After the warm-up (the end of
    set-up), timed operations repeat for ``seconds``, at least once.
    Every operation is checked, untimed.  A traced run instead runs,
    after the warm-up, the layer probes, one traced operation and, with
    the documents input, the query mix."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from raydedup.pipeline import dedup_pipeline

    from spans import traced_pipeline

    name = spec["workload"]

    def one(inp: dict, cfg_name: str, trace_it: bool):
        cfg = pipeline_config(cfg_name)
        t0 = time.perf_counter()
        with traced_pipeline(tracer) if trace_it else contextlib.nullcontext():
            out = dedup_pipeline(rd.read_parquet(inp["data"]), cfg)
            clusters = _collect(out["clusters"])
        wall = time.perf_counter() - t0
        stage_walls = {m["stage"]: m["wall_sec"] for m in out["metrics"]}
        # ---- untimed checks.  The distinct pair table
        # (``unique_rows_partitioned``) is lazy in the pipeline's result;
        # timed as its own span when tracing.
        with tracer.span("stage.pairs") if trace_it else contextlib.nullcontext() as rec:
            pairs = out["pairs"].materialize()
        pairs = _collect(pairs)
        if rec is not None:
            rec["counts"]["pairs_out"] = pairs.num_rows
        n_clusters = len(pc.unique(clusters.column("cluster_id")))
        exclude = () if cfg.use_substring else ("substring_dup",)
        recall, why = cluster_failures(clusters, pq.read_table(inp["truth"]), exclude, pairs=pairs)
        # the same counts on every run at this seed
        stable = StableValues(os.path.join(inp["dir"], f"stable-{cfg_name}.json"))
        if not stable.check("pairs", pairs.num_rows):
            why.append(f"pairs {pairs.num_rows} != {stable.values['pairs']}")
        if not stable.check("clusters", n_clusters):
            why.append(f"clusters {n_clusters} != {stable.values['clusters']}")
        return wall, recall, n_clusters, stage_walls, why

    def op(inp: dict, cfg_name: str = name, trace_it: bool = False):
        try:
            wall, recall, n_clusters, stage_walls, why = one(inp, cfg_name, trace_it)
        except Exception as e:  # a crash is a failed operation; the run goes on
            import traceback

            traceback.print_exc()
            ops.done(cfg_name, False, f"{type(e).__name__}: {e}")
            return None
        ops.done(cfg_name, not why, "; ".join(why))
        print(f"{cfg_name} {inp['key']}: wall {wall:.3f} s, recall {recall}, clusters {n_clusters}, stages {stage_walls}", file=sys.stderr)
        return wall, recall, n_clusters

    inp = spec["input"]
    with coalesce_gate():
        # Warm-up: the default pipeline on a small corpus, checked like
        # any operation but untimed.  It starts and fills the worker pool
        # and the driver's caches; a first pipeline run in a fresh
        # session is 10-50% slower.
        op(spec["warmup"], "flagship")
        if tracer is None:
            setup_s = time.time() - spec["spawn_ts"]
            walls, recalls = [], []
            t_end = time.perf_counter() + spec["seconds"]
            while True:
                r = op(inp)
                if r:
                    walls.append(r[0])
                    recalls.append(r[1])
                if time.perf_counter() >= t_end:
                    break
            return {
                "setup_s": setup_s,
                "wall_s": statistics.median(walls) if walls else None,
                "dup_pair_recall": statistics.median(recalls) if recalls else None,
            }, {}

        cfg = pipeline_config(name)
        layers = kernel_probes(pq.read_table(inp["data"]), cfg.id_col, cfg.text_col, cfg.phash_col)
        layers.update(grouped_probes())
        tracer.new_trace()
        traced = op(inp, trace_it=True)
    if traced is not None:
        layers.update(stage_metrics(tracer, traced))
    if "docs_dir" in spec:  # the program's own gate again
        layers.update(query_layer(spec, ops, tracer))
    return {}, layers


def stage_metrics(tracer, traced: tuple) -> dict:
    sp = {k: tracer.last(f"stage.{k}") for k in STAGES + ("pairs",)}
    sec = {k: tracer.seconds(v) for k, v in sp.items()}

    def count(stage, key):
        return sp[stage]["counts"].get(key, 0) if sp[stage] else 0

    return {
        "stage.signatures.s": sec["signatures"],
        "stage.signatures.rows_per_s": count("signatures", "rows_out") / sec["signatures"],
        "stage.signatures.bytes_out": count("signatures", "bytes_out"),
        "stage.pairs_bands.s": sec["pairs_bands"],
        "stage.pairs_bands.pairs_out": count("pairs_bands", "rows_out"),
        "stage.pairs_substring.s": sec["pairs_substring"],
        "stage.pairs_substring.pairs_out": count("pairs_substring", "rows_out"),
        "stage.pairs.s": sec["pairs"],
        "stage.pairs.pairs_out": count("pairs", "pairs_out"),
        "stage.components.s": sec["components"],
        "stage.components.edges_in": count("components", "edges_in"),
        "stage.components.clusters_out": traced[2],
        "stage.components.distributed": count("components", "distributed"),
        "trace.overhead_s": tracer.overhead_s,
        "trace.coverage": sum(sec[k] for k in STAGES) / traced[0],
    }


def query_layer(spec: dict, ops: Ops, tracer) -> dict:
    """The query mix, once, one span and one operation per query; each
    result is checked against its DuckDB oracle (cached in the
    checkout), or, without an oracle, against the result of earlier
    runs."""
    import duckdb

    from raydedup.queries import ORACLES, QUERIES

    docs_dir = spec["docs_dir"]
    stable = StableValues(spec["queries_stable_path"])
    order = list(QUERY_MIX)
    random.Random(spec["seed"]).shuffle(order)
    con = duckdb.connect()
    con.execute("SET enable_progress_bar = false")
    con.execute(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{docs_dir}/documents.parquet')")

    def check(name, df) -> str:
        sig = result_signature(df)
        if name in ORACLES:
            key = f"oracle.{name}"
            if key not in stable.values:
                stable.check(key, result_signature(con.sql(ORACLES[name]).df()))
            return "" if sig == stable.values[key] else "differs from its oracle"
        return "" if stable.check(f"digest.{name}", sig) else "result changed across runs"

    out = {}
    tracer.new_trace()
    with tracer.span("queries"):
        for name in order:
            try:
                with tracer.span(f"query.{name}") as rec:
                    df = to_pandas(QUERIES[name](docs_dir))
            except Exception as e:  # a crash is a failed operation
                import traceback

                traceback.print_exc()
                ops.done(name, False, f"{type(e).__name__}: {e}")
                continue
            out[f"query.{name}.s"] = tracer.seconds(rec)
            why = check(name, df)
            ops.done(name, not why, why)
    return out

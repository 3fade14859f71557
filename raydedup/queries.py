"""The driver-facing query surface: one entry per implemented operator
(SURVEY.md §2 + the training-data operators), each over the shared
parquet tables in ``sf_dir``, with a matching DuckDB oracle where the
semantics are SQL-expressible.

Column names are kept identical between the Ray pipelines and the SQL
strings (the correctness driver hashes values by sorted column name).
Float-producing queries avoid order-dependent float sums: every emitted
float is a single division of exactly-computed values, identical in
both engines.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _read(sf_dir: str, table: str, columns=None):
    import pyarrow.parquet as pq
    import ray.data as rd

    path = f"{sf_dir}/{table}.parquet"
    # pass an explicit metadata-free schema: pandas-written parquet
    # carries schema metadata that makes pa.Schema unhashable, which
    # defeats Ray Data's schema-dedup fast path (a warning per block)
    full = pq.read_schema(path).remove_metadata()
    schema = pa.schema([full.field(c) for c in columns]) if columns else full
    return rd.read_parquet(path, schema=schema, columns=columns)


def _collect(res) -> pa.Table:
    """A Dataset's rows as one ``pa.Table`` on the driver (a table
    passes through)."""
    if isinstance(res, pa.Table):
        return res
    return pa.concat_tables(list(res.iter_batches(batch_format="pyarrow")))


QUERIES: dict = {}


def query(fn):
    """Register a query under its name without the ``q_`` prefix."""
    QUERIES[fn.__name__.removeprefix("q_")] = fn
    return fn


# --------------------------------------------------------------------- dedup
@query
def q_exact_dedup_docs(sf_dir: str):
    from raydedup.stages.dedup import exact_dedup

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return exact_dedup(ds, ["text"], "doc_id").select_columns(["doc_id"])


def _doc_clusters(sf_dir: str, hashfunc: str):
    """(image_id, cluster_id) of the text pipeline over the documents
    table: MinHash bands ∪ exact content groups, no substring pass. A
    ``pa.Table`` or a Dataset, as ``dedup_pipeline`` returns it."""
    from raydedup.pipeline import DedupConfig, dedup_pipeline

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    cfg = DedupConfig(
        id_col="doc_id",
        text_col="text",
        phash_col=None,
        use_substring=False,
        use_exact=True,
        hashfunc=hashfunc,
    )
    return dedup_pipeline(ds, cfg)["clusters"]


@query
def q_minhash_dedup_docs(sf_dir: str):
    """Flagship near-dup clustering over the documents table (text-only
    profile of the image pipeline). Returns (image_id→doc member,
    cluster_id) for every doc participating in a candidate pair."""
    return _collect(_doc_clusters(sf_dir, "sha1")).rename_columns(["doc_id", "cluster_id"])


@query
def q_lsh_candidate_pairs_docs(sf_dir: str):
    """Raw banded-LSH candidate pairs (reference ``MinHashLSH.query``
    semantics: unfiltered union over bands). ``bucket_cap`` is lifted
    because the deliverable here is the PAIR SET — the oracle emits
    every DISTINCT in-bucket pair, so the clustering path's star
    collapse for flood buckets (component-equivalent, not
    pair-equivalent) must not kick in; the O(m²) worst case is inherent
    to the requested output."""
    from raydedup.pipeline import DedupConfig, dedup_pipeline

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    cfg = DedupConfig(
        id_col="doc_id",
        text_col="text",
        phash_col=None,
        use_substring=False,
        use_exact=False,
        hashfunc="md5",  # SQL-reproducible band buckets
        bucket_cap=1 << 30,  # pair-set semantics: full cliques, no star collapse
    )
    return dedup_pipeline(ds, cfg)["pairs"]


@query
def q_substring_pairs_docs(sf_dir: str):
    from raydedup.stages.dedup import substring_pairs

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return substring_pairs(ds, "doc_id", "text", window=4)


@query
def q_ngram_jaccard_docs(sf_dir: str):
    from raydedup.stages.dedup import ngram_jaccard_pairs

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return ngram_jaccard_pairs(ds, "doc_id", "text", n=3, threshold=0.5)


@query
def q_simhash_docs(sf_dir: str):
    """64-bit Charikar simhash per document over word-trigram features
    (stored as signed int64 for parquet/SQL friendliness). md5 hash
    profile — SQL-reproducible (raydedup/oracles.py)."""
    from raydedup.hashing import word_ngram_shingles
    from raydedup.simhash import simhash_from_tokens

    def fn(batch: pa.Table) -> pa.Table:
        toks = [sorted(word_ngram_shingles(t or "", n=3)) for t in batch.column("text").to_pylist()]
        sh = simhash_from_tokens(toks, hashfunc="md5")
        return pa.table(
            {"doc_id": batch.column("doc_id"), "simhash": pa.array(sh.view(np.int64), pa.int64())}
        )

    return _read(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        fn, batch_format="pyarrow"
    )


@query
def q_embedding_near_dup(sf_dir: str):
    from raydedup.stages.dedup import embedding_near_dup

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return embedding_near_dup(ds, threshold=0.45)


# ----------------------------------------------------------------- text ops
@query
def q_token_counts(sf_dir: str):
    from raydedup.stages.text import token_count_batch

    return (
        _read(sf_dir, "documents", columns=["doc_id", "text"])
        .map_batches(lambda t: token_count_batch(t), batch_format="pyarrow")
        .select_columns(["doc_id", "n_tokens"])
    )


@query
def q_doc_quality(sf_dir: str):
    from raydedup.stages.grouped import task_stage
    from raydedup.stages.text import QualityStage

    return (
        _read(sf_dir, "documents", columns=["doc_id", "text"])
        .map_batches(task_stage(QualityStage), batch_format="pyarrow")
        .select_columns(
            ["doc_id", "q_n_chars", "q_punct_ratio", "q_digit_ratio", "q_stopword_ratio", "q_mean_word_len"]
        )
    )


@query
def q_langid_docs(sf_dir: str):
    from raydedup.stages.grouped import task_stage
    from raydedup.stages.text import LangIdStage

    return (
        _read(sf_dir, "documents", columns=["doc_id", "text"])
        .map_batches(task_stage(LangIdStage), batch_format="pyarrow")
        .select_columns(["doc_id", "lang_pred", "lang_score"])
    )


@query
def q_decontaminate_docs(sf_dir: str):
    """Benchmark decontamination — the LLM-pipeline op of removing
    training documents that leak evaluation data (the GPT-3-style
    n-gram overlap check). The "benchmark set" here is the 30-char
    prefixes of documents with ``doc_id % 29 == 0`` (a deterministic
    stand-in for an external eval file, which is always
    metadata-small); a document is contaminated when it contains any
    OTHER benchmark doc's snippet. The snippet list broadcasts once
    via ``ray.put`` and matching is one vectorized
    ``pc.match_substring`` per snippet per batch — no shuffle, no
    join: the 100-TB shape for a small probe set against a huge
    corpus. Fully oracled (strpos cross-join in SQL)."""
    import ray

    def bench_rows(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy()
        keep = (ids % 29 == 0) & (
            pc.utf8_length(t.column("text")).to_numpy(zero_copy_only=False) >= 30
        )
        return t.filter(pa.array(keep))

    bench = _collect(
        _read(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
            bench_rows, batch_format="pyarrow"
        )
    )
    snips = [
        (int(i), t[:30])
        for i, t in zip(
            bench.column("doc_id").to_pylist(), bench.column("text").to_pylist()
        )
    ]
    ref = ray.put(snips)

    def flag(batch: pa.Table) -> pa.Table:
        sn = ray.get(ref)  # tiny; cached in the worker's plasma client
        ids = batch.column("doc_id")
        idnp = ids.to_numpy()
        acc = np.zeros(len(batch), dtype=bool)
        for bid, s in sn:
            m = pc.match_substring(batch.column("text"), s).to_numpy(
                zero_copy_only=False
            )
            acc |= m & (idnp != bid)
        return pa.table(
            {"doc_id": ids, "contaminated": pa.array(acc, pa.bool_())}
        )

    return _read(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        flag, batch_format="pyarrow"
    )


@query
def q_repetition_docs(sf_dir: str):
    """Gopher-style within-document repetition signals (duplicate-word /
    top-word / duplicate-2-gram counts) — the canonical repetition
    quality filter for training corpora, emitted as exact integer
    counts (ratios derive downstream). Pure per-batch kernel: no
    shuffle, streams at any scale."""
    from raydedup.stages.text import repetition_batch

    return (
        _read(sf_dir, "documents", columns=["doc_id", "text"])
        .map_batches(lambda t: repetition_batch(t), batch_format="pyarrow")
        .select_columns(["doc_id", "n_words", "max_word_n", "n_2gram", "n_2gram_distinct"])
    )


def _term_counts(batch: pa.Table) -> pa.Table:
    """Per-batch term counts (token, n_part) of the ``text`` column:
    whitespace split, then ``value_counts``. The empty tokens the split
    emits at string edges are dropped, so terms match ``str.split()``."""
    toks = pc.list_flatten(pc.utf8_split_whitespace(batch.column("text")))
    vc = toks.filter(pc.not_equal(toks, "")).value_counts()
    return pa.table({"token": vc.field(0), "n_part": vc.field(1)})


@query
def q_token_rarity_docs(sf_dir: str):
    """Corpus-frequency rarity scoring (the KenLM-perplexity-proxy
    quality filter): pass 1 builds the corpus token-frequency table
    (partial ``value_counts`` per batch → ``aggregate_per_key`` sum —
    the pre-aggregation pattern); pass 2 broadcasts it once via ``ray.put``
    and gathers per-doc ``sum`` of token corpus-frequencies with one
    ``index_in`` + ``reduceat`` per batch. Integer outputs → exact
    oracle. The exact vocab table is the only path: above 5M distinct
    tokens the query raises ``NotImplementedError`` rather than
    broadcast it."""
    import ray

    from raydedup.stages.grouped import aggregate_per_key

    pre = _read(sf_dir, "documents", columns=["text"]).map_batches(_term_counts, batch_format="pyarrow")
    # vocab blocks stay in the object store; ONE execution
    freq_ds = aggregate_per_key(pre, ["token"], {"n": ("n_part", "sum")}).materialize()
    if freq_ds.count() > 5_000_000:  # broadcast guard
        raise NotImplementedError(
            "vocabulary exceeds the exact-broadcast budget; wire the "
            "count-min tail (raydedup.cms) here for open-vocab corpora"
        )
    freq_tbl = _collect(freq_ds)
    vocab = freq_tbl.column("token").combine_chunks()
    counts = freq_tbl.column("n").to_numpy(zero_copy_only=False).astype(np.int64)
    ref = ray.put((vocab, counts))

    def score(batch: pa.Table) -> pa.Table:
        vb, cb = ray.get(ref)  # cached in the worker's plasma client
        col = pc.fill_null(batch.column("text"), "")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        n = len(batch)
        words = pc.utf8_split_whitespace(col)
        if isinstance(words, pa.ChunkedArray):
            words = words.combine_chunks()
        flat = words.flatten()
        n_tok = np.zeros(n, np.int64)
        sums = np.zeros(n, np.int64)
        if len(flat):
            offs = words.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
            offs = offs - offs[0]
            docidx = np.repeat(np.arange(n, dtype=np.int64), np.diff(offs))
            keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
            docidx = docidx[keep]
            pos = pc.index_in(flat.filter(pa.array(keep)), value_set=vb).to_numpy(
                zero_copy_only=False
            )
            if len(pos):
                w = cb[pos.astype(np.int64)]  # every token is in the corpus vocab
                n_tok += np.bincount(docidx, minlength=n).astype(np.int64)
                np.add.at(sums, docidx, w)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_tokens": pa.array(n_tok, pa.int64()),
                "sum_token_freq": pa.array(sums, pa.int64()),
            }
        )

    return _read(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        score, batch_format="pyarrow"
    )


@query
def q_fingerprint_docs(sf_dir: str):
    from raydedup.stages.text import fingerprint_batch

    return (
        _read(sf_dir, "documents", columns=["doc_id", "text"])
        .map_batches(lambda t: fingerprint_batch(t), batch_format="pyarrow")
        .select_columns(["doc_id", "fingerprint"])
    )


@query
def q_top_terms(sf_dir: str):
    """Corpus-wide term frequencies, top 20 (count desc, token asc) —
    partial counts per batch (Arrow split + value_counts, no Python
    row loop), then ``aggregate_per_key`` sums them (pre-aggregation
    pattern), then ``top_k_per_key`` with no key: each block keeps its
    top 20 and one coalesced task merges them, never on the driver."""
    from raydedup.stages.grouped import aggregate_per_key, top_k_per_key

    pre = _read(sf_dir, "documents", columns=["text"]).map_batches(_term_counts, batch_format="pyarrow")
    ds = aggregate_per_key(pre, ["token"], {"n": ("n_part", "sum")})
    return top_k_per_key(ds, [], [("n", "descending"), ("token", "ascending")], 20)


# --------------------------------------------------------- aggregates / SQL
@query
def q_docs_per_source(sf_dir: str):
    """Count + mean per source with a map-side combiner
    (``aggregate_per_key``): blocks emit (source, count, sum) and the
    mean is one exact division of exact integers at the end (matches SQL
    avg bit-for-bit)."""
    from raydedup.stages.grouped import aggregate_per_key

    def finalize(t: pa.Table) -> pa.Table:
        avg = pc.divide(pc.cast(t.column("sum_chars"), pa.float64()), pc.cast(t.column("n"), pa.float64()))
        return pa.table({"source": t.column("source"), "n": t.column("n"), "avg_chars": avg})

    docs = _read(sf_dir, "documents", columns=["source", "n_chars"])
    agg = aggregate_per_key(docs, ["source"], {"n": ("n_chars", "count"), "sum_chars": ("n_chars", "sum")})
    return agg.map_batches(finalize, batch_format="pyarrow")


@query
def q_events_per_type(sf_dir: str):
    """Count per type, pre-counted per block before a tiny merge."""
    from raydedup.stages.grouped import aggregate_per_key

    events = _read(sf_dir, "events", columns=["event_type"])
    return aggregate_per_key(events, ["event_type"], {"n": ("event_type", "count")})


@query
def q_distinct_users_exact(sf_dir: str):
    """Exact count-distinct, fully distributed: ``aggregate_per_key``
    with no aggregates (per-block distinct, then a keyed distinct merge)
    → distributed count. Nothing larger than the scalar result reaches
    the driver (the previous ``ds.unique()`` shipped every distinct id
    to the driver — VERDICT r02 wrong-#1)."""
    from raydedup.stages.grouped import aggregate_per_key

    n = aggregate_per_key(_read(sf_dir, "events", columns=["user_id"]), ["user_id"], {}).count()
    return pa.table({"n_users": pa.array([n], pa.int64())})


@query
def q_hll_users_per_type(sf_dir: str):
    """Approximate distinct users per event type via the mergeable HLL
    AggregateFn (p=12) — reference semantics ``hyperloglog.py:103-183``."""
    from raydedup.hll import hll_aggregate_fn

    def round6(batch: pa.Table) -> pa.Table:
        col = pc.round(batch.column("ndv_users"), 6)
        return batch.set_column(batch.schema.get_field_index("ndv_users"), "ndv_users", col)

    return (
        _read(sf_dir, "events", columns=["event_type", "user_id"])
        .groupby("event_type")
        .aggregate(hll_aggregate_fn("user_id", p=12, alias_name="ndv_users", hashfunc="md5"))
        .map_batches(round6, batch_format="pyarrow")
    )


@query
def q_window_counts(sf_dir: str):
    """Tumbling 1-hour window counts per user (streaming-shaped op):
    ``aggregate_per_key`` pre-counts per block, so the merge moves one
    row per (user, window) per block rather than one per event — the
    shuffle-byte reduction that matters at corpus scale."""
    from raydedup.stages.grouped import aggregate_per_key

    def hour(batch: pa.Table) -> pa.Table:
        us = pc.cast(batch.column("ts"), pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table({"user_id": batch.column("user_id"), "win": pa.array(us // 3_600_000_000)})  # µs → hour

    wins = _read(sf_dir, "events", columns=["user_id", "ts"]).map_batches(hour, batch_format="pyarrow")
    return aggregate_per_key(wins, ["user_id", "win"], {"n": ("win", "count")})


@query
def q_sliding_window_counts(sf_dir: str):
    """Sliding-window aggregate (1-hour window, 15-minute slide): each
    event belongs to 4 overlapping windows, exploded in-map (4 slim
    rows/event) and counted by ``aggregate_per_key`` (per-block
    combiner, then a keyed merge) — the streaming-shaped custom
    operator pattern."""
    from raydedup.stages.grouped import aggregate_per_key

    slide_us = 900_000_000  # 15 min
    n_windows = 4  # 1 h / 15 min

    def explode_windows(batch: pa.Table) -> pa.Table:
        # window w covers [w·slide, w·slide + 1h) → an event at base
        # belongs to windows base-3 .. base
        us = pc.cast(batch.column("ts"), pa.int64()).to_numpy(zero_copy_only=False)
        base = us // slide_us
        return pa.table(
            {
                "user_id": pa.array(np.tile(batch.column("user_id").to_numpy(zero_copy_only=False), n_windows)),
                "win": pa.array(np.concatenate([base - k for k in range(n_windows)])),
            }
        )

    wins = _read(sf_dir, "events", columns=["user_id", "ts"]).map_batches(
        explode_windows, batch_format="pyarrow"
    )
    return aggregate_per_key(wins, ["user_id", "win"], {"n": ("win", "count")})


@query
def q_sessionize_events(sf_dir: str, gap_us: int = 1_800_000_000):
    """Gap-based sessionization (a new session starts after a >30-min
    silence) — the canonical event-stream operator no tumbling window
    expresses. One slim keyed shuffle of (user_id, ts_us) int64 rows
    (16 B/event — gap sessions need the user's full event order, so
    map-side pre-aggregation is impossible BY SEMANTICS; the shuffle
    payload being two ints is the 100-TB concession), then the whole
    partition sessionizes vectorized: one diff for the break flags, one
    cumsum for per-user session ordinals, reduceat-free run slicing for
    the per-session aggregates. Emits (user_id, session_id, n_events,
    start_us, end_us) — all integers, hash-exact vs the SQL
    window-function oracle."""
    from raydedup.stages.grouped import map_key_runs

    def to_us(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "us": pc.cast(batch.column("ts"), pa.int64()),
            }
        )

    pre = _read(sf_dir, "events", columns=["user_id", "ts"]).map_batches(
        to_us, batch_format="pyarrow"
    )

    empty = pa.table(
        {
            "user_id": pa.array([], pa.int64()),
            "session_id": pa.array([], pa.int64()),
            "n_events": pa.array([], pa.int64()),
            "start_us": pa.array([], pa.int64()),
            "end_us": pa.array([], pa.int64()),
        }
    )

    def sessionize(block: pa.Table, starts, ends) -> pa.Table:
        if len(block) == 0 or len(starts) == 0:
            return empty
        users = block.column("user_id").to_numpy(zero_copy_only=False)
        us = block.column("us").to_numpy(zero_copy_only=False)
        n = len(us)
        # break flags: first event of each user run, or gap > gap_us
        brk = np.zeros(n, dtype=bool)
        brk[starts] = True
        brk[1:] |= (us[1:] - us[:-1]) > gap_us
        # per-user session ordinal (1-based): global cumsum re-based at
        # each user run's start
        cum = np.cumsum(brk)
        sid = cum - np.repeat(cum[starts] - 1, ends - starts)
        # per-session aggregates from the session-start positions
        sstart = np.flatnonzero(brk)
        send = np.append(sstart[1:], n)
        return pa.table(
            {
                "user_id": pa.array(users[sstart], pa.int64()),
                "session_id": pa.array(sid[sstart], pa.int64()),
                "n_events": pa.array((send - sstart).astype(np.int64)),
                "start_us": pa.array(us[sstart], pa.int64()),
                "end_us": pa.array(us[send - 1], pa.int64()),
            }
        )

    return map_key_runs(
        pre, "user_id", sessionize, num_partitions=8, min_run=1, sort_extra=["us"]
    )


@query
def q_asof_join_events(sf_dir: str):
    """As-of join — each 'click' matched to the LATEST 'view' of the
    same user at or before it (pandas ``merge_asof`` semantics; the
    attribution join Ray Data has no operator for). Ordering contract:
    (ts, views-before-clicks, event_id) — equal-timestamp views are
    eligible, ties among them resolve to the largest event_id. One
    slim keyed shuffle of (user_id, us, is_click, event_id) int64 rows
    co-locates each user's stream; the match is then one vectorized
    forward-fill over the WHOLE partition block (``maximum.accumulate``
    of view positions with a run-start validity check — no per-user
    Python loop, users are just runs). Emits (event_id,
    matched_event_id, gap_us) with -1 sentinels — all integers,
    hash-exact vs the IGNORE-NULLS window oracle."""
    from raydedup.stages.grouped import map_key_runs

    def prep(batch: pa.Table) -> pa.Table:
        et = batch.column("event_type")
        keep = pc.is_in(et, value_set=pa.array(["view", "click"]))
        b = batch.filter(keep)
        return pa.table(
            {
                "user_id": b.column("user_id"),
                "us": pc.cast(b.column("ts"), pa.int64()),
                "is_click": pc.cast(
                    pc.equal(b.column("event_type"), "click"), pa.int64()
                ),
                "event_id": b.column("event_id"),
            }
        )

    pre = _read(sf_dir, "events", columns=["event_id", "user_id", "ts", "event_type"]).map_batches(
        prep, batch_format="pyarrow"
    )

    empty = pa.table(
        {
            "event_id": pa.array([], pa.int64()),
            "matched_event_id": pa.array([], pa.int64()),
            "gap_us": pa.array([], pa.int64()),
        }
    )

    def asof(block: pa.Table, starts, ends) -> pa.Table:
        if len(block) == 0 or len(starts) == 0:
            return empty
        us = block.column("us").to_numpy(zero_copy_only=False)
        clk = block.column("is_click").to_numpy(zero_copy_only=False).astype(bool)
        eid = block.column("event_id").to_numpy(zero_copy_only=False)
        pos = np.arange(len(us), dtype=np.int64)
        # forward-fill the last view POSITION; a fill that carried over
        # a run (user) boundary is detectable because positions only
        # grow: it is < the row's own run start
        fill = np.maximum.accumulate(np.where(~clk, pos, -1))
        run_start = np.repeat(starts, ends - starts)
        valid = fill >= run_start
        m = clk
        matched = np.where(valid[m], eid[np.maximum(fill[m], 0)], -1)
        gaps = np.where(valid[m], us[m] - us[np.maximum(fill[m], 0)], -1)
        return pa.table(
            {
                "event_id": pa.array(eid[m], pa.int64()),
                "matched_event_id": pa.array(matched, pa.int64()),
                "gap_us": pa.array(gaps, pa.int64()),
            }
        )

    return map_key_runs(
        pre,
        "user_id",
        asof,
        num_partitions=8,
        min_run=1,
        sort_extra=["us", "is_click", "event_id"],
    )


@query
def q_overlapping_sessions(sf_dir: str, bucket_us: int = 3_600_000_000):
    """Interval-overlap RANGE join — co-active session pairs across
    users (sessions whose [start_us, end_us] intervals intersect), the
    join shape Ray Data has no operator for. Sessions (from
    :func:`q_sessionize_events`) replicate to each fixed-width time
    bucket they cover (replication = ceil(len/W)+1 rows — sessions are
    gap-bounded and short relative to W, so the blowup is ~2×); ONE
    keyed shuffle on the bucket co-locates all sessions active in the
    same hour; within each bucket a start-sorted plane sweep emits each
    pair exactly once in its canonical bucket — the LATER start's
    bucket, which both intervals provably cover (overlap ⇒ the later
    start lies inside the earlier interval, and every replica carries
    the original endpoints), so boundary replication never
    double-counts. The sweep is a flat pair expansion: rows sorted by
    (start, user, session), each canonical row i pairs with its
    run-local predecessors (their starts ≤ start_i by sort order —
    the searchsorted rank IS the local index when keys are unique),
    then one vectorized ``end_j ≥ start_i`` filter keeps the true
    overlaps, so cost is bounded by (co-active sessions per bucket)²
    per bucket with W the knob. Emits (user_a, session_a, user_b,
    session_b, overlap_us) with (a) the lexicographically earlier
    (start, user, session) endpoint — all integers, hash-exact vs the
    SQL self-join oracle."""
    from raydedup.stages.grouped import map_key_runs

    sess = q_sessionize_events(sf_dir)

    def replicate(batch: pa.Table) -> pa.Table:
        ss = batch.column("start_us").to_numpy(zero_copy_only=False)
        es = batch.column("end_us").to_numpy(zero_copy_only=False)
        nb = (es // bucket_us - ss // bucket_us + 1).astype(np.int64)
        total = int(nb.sum())
        rep = np.repeat(np.arange(len(ss), dtype=np.int64), nb)
        bucket = np.repeat(ss // bucket_us, nb) + (
            np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(nb) - nb, nb)
        )
        return pa.table(
            {
                "bucket": pa.array(bucket, pa.int64()),
                "user_id": batch.column("user_id").take(pa.array(rep)),
                "session_id": batch.column("session_id").take(pa.array(rep)),
                "start_us": pa.array(ss[rep], pa.int64()),
                "end_us": pa.array(es[rep], pa.int64()),
            }
        )

    pre = sess.map_batches(replicate, batch_format="pyarrow")

    empty = pa.table(
        {
            "user_a": pa.array([], pa.int64()),
            "session_a": pa.array([], pa.int64()),
            "user_b": pa.array([], pa.int64()),
            "session_b": pa.array([], pa.int64()),
            "overlap_us": pa.array([], pa.int64()),
        }
    )

    def sweep(block: pa.Table, starts, ends) -> pa.Table:
        if len(block) == 0 or len(starts) == 0:
            return empty
        bucket = block.column("bucket").to_numpy(zero_copy_only=False)
        users = block.column("user_id").to_numpy(zero_copy_only=False)
        sids = block.column("session_id").to_numpy(zero_copy_only=False)
        ss = block.column("start_us").to_numpy(zero_copy_only=False)
        es = block.column("end_us").to_numpy(zero_copy_only=False)
        n = len(ss)
        run_start = np.repeat(starts, ends - starts)
        local = np.arange(n, dtype=np.int64) - run_start
        # canonical rows: the replica living in its OWN start's bucket
        # (the later endpoint of every pair it closes)
        canon = np.flatnonzero((ss // bucket_us) == bucket)
        c = local[canon]
        total = int(c.sum())
        if total == 0:
            return empty
        i = np.repeat(canon, c)
        j = np.repeat(run_start[canon], c) + (
            np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(c) - c, c)
        )
        keep = (es[j] >= ss[i]) & (users[j] != users[i])
        i, j = i[keep], j[keep]
        return pa.table(
            {
                "user_a": pa.array(users[j], pa.int64()),
                "session_a": pa.array(sids[j], pa.int64()),
                "user_b": pa.array(users[i], pa.int64()),
                "session_b": pa.array(sids[i], pa.int64()),
                "overlap_us": pa.array(np.minimum(es[j], es[i]) - ss[i], pa.int64()),
            }
        )

    return map_key_runs(
        pre,
        "bucket",
        sweep,
        num_partitions=8,
        min_run=1,
        sort_extra=["start_us", "user_id", "session_id"],
    )


@query
def q_json_field_stats(sf_dir: str):
    """Semi-structured extraction: pull the integer field ``k`` out of
    the JSON ``props`` column with ONE vectorized Arrow regex kernel
    per batch (no per-row json.loads), then ``aggregate_per_key``
    (count/sum/max per event_type): the combiner runs inside the map and
    the merge moves a handful of rows per block, never the events. A
    row without the field counts, but adds nothing to ``sum_k`` or
    ``max_k`` (SQL null semantics)."""
    from raydedup.stages.grouped import aggregate_per_key

    def extract(batch: pa.Table) -> pa.Table:
        ex = pc.extract_regex(batch.column("props"), pattern=r'"k":\s*(?P<v>-?\d+)')
        k = pc.cast(pc.struct_field(ex, "v"), pa.int64())  # null where the field is absent
        return pa.table({"event_type": batch.column("event_type"), "k": k})

    ks = _read(sf_dir, "events", columns=["event_type", "props"]).map_batches(extract, batch_format="pyarrow")
    aggs = {"n_events": ("event_type", "count"), "sum_k": ("k", "sum"), "max_k": ("k", "max")}
    return aggregate_per_key(ks, ["event_type"], aggs)


@query
def q_lineitem_agg(sf_dir: str):
    """Grouped sum/count with a map-side combiner: each block collapses
    to ≤ |groups| rows before the shuffle, so the exchange moves
    O(blocks × groups) rows instead of the whole table.
    l_quantity is integer-valued, so re-ordered double summation is
    exact and the DuckDB oracle still hash-matches."""
    from raydedup.stages.grouped import aggregate_per_key

    keys = ["l_returnflag", "l_linestatus"]
    lines = _read(sf_dir, "lineitem", columns=keys + ["l_quantity"])
    return aggregate_per_key(lines, keys, {"sum_qty": ("l_quantity", "sum"), "n": ("l_quantity", "count")})


@query
def q_orders_by_segment(sf_dir: str, broadcast_max_rows: int = 4_000_000):
    """Dimension join, size-gated (VERDICT r04 wrong-#2): when the
    customer table fits the driver (metadata-cheap row count ≤
    ``broadcast_max_rows``, ~100 MB of (int64, segment) pairs at the
    default) it is shipped once via ``ray.put`` and probed with a
    vectorized ``index_in`` + ``take`` per batch — no shuffle. Above
    the gate, a reduce-side join on ``c_custkey`` runs instead: orders
    pre-count per custkey map-side, union with the tagged customer
    rows, one keyed shuffle attaches the segment inside each custkey
    run. Both paths end in the same ``aggregate_per_key`` over (segment,
    order count) rows and emit identical tables (unmatched custkeys →
    null segment)."""
    from raydedup.stages.grouped import aggregate_per_key

    cust_ds = _read(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"])
    orders = _read(sf_dir, "orders", columns=["o_custkey"])

    if cust_ds.count() <= broadcast_max_rows:  # parquet-metadata count
        import ray

        cust = cust_ds.take_all()
        # broadcast as parallel Arrow arrays; the per-batch probe is a
        # vectorized index_in + take (r04, VERDICT r03 wrong-#4) — missing
        # keys surface as null indices → null segment, same as dict.get
        ck = pa.array([r["c_custkey"] for r in cust], pa.int64())
        cs = pa.array([r["c_mktsegment"] for r in cust], pa.string())
        seg_ref = ray.put((ck, cs))

        def attach_segment(batch: pa.Table) -> pa.Table:
            keys_arr, vals_arr = ray.get(seg_ref)
            idx = pc.index_in(batch.column("o_custkey"), value_set=keys_arr)
            return pa.table({"c_mktsegment": vals_arr.take(idx), "c": pa.array(np.ones(len(batch), np.int64))})

        combined = orders.map_batches(attach_segment, batch_format="pyarrow")
    else:
        # ---- shuffle-join fallback: neither side fits the driver ----
        from raydedup.stages.grouped import auto_partitions, map_key_runs

        def pre_count(batch: pa.Table) -> pa.Table:
            g = pa.table({"c_custkey": batch.column("o_custkey")}).group_by(
                ["c_custkey"]
            ).aggregate([([], "count_all")])
            n = len(g)
            return pa.table(
                {
                    "c_custkey": g.column("c_custkey"),
                    "n": pc.cast(g.column("count_all"), pa.int64()),
                    "seg": pa.nulls(n, pa.string()),
                }
            )

        def cust_rows(batch: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "c_custkey": batch.column("c_custkey"),
                    "n": pa.array(np.zeros(len(batch), np.int64)),
                    "seg": batch.column("c_mktsegment"),
                }
            )

        both = orders.map_batches(pre_count, batch_format="pyarrow").union(
            cust_ds.map_batches(cust_rows, batch_format="pyarrow")
        )

        def join_runs(block: pa.Table, starts, ends) -> pa.Table:
            n = block.column("n").to_numpy(zero_copy_only=False)
            seg = block.column("seg")
            if isinstance(seg, pa.ChunkedArray):
                seg = seg.combine_chunks()
            tot = np.add.reduceat(n, starts) if len(starts) else np.array([], np.int64)
            # the run's segment = its (unique) customer row, null if none
            pos0 = np.flatnonzero(pc.is_valid(seg).to_numpy(zero_copy_only=False))
            if len(pos0) == 0:
                has0 = np.zeros(len(starts), dtype=bool)
                idx = np.zeros(len(starts), dtype=np.int64)
            else:
                f = np.minimum(np.searchsorted(pos0, starts), len(pos0) - 1)
                has0 = (pos0[f] >= starts) & (pos0[f] < ends)
                idx = np.where(has0, pos0[f], 0)
            seg_run = seg.take(pa.array(idx, pa.int64(), mask=~has0))
            keep = tot > 0  # customer-only runs contribute no order rows
            return pa.table({"c_mktsegment": seg_run, "c": pa.array(tot, pa.int64())}).filter(
                pa.array(keep)
            )

        combined = map_key_runs(
            both, ["c_custkey"], join_runs, auto_partitions(orders, rows_per_partition=65536), min_run=1
        )

    return aggregate_per_key(combined, ["c_mktsegment"], {"n_orders": ("c", "sum")})


# ---------------------------------------------------------------------- ANN
def _select_rows(ds, id_col: str, wanted):
    """Fetch a handful of rows by id WITHOUT materializing the dataset:
    an Arrow is_in filter runs distributed and ``take`` stops the scan
    as soon as the rows are found. Returns rows sorted by id."""
    wanted = sorted(set(wanted))
    vals = pa.array(wanted)

    def flt(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.is_in(batch.column(id_col), value_set=vals))

    rows = ds.map_batches(flt, batch_format="pyarrow").take(len(wanted))
    return sorted(rows, key=lambda r: r[id_col])


@query
def q_ann_topk(sf_dir: str):
    """Exact cosine top-10 for query vectors vec_id ∈ {0,1,2} (self
    excluded); broadcast query matrix + per-batch matmul + global merge."""
    from raydedup.stages.ann import brute_force_topk
    from raydedup.stages.grouped import top_k_per_key

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    qrows = _select_rows(ds, "vec_id", (0, 1, 2))
    qvecs = np.array([r["embedding"] for r in qrows], dtype=np.float64)
    top = brute_force_topk(ds, qvecs, k=11)  # 11 then drop self

    def drop_self(batch: pa.Table) -> pa.Table:
        keep = pc.not_equal(
            pc.cast(batch.column("query_idx"), pa.int64()), pc.cast(batch.column("vec_id"), pa.int64())
        )
        return batch.filter(keep)

    filtered = top.map_batches(drop_self, batch_format="pyarrow")
    order = [("cos", "descending"), ("vec_id", "ascending")]
    return top_k_per_key(filtered, ["query_idx"], order, 10).select_columns(["query_idx", "vec_id"])


@query
def q_ann_lsh_topk(sf_dir: str):
    """Scale-path ANN: hyperplane-bucketed candidates then exact rerank
    in ONE distributed pass — query (id, bucket, vector) triples are
    broadcast, each batch scores only rows falling in a query's bucket,
    and ``top_k_per_key`` keeps each query's top 10. Exact SQL oracle: the
    plane matrix is seed-deterministic, inlined into the generated
    statement (``oracles.ann_lsh_topk_sql``)."""
    import ray

    from raydedup.stages.ann import _candidates, _emb_matrix, _normalize, add_hyperplane_bucket
    from raydedup.stages.grouped import top_k_per_key

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    bucketed = add_hyperplane_bucket(ds, bits=4)
    qrows = _select_rows(bucketed, "vec_id", (0, 1, 2))
    qids = np.array([r["vec_id"] for r in qrows], dtype=np.int64)
    qbuckets = np.array([r["bucket"] for r in qrows], dtype=np.uint64)
    qvecs = _normalize(np.array([r["embedding"] for r in qrows], dtype=np.float64))
    qref = ray.put((qids, qbuckets, qvecs))

    def score(batch: pa.Table) -> pa.Table:
        q_ids, q_buckets, q_vecs = ray.get(qref)
        buckets = batch.column("bucket").to_numpy(zero_copy_only=False)
        ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        row, qi = np.nonzero((buckets[:, None] == q_buckets) & (ids[:, None] != q_ids))
        m = _normalize(_emb_matrix(batch, "embedding"))
        cos = np.einsum("ij,ij->i", m[row], q_vecs[qi])
        return _candidates(batch, "vec_id", row, q_ids[qi], cos, query_col="query_id")

    scored = bucketed.map_batches(score, batch_format="pyarrow", batch_size=4096)
    order = [("cos", "descending"), ("vec_id", "ascending")]
    return top_k_per_key(scored, ["query_id"], order, 10).select_columns(["query_id", "vec_id"])


# ------------------------------------------------------------------ oracles
ORACLES: dict[str, str] = {
    "exact_dedup_docs": "SELECT min(doc_id) AS doc_id FROM documents GROUP BY md5(text)",
    "decontaminate_docs": r"""
        WITH bench AS (
            SELECT doc_id AS bid, substring(text, 1, 30) AS snip
            FROM documents
            WHERE doc_id % 29 = 0 AND length(text) >= 30
        )
        SELECT d.doc_id AS doc_id,
               COALESCE(
                   bool_or(strpos(d.text, b.snip) > 0 AND b.bid <> d.doc_id),
                   FALSE
               ) AS contaminated
        FROM documents d LEFT JOIN bench b ON TRUE
        GROUP BY d.doc_id
    """,
    "token_counts": r"SELECT doc_id, len(list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '')) AS n_tokens FROM documents",
    "repetition_docs": r"""
        WITH w AS (
            SELECT doc_id,
                   list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '') AS words
            FROM documents
        ),
        tw AS (
            SELECT doc_id, max(c) AS max_word_n FROM (
                SELECT doc_id, word, count(*) AS c
                FROM (SELECT doc_id, unnest(words) AS word FROM w)
                GROUP BY doc_id, word
            ) GROUP BY doc_id
        ),
        bg AS (
            SELECT doc_id,
                   list_transform(generate_series(1, greatest(len(words) - 1, 0)),
                                  i -> words[i] || ' ' || words[i + 1]) AS grams
            FROM w
        )
        SELECT w.doc_id AS doc_id,
               CAST(len(w.words) AS BIGINT) AS n_words,
               CAST(COALESCE(tw.max_word_n, 0) AS BIGINT) AS max_word_n,
               CAST(len(bg.grams) AS BIGINT) AS n_2gram,
               CAST(len(list_distinct(bg.grams)) AS BIGINT) AS n_2gram_distinct
        FROM w JOIN bg ON w.doc_id = bg.doc_id
        LEFT JOIN tw ON w.doc_id = tw.doc_id
    """,
    "token_rarity_docs": r"""
        WITH tok AS (
            SELECT doc_id,
                   unnest(list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '')) AS token
            FROM documents
        ),
        freq AS (SELECT token, count(*) AS c FROM tok GROUP BY token),
        per AS (
            SELECT t.doc_id, count(*) AS n_tokens,
                   CAST(sum(f.c) AS BIGINT) AS sum_token_freq
            FROM tok t JOIN freq f USING (token) GROUP BY t.doc_id
        )
        SELECT d.doc_id AS doc_id,
               COALESCE(p.n_tokens, 0) AS n_tokens,
               COALESCE(p.sum_token_freq, 0) AS sum_token_freq
        FROM documents d LEFT JOIN per p ON d.doc_id = p.doc_id
    """,
    "doc_quality": r"""
        WITH t AS (
          SELECT doc_id, text, length(text) AS nc,
                 list_filter(str_split(lower(text), ' '), x -> x <> '') AS words
          FROM documents
        )
        SELECT doc_id,
               nc AS q_n_chars,
               length(regexp_replace(text, '[a-zA-Z0-9\s]', '', 'g')) / greatest(nc, 1) AS q_punct_ratio,
               length(regexp_replace(text, '[^0-9]', '', 'g')) / greatest(nc, 1) AS q_digit_ratio,
               len(list_filter(words, w -> list_contains(
                   ['the','a','an','and','or','of','to','in','is','are','was','were','be','been','it','this','that','with','for','on','as','at','by'], w)))
                 / greatest(len(words), 1) AS q_stopword_ratio,
               list_aggregate(list_transform(words, w -> length(w)), 'sum') / greatest(len(words), 1) AS q_mean_word_len
        FROM t
    """,
    "top_terms": r"""
        SELECT token, count(*) AS n FROM (
          SELECT unnest(list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '')) AS token
          FROM documents
        ) GROUP BY token ORDER BY n DESC, token ASC LIMIT 20
    """,
    "docs_per_source": "SELECT source, count(*) AS n, avg(n_chars) AS avg_chars FROM documents GROUP BY source",
    "events_per_type": "SELECT event_type, count(*) AS n FROM events GROUP BY event_type",
    "distinct_users_exact": "SELECT count(DISTINCT user_id) AS n_users FROM events",
    "window_counts": (
        "SELECT user_id, CAST(floor(epoch(ts)/3600) AS BIGINT) AS win, count(*) AS n "
        "FROM events GROUP BY 1, 2"
    ),
    "sliding_window_counts": (
        "SELECT user_id, CAST(floor(epoch(ts)/900) AS BIGINT) - k.k AS win, count(*) AS n "
        "FROM events CROSS JOIN (SELECT unnest(generate_series(0, 3)) AS k) k "
        "GROUP BY 1, 2"
    ),
    "asof_join_events": r"""
        WITH e AS (
          SELECT event_id, user_id, epoch_us(ts) AS us,
                 CASE WHEN event_type = 'click' THEN 1 ELSE 0 END AS is_click
          FROM events WHERE event_type IN ('view', 'click')
        ),
        w AS (
          SELECT *,
                 last_value(CASE WHEN is_click = 0 THEN event_id END IGNORE NULLS)
                   OVER (PARTITION BY user_id ORDER BY us, is_click, event_id
                         ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS m_id,
                 last_value(CASE WHEN is_click = 0 THEN us END IGNORE NULLS)
                   OVER (PARTITION BY user_id ORDER BY us, is_click, event_id
                         ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS m_us
          FROM e
        )
        SELECT event_id, COALESCE(m_id, -1) AS matched_event_id,
               COALESCE(us - m_us, -1) AS gap_us
        FROM w WHERE is_click = 1
    """,
    "sessionize_events": r"""
        WITH o AS (
          SELECT user_id, epoch_us(ts) AS us,
                 CASE WHEN lag(epoch_us(ts)) OVER (PARTITION BY user_id ORDER BY ts) IS NULL
                      OR epoch_us(ts) - lag(epoch_us(ts)) OVER (PARTITION BY user_id ORDER BY ts) > 1800000000
                      THEN 1 ELSE 0 END AS brk
          FROM events
        ), s AS (
          SELECT user_id, us,
                 sum(brk) OVER (PARTITION BY user_id ORDER BY us ROWS UNBOUNDED PRECEDING) AS sid
          FROM o
        )
        SELECT user_id, CAST(sid AS BIGINT) AS session_id, count(*) AS n_events,
               min(us) AS start_us, max(us) AS end_us
        FROM s GROUP BY 1, 2
    """,
    "overlapping_sessions": r"""
        WITH o AS (
          SELECT user_id, epoch_us(ts) AS us,
                 CASE WHEN lag(epoch_us(ts)) OVER (PARTITION BY user_id ORDER BY ts) IS NULL
                      OR epoch_us(ts) - lag(epoch_us(ts)) OVER (PARTITION BY user_id ORDER BY ts) > 1800000000
                      THEN 1 ELSE 0 END AS brk
          FROM events
        ), s AS (
          SELECT user_id, us,
                 sum(brk) OVER (PARTITION BY user_id ORDER BY us ROWS UNBOUNDED PRECEDING) AS sid
          FROM o
        ), sess AS (
          SELECT user_id, CAST(sid AS BIGINT) AS session_id,
                 min(us) AS start_us, max(us) AS end_us
          FROM s GROUP BY 1, 2
        )
        SELECT a.user_id AS user_a, a.session_id AS session_a,
               b.user_id AS user_b, b.session_id AS session_b,
               least(a.end_us, b.end_us) - b.start_us AS overlap_us
        FROM sess a JOIN sess b
          ON (a.start_us, a.user_id, a.session_id) < (b.start_us, b.user_id, b.session_id)
         AND a.end_us >= b.start_us
         AND a.user_id <> b.user_id
    """,
    "json_field_stats": r"""
        SELECT event_type, count(*) AS n_events,
               CAST(sum(CAST(NULLIF(regexp_extract(props, '"k":\s*(-?\d+)', 1), '') AS BIGINT)) AS BIGINT) AS sum_k,
               max(CAST(NULLIF(regexp_extract(props, '"k":\s*(-?\d+)', 1), '') AS BIGINT)) AS max_k
        FROM events GROUP BY 1
    """,
    "lineitem_agg": (
        "SELECT l_returnflag, l_linestatus, sum(l_quantity) AS sum_qty, count(*) AS n "
        "FROM lineitem GROUP BY 1, 2"
    ),
    "orders_by_segment": (
        "SELECT c_mktsegment, count(*) AS n_orders FROM orders "
        "JOIN customer ON o_custkey = c_custkey GROUP BY 1"
    ),
    "substring_pairs_docs": (
        "SELECT a.doc_id AS id_a, b.doc_id AS id_b FROM documents a JOIN documents b "
        "ON a.doc_id <> b.doc_id AND length(a.text) < length(b.text) "
        "AND position(' ' || a.text || ' ' IN ' ' || b.text || ' ') > 0"
    ),
    "ngram_jaccard_docs": r"""
        WITH t AS (
          SELECT doc_id,
                 list_distinct(list_transform(
                   generate_series(1, greatest(len(list_filter(str_split(lower(text), ' '), x -> x <> '')) - 2, 0)),
                   i -> list_filter(str_split(lower(text), ' '), x -> x <> '')[i] || ' ' ||
                        list_filter(str_split(lower(text), ' '), x -> x <> '')[i+1] || ' ' ||
                        list_filter(str_split(lower(text), ' '), x -> x <> '')[i+2]
                 )) AS sh
          FROM documents
        )
        SELECT a.doc_id AS id_a, b.doc_id AS id_b,
               len(list_intersect(a.sh, b.sh)) / len(list_distinct(a.sh || b.sh)) AS jaccard
        FROM t a JOIN t b ON a.doc_id < b.doc_id
        WHERE len(list_intersect(a.sh, b.sh)) / len(list_distinct(a.sh || b.sh)) >= 0.5
    """,
    "embedding_near_dup": (
        "SELECT a.vec_id AS id_a, b.vec_id AS id_b FROM embeddings a JOIN embeddings b "
        "ON a.vec_id < b.vec_id "
        "AND list_cosine_similarity(CAST(a.embedding AS DOUBLE[]), CAST(b.embedding AS DOUBLE[])) >= 0.45"
    ),
    "ann_topk": """
        WITH q AS (SELECT vec_id AS qid, CAST(embedding AS DOUBLE[]) AS qe FROM embeddings WHERE vec_id IN (0, 1, 2)),
        s AS (
          SELECT q.qid AS query_idx, e.vec_id,
                 list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), q.qe) AS cos
          FROM embeddings e JOIN q ON e.vec_id <> q.qid
        )
        SELECT query_idx, vec_id FROM (
          SELECT query_idx, vec_id, row_number() OVER (PARTITION BY query_idx ORDER BY cos DESC, vec_id ASC) AS rk
          FROM s
        ) WHERE rk <= 10
    """,
}


# ------------------------------------- training-data ops (round-5 final)
@query
def q_dup_ngram_fraction(sf_dir: str):
    """Cross-document duplicated-n-gram counts — the exact-substring
    dedup *metric* from the dedup literature ("what fraction of this
    doc's 5-grams appear in another doc"), used to rank/filter docs
    before the heavier pair-emitting passes. Per batch: fully
    vectorized window hashing (``flat_ngram_hashes64`` — one polars
    xxhash + one poly-hash gather for the whole batch) deduped per doc
    (``unique_per_row``); the shuffle moves only slim (hash u64,
    doc_id) rows — never text; dup flags come from ≥2-row hash runs
    (``map_key_runs`` pre-filters singletons) and fold back with the
    map-side totals in one keyed-run reduceat sum. Counts are exact
    integers (the oracle groups 5-gram strings; 64-bit hash collisions
    are the usual w.h.p. caveat shared with every band oracle)."""
    from raydedup.stages.grouped import auto_partitions, map_key_runs
    from raydedup.suffix import flat_ngram_hashes64, unique_per_row

    n = 5
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    parts = auto_partitions(ds)

    def explode(batch: pa.Table) -> pa.Table:
        cnt, w = flat_ngram_hashes64(batch.column("text"), n)
        dcnt, hflat = unique_per_row(cnt, w)
        ids = batch.column("doc_id")
        idx = np.repeat(np.arange(len(batch), dtype=np.int64), dcnt)
        zeros = np.zeros(len(hflat), np.int64)
        shingle_rows = pa.table(
            {
                "h": pa.array(hflat, pa.uint64()),
                "doc_id": ids.take(pa.array(idx)),
                "dup_ngrams": pa.array(zeros),
                "total_ngrams": pa.array(zeros),
            }
        )
        totals = pa.table(
            {
                "h": pa.array(np.zeros(len(batch), np.uint64)),
                "doc_id": ids,
                "dup_ngrams": pa.array(np.zeros(len(batch), np.int64)),
                "total_ngrams": pa.array(dcnt, pa.int64()),
            }
        )
        return pa.concat_tables([shingle_rows, totals])

    from raydedup.stages.grouped import staged

    # one explode pass, STAGED before branching: the shingle rows go
    # through the h-shuffle (dup flags), the totals rows go straight to
    # the doc_id sum — materializing first means neither branch
    # re-executes the read+hash lineage (and multi-branch lazy plans
    # over raw lineage are a known Ray 2.49 deadlock, see grouped.py)
    exploded = staged(ds.map_batches(explode, batch_format="pyarrow"))

    def only_shingles(t: pa.Table) -> pa.Table:
        return t.filter(pc.equal(t.column("total_ngrams"), 0))

    def only_totals(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater(t.column("total_ngrams"), 0)).drop_columns(["h"])

    shingles = exploded.map_batches(only_shingles, batch_format="pyarrow")
    totals = exploded.map_batches(only_totals, batch_format="pyarrow")

    def flag_dups(block: pa.Table, starts, ends) -> pa.Table:
        empty = pa.table(
            {
                "doc_id": pa.array([], block.column("doc_id").type),
                "dup_ngrams": pa.array([], pa.int64()),
                "total_ngrams": pa.array([], pa.int64()),
            }
        )
        if len(starts) == 0:
            return empty
        rsz = ends - starts
        tot = int(rsz.sum())
        idx = np.repeat(starts, rsz) + (
            np.arange(tot, dtype=np.int64) - np.repeat(np.cumsum(rsz) - rsz, rsz)
        )
        # map-side combiner: partial per-doc dup counts WITHIN this
        # partition (a doc's grams hash across partitions, so these are
        # partials the doc_id shuffle sums). Shrinks the second shuffle
        # from one row per duplicated-gram occurrence to at most one
        # row per (doc, partition) — on an all-duplicate corpus that's
        # the difference between ~56M and ~1M shuffled rows per 1M docs.
        dup_ids = block.column("doc_id").take(pa.array(idx))
        if isinstance(dup_ids, pa.ChunkedArray):
            dup_ids = dup_ids.combine_chunks()
        code = dup_ids.dictionary_encode()
        idc = code.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(idc, kind="stable")
        srt = idc[order]
        cut = np.concatenate(([0], np.nonzero(srt[1:] != srt[:-1])[0] + 1))
        return pa.table(
            {
                "doc_id": code.dictionary.take(pa.array(srt[cut])),
                "dup_ngrams": pa.array(np.add.reduceat(np.ones(tot, np.int64), cut), pa.int64()),
                "total_ngrams": pa.array(np.zeros(len(cut), np.int64)),
            }
        )

    dup_rows = map_key_runs(shingles, "h", flag_dups, parts)

    def sum_runs(block: pa.Table, starts, ends) -> pa.Table:
        idx = pa.array(starts, pa.int64())
        d = block.column("dup_ngrams").to_numpy(zero_copy_only=False)
        t = block.column("total_ngrams").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": block.column("doc_id").take(idx),
                "dup_ngrams": pa.array(
                    np.add.reduceat(d, starts) if len(starts) else np.array([], np.int64),
                    pa.int64(),
                ),
                "total_ngrams": pa.array(
                    np.add.reduceat(t, starts) if len(starts) else np.array([], np.int64),
                    pa.int64(),
                ),
            }
        )

    return map_key_runs(
        dup_rows.union(totals), "doc_id", sum_runs, parts, min_run=1
    )


@query
def q_cross_source_neardup(sf_dir: str):
    """Fuzzy JOIN between collections: banded-LSH candidate pairs whose
    endpoints come from DIFFERENT sources (syndication / cross-corpus
    contamination detection). Same md5-profile signature + band fold as
    ``lsh_candidate_pairs_docs``; the band rows additionally carry a
    64-bit source hash (8 B — never the string) so the cross-side
    filter runs inside the bucket kernel, not as a post-hoc join
    against a doc→source table (which at 10^12 rows would be a second
    all-to-all)."""
    import polars as pl

    from raydedup.schema import sig_to_numpy
    from raydedup.stages.bands import _flat_triu, fold_band_buckets
    from raydedup.stages.grouped import auto_partitions, map_blocks, map_key_runs, unique_rows_partitioned
    from raydedup.stages.signatures import signature_map

    b, r, num_perm = 9, 13, 128
    ds = _read(sf_dir, "documents", columns=["doc_id", "text", "source"])
    parts = auto_partitions(ds)
    sigs = signature_map(
        ds, num_perm=num_perm, text_col="text", phash_col=None, hashfunc="md5", drop_cols=("text",)
    )

    def explode(batch: pa.Table) -> pa.Table:
        sig = sig_to_numpy(batch.column("minhash"), num_perm)
        buckets = fold_band_buckets(sig, b, r)
        idx = pa.array(np.repeat(np.arange(len(batch), dtype=np.int64), b))
        # 64-bit source hash, vectorized (zero-copy Arrow → polars);
        # only equality within one run matters
        srch = pl.from_arrow(batch.column("source")).hash(seed=0x1D5).to_numpy().astype(np.uint64)
        return pa.table(
            {
                "doc_id": batch.column("doc_id").take(idx),
                "bucket": pa.array(buckets, pa.uint64()),
                "srch": pa.array(np.repeat(srch, b), pa.uint64()),
            }
        )

    # the slim band rows are pinned before the keyed shuffle starts, as
    # in dedup_pipeline's band explode
    band_ds = map_blocks(sigs, explode)

    def emit(block: pa.Table, starts, ends) -> pa.Table:
        ids = block.column("doc_id").combine_chunks()
        empty = pa.table({"id_a": ids.slice(0, 0), "id_b": ids.slice(0, 0)})
        # ids arrive ascending in each run: drop a doc's repeats inside a
        # run (run starts always stay), then every run is its distinct
        # ids in order, so the triangle's pairs come out id_a < id_b
        n = len(ids)
        keep = np.ones(n, dtype=bool)
        if n > 1:
            keep[1:] = pc.not_equal(ids.slice(1), ids.slice(0, n - 1)).to_numpy(zero_copy_only=False)
        keep[starts] = True
        kept = np.concatenate(([0], np.cumsum(keep)))
        m = kept[ends] - kept[starts]
        # pair-set semantics: full cliques (no star collapse — the
        # deliverable is the exact cross-source pair set)
        ok = m >= 2
        if not ok.any():
            return empty
        krow = np.flatnonzero(keep)
        ai, bj = _flat_triu(kept[starts][ok], m[ok])
        ra, rb = krow[ai], krow[bj]
        sr = block.column("srch").to_numpy(zero_copy_only=False)
        cross = sr[ra] != sr[rb]
        if not cross.any():
            return empty
        return pa.table({"id_a": ids.take(pa.array(ra[cross])), "id_b": ids.take(pa.array(rb[cross]))})

    pairs = map_key_runs(band_ds, "bucket", emit, parts, sort_extra=["doc_id"])
    return unique_rows_partitioned(pairs, ["id_a", "id_b"], parts)


@query
def q_stratified_sample_docs(sf_dir: str):
    """Deterministic hash-based stratified sampling — the data-mixing
    op (per-source keep rates, reproducible across runs/engines, no
    RNG state). The keep decision is a pure row-local function of
    (doc_id, source): the MinHash-style (a·x+b) uint64-wrap →
    Mersenne-reduce hash taken mod 100 against a per-source rate
    derived from the source name. No shuffle, no broadcast — streams
    at any scale, and re-runs select the identical sample (the
    property that makes ablation corpora reproducible)."""
    from raydedup.hashing import MERSENNE_PRIME

    A = np.uint64(6364136223846793005)
    B = np.uint64(1442695040888963407)

    def sample(batch: pa.Table) -> pa.Table:
        x = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.uint64)
        v = A * x + B  # uint64 wrap-around, as in the signature kernels
        hi = v >> np.uint64(61)
        v = (v & MERSENNE_PRIME) + hi
        v[v >= MERSENNE_PRIME] -= MERSENNE_PRIME
        slot = (v % np.uint64(100)).astype(np.int64)
        src_num = pc.cast(
            pc.utf8_slice_codeunits(batch.column("source"), 3), pa.int64()
        ).to_numpy(zero_copy_only=False)
        rate = 10 + 7 * (src_num % 8)
        return batch.filter(pa.array(slot < rate))

    return _read(sf_dir, "documents", columns=["doc_id", "source"]).map_batches(
        sample, batch_format="pyarrow"
    )


@query
def q_source_mix_epochs(sf_dir: str):
    """Deterministic data-recipe mixing — upsample each source by a
    per-source epoch factor (the LLaMA-style 'epochs per corpus'
    table) and give every repeated row a reproducible interleave key
    so a downstream sort-by-key yields the same epoch-blended stream
    on every run/engine. Pure row-local flat-map: np.repeat + arange
    for the epochs, the engine's (a·x+b)-wrap → Mersenne-reduce hash
    of (doc_id·8+epoch) for the key. No shuffle, no RNG state —
    streams at any scale."""
    from raydedup.hashing import MERSENNE_PRIME

    A = np.uint64(6364136223846793005)
    B = np.uint64(1442695040888963407)

    def expand(batch: pa.Table) -> pa.Table:
        src_num = pc.cast(
            pc.utf8_slice_codeunits(batch.column("source"), 3), pa.int64()
        ).to_numpy(zero_copy_only=False)
        reps = 1 + (src_num % 4)
        idx = np.repeat(np.arange(len(batch), dtype=np.int64), reps)
        epoch = np.arange(len(idx), dtype=np.int64) - np.repeat(
            np.cumsum(reps) - reps, reps
        )
        ids = batch.column("doc_id").take(pa.array(idx))
        x = ids.to_numpy(zero_copy_only=False).astype(np.uint64)
        v = A * (x * np.uint64(8) + epoch.astype(np.uint64)) + B
        hi = v >> np.uint64(61)
        v = (v & MERSENNE_PRIME) + hi
        v[v >= MERSENNE_PRIME] -= MERSENNE_PRIME
        return pa.table(
            {
                "doc_id": ids,
                "source": batch.column("source").take(pa.array(idx)),
                "epoch": pa.array(epoch, pa.int64()),
                "interleave_key": pa.array(v, pa.uint64()),
            }
        )

    return _read(sf_dir, "documents", columns=["doc_id", "source"]).map_batches(
        expand, batch_format="pyarrow"
    )


# source_mix_epochs: generate_series unnest reproduces the repeat;
# the interleave key is the HUGEINT % 2^64 wrap profile every
# generated sketch oracle uses. Integer-only output — hash-safe.
ORACLES["source_mix_epochs"] = """
WITH e AS (
  SELECT doc_id, source,
         unnest(generate_series(0, CAST(substring(source, 4) AS BIGINT) % 4)) AS epoch
  FROM documents
),
h AS (
  SELECT doc_id, source, epoch,
         ((6364136223846793005::HUGEINT * (doc_id * 8 + epoch) + 1442695040888963407)
           % 18446744073709551616)::UBIGINT AS v
  FROM e
),
m AS (
  SELECT doc_id, source, epoch,
         (v & 2305843009213693951) + (v >> 61) AS v2
  FROM h
)
SELECT doc_id, source, CAST(epoch AS BIGINT) AS epoch,
       CAST(CASE WHEN v2 >= 2305843009213693951
                 THEN v2 - 2305843009213693951 ELSE v2 END AS UBIGINT) AS interleave_key
FROM m
"""


# dup_ngram_fraction: the oracle groups the 5-gram *strings* (the
# engine groups their 64-bit window hashes — collision caveat shared
# with every band oracle); tokenization matches split_ws_tokens via the
# same \s+ split the green token_counts oracle pins.
ORACLES["dup_ngram_fraction"] = r"""
WITH w AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(lower(text), '\s+'), x -> x <> '') AS words
  FROM documents
),
g AS (
  SELECT doc_id, unnest(list_distinct(list_transform(
           generate_series(1, greatest(len(words) - 4, 0)),
           i -> words[i] || ' ' || words[i+1] || ' ' || words[i+2] || ' '
                || words[i+3] || ' ' || words[i+4]))) AS gram
  FROM w
),
df AS (SELECT gram, count(*) AS n_docs FROM g GROUP BY gram),
per AS (
  SELECT g.doc_id,
         CAST(count(*) AS BIGINT) AS total_ngrams,
         CAST(sum(CASE WHEN df.n_docs >= 2 THEN 1 ELSE 0 END) AS BIGINT) AS dup_ngrams
  FROM g JOIN df USING (gram) GROUP BY g.doc_id
)
SELECT d.doc_id AS doc_id,
       COALESCE(per.dup_ngrams, 0) AS dup_ngrams,
       COALESCE(per.total_ngrams, 0) AS total_ngrams
FROM documents d LEFT JOIN per USING (doc_id)
"""

# stratified_sample_docs: the (a·x+b) uint64 wrap + Mersenne reduction
# is exactly SQL-reproducible via HUGEINT % 2^64 (the profile every
# generated sketch oracle uses).
ORACLES["stratified_sample_docs"] = """
WITH h AS (
  SELECT doc_id, source,
         ((6364136223846793005::HUGEINT * doc_id + 1442695040888963407)
           % 18446744073709551616)::UBIGINT AS v
  FROM documents
),
m AS (
  SELECT doc_id, source,
         (v & 2305843009213693951) + (v >> 61) AS v2
  FROM h
),
s AS (
  SELECT doc_id, source,
         (CASE WHEN v2 >= 2305843009213693951
               THEN v2 - 2305843009213693951 ELSE v2 END) % 100 AS slot
  FROM m
)
SELECT doc_id, source FROM s
WHERE slot < 10 + 7 * (CAST(substring(source, 4) AS BIGINT) % 8)
"""


@query
def q_pack_sequences(sf_dir: str):
    """Sequence packing — concatenate documents in doc_id order and
    chunk the token stream at a fixed sequence length (the GPT-2/T5
    "concat then chunk" pretraining batcher). Each doc gets the global
    token offset of its first token via the distributed prefix sum
    (``stages/scan.py`` — two O(K) metadata passes + one slim keyed
    shuffle; nothing sequential ever touches the driver beyond K
    integers), then ``seq_id``/``seq_pos`` locate it inside the packed
    stream. Token counts are the byte-class run-counting kernel the
    ``token_counts`` oracle pins; all outputs exact integers."""
    from raydedup.stages.scan import exclusive_prefix_sum
    from raydedup.stages.text import token_count_batch

    budget = 512
    counts = (
        _read(sf_dir, "documents", columns=["doc_id", "text"])
        .map_batches(lambda t: token_count_batch(t), batch_format="pyarrow")
        .select_columns(["doc_id", "n_tokens"])
    )
    packed = exclusive_prefix_sum(counts, "doc_id", "n_tokens", out_col="tok_offset")

    def locate(t: pa.Table) -> pa.Table:
        off = t.column("tok_offset").to_numpy(zero_copy_only=False)
        return t.append_column(
            "seq_id", pa.array(off // budget, pa.int64())
        ).append_column("seq_pos", pa.array(off % budget, pa.int64()))

    return packed.map_batches(locate, batch_format="pyarrow")


# pack_sequences: the oracle is the window-function scan DuckDB runs
# natively; tokenization is the \s+ profile the green token_counts
# oracle pins. Integer-only output — hash-safe.
ORACLES["pack_sequences"] = r"""
WITH t AS (
  SELECT doc_id,
         len(list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '')) AS n_tokens
  FROM documents
),
o AS (
  SELECT doc_id, n_tokens,
         CAST(sum(n_tokens) OVER (ORDER BY doc_id
             ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) - n_tokens
           AS BIGINT) AS tok_offset
  FROM t
)
SELECT doc_id, n_tokens, tok_offset,
       tok_offset // 512 AS seq_id, tok_offset % 512 AS seq_pos
FROM o
"""


# --------------------------------------------- wider sketch/query surface
@query
def q_containment_pairs_docs(sf_dir: str):
    """EXACT shingle-containment pairs (|A∩B|/|A| ≥ 0.5) via the
    prefix-filtered inverted-index join (stages/topk.py)."""
    from raydedup.stages.topk import containment_pairs_exact

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return containment_pairs_exact(ds, "doc_id", "text", n=3, threshold=0.5)


@query
def q_topk_similar_docs(sf_dir: str):
    """Forest-style top-10 most-similar (estimated Jaccard) for doc_ids
    0..4 — broadcast queries + one scan (rows-only: estimates are not
    SQL-reproducible)."""
    from raydedup.schema import sig_to_numpy
    from raydedup.stages.signatures import SignatureStage, signature_map
    from raydedup.stages.topk import topk_similar

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    sig_ds = signature_map(ds, text_col="text", phash_col=None, hashfunc="md5")
    qrows = _select_rows(ds, "doc_id", (0, 1, 2, 3, 4))
    qstage = SignatureStage(text_col="text", phash_col=None, hashfunc="md5")
    qtext = pa.table({"text": pa.array([r["text"] for r in qrows], pa.string())})
    qsigs = sig_to_numpy(qstage(qtext).column("minhash"))
    return topk_similar(sig_ds, qsigs, [r["doc_id"] for r in qrows], k=10, id_col="doc_id")


@query
def q_minhash_cardinality_docs(sf_dir: str):
    """Per-doc distinct-shingle cardinality estimate from the MinHash
    signature (reference ``minhash.py:326-335``); rows-only."""
    import numpy as np

    from raydedup.minhash import cardinality_estimate_exact
    from raydedup.schema import sig_to_numpy
    from raydedup.stages.signatures import signature_map

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def est(batch: pa.Table) -> pa.Table:
        sig = sig_to_numpy(batch.column("minhash"))
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "cardinality_est": pa.array(cardinality_estimate_exact(sig), pa.float64()),
            }
        )

    sig_ds = signature_map(ds, text_col="text", phash_col=None, hashfunc="md5")
    return sig_ds.map_batches(est, batch_format="pyarrow")


@query
def q_source_union_signatures(sf_dir: str):
    """Group-level MinHash union signatures per source (mergeable-sketch
    aggregate, reference ``minhash.py:337-359``); emits the estimated
    distinct-shingle count per source. Rows-only."""
    from raydedup.minhash import cardinality_estimate_exact, minhash_union_aggregate
    from raydedup.stages.signatures import signature_map
    import numpy as np

    ds = _read(sf_dir, "documents", columns=["doc_id", "text", "source"])
    sig_ds = signature_map(ds, text_col="text", phash_col=None, hashfunc="md5")
    agg = sig_ds.groupby("source").aggregate(minhash_union_aggregate("minhash", 128, alias_name="u"))

    def finalize(batch: pa.Table) -> pa.Table:
        sigs = np.array(batch.column("u").to_pylist(), dtype=np.uint64)
        return pa.table(
            {
                "source": batch.column("source"),
                "ndv_shingles_est": pa.array(cardinality_estimate_exact(sigs), pa.float64()),
            }
        )

    return agg.map_batches(finalize, batch_format="pyarrow")


@query
def q_hllpp_distinct_users(sf_dir: str):
    """Global distinct users via the 64-bit bias-corrected HLL++ sketch
    (reference ``hyperloglog.py:323-381``) as a distributed mergeable
    AggregateFn — per-block register files, elementwise-max merge,
    bias-corrected estimate at finalize."""
    from raydedup.hll import hllpp_aggregate_fn

    ds = _read(sf_dir, "events", columns=["user_id"])
    res = ds.aggregate(
        hllpp_aggregate_fn("user_id", p=12, alias_name="ndv_users_hllpp", hashfunc="md5")
    )
    return pa.table(
        {"ndv_users_hllpp": pa.array([round(res["ndv_users_hllpp"], 6)], pa.float64())}
    )


@query
def q_weighted_minhash_embeddings(sf_dir: str):
    """Ioffe weighted-MinHash samples over the (abs of the) embedding
    vectors — the weighted-Jaccard sketch path (reference
    ``weighted_minhash.py:114-159``); emits (vec_id, first_k, first_t).
    Rows-only."""
    import numpy as np

    from raydedup.stages.grouped import task_stage
    from raydedup.weighted import WeightedMinHashGenerator

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    class WmhStage:
        def __init__(self):
            self.gen = WeightedMinHashGenerator(64, sample_size=32, seed=1)

        def __call__(self, batch: pa.Table) -> pa.Table:
            X = np.abs(np.asarray(batch.column("embedding").to_pylist(), dtype=np.float32)) + 1e-6
            hashes = self.gen.minhash_batch(X)
            ks = [int(h[0, 0]) if h is not None else -1 for h in hashes]
            ts = [int(h[0, 1]) if h is not None else 0 for h in hashes]
            return pa.table(
                {
                    "vec_id": batch.column("vec_id"),
                    "first_k": pa.array(ks, pa.int64()),
                    "first_t": pa.array(ts, pa.int64()),
                }
            )

    return ds.map_batches(task_stage(WmhStage), batch_format="pyarrow", batch_size=512, num_cpus=1)


@query
def q_ensemble_containment_docs(sf_dir: str):
    """LSH-Ensemble-style approximate containment candidates
    (size-partitioned per-partition (b, r) banding); rows-only."""
    import pyarrow.compute as pc

    from raydedup.stages.signatures import signature_map
    from raydedup.stages.topk import ensemble_containment_candidates

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def add_size(batch: pa.Table) -> pa.Table:
        from raydedup.hashing import word_ngram_shingles

        sizes = [len(word_ngram_shingles(t or "", 3)) for t in batch.column("text").to_pylist()]
        return batch.append_column("set_size", pa.array(sizes, pa.int64()))

    sig_ds = signature_map(ds, text_col="text", phash_col=None).map_batches(
        add_size, batch_format="pyarrow"
    )
    return ensemble_containment_candidates(
        sig_ds, "doc_id", "set_size", threshold=0.5, num_perm=128, num_part=3, max_r=8
    )


ORACLES["containment_pairs_docs"] = r"""
    WITH t AS (
      SELECT doc_id,
             list_distinct(list_transform(
               generate_series(1, greatest(len(list_filter(str_split(lower(text), ' '), x -> x <> '')) - 2, 0)),
               i -> list_filter(str_split(lower(text), ' '), x -> x <> '')[i] || ' ' ||
                    list_filter(str_split(lower(text), ' '), x -> x <> '')[i+1] || ' ' ||
                    list_filter(str_split(lower(text), ' '), x -> x <> '')[i+2]
             )) AS sh
      FROM documents
    )
    SELECT a.doc_id AS id_a, b.doc_id AS id_b,
           len(list_intersect(a.sh, b.sh)) / len(a.sh) AS containment
    FROM t a JOIN t b ON a.doc_id <> b.doc_id
    WHERE len(a.sh) > 0
      AND len(list_intersect(a.sh, b.sh)) / len(a.sh) >= 0.5
"""

@query
def q_ngram_jaccard_docs_t08(sf_dir: str):
    """t=0.8 variant of ``ngram_jaccard_docs``: 0.8 is INEXACT in
    binary floating point, so this query permanently guards the
    threshold-boundary class the r04 brute-force test exposed (the
    prefix-length underflow at exactly J = t; see BASELINE.md round-4
    session 4). Same shingle space, same SQL oracle at 0.8."""
    from raydedup.stages.dedup import ngram_jaccard_pairs

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return ngram_jaccard_pairs(ds, "doc_id", "text", n=3, threshold=0.8)


@query
def q_containment_pairs_docs_t08(sf_dir: str):
    """t=0.8 variant of ``containment_pairs_docs`` (same boundary-class
    guard as ``ngram_jaccard_docs_t08`` for the asymmetric filter)."""
    from raydedup.stages.topk import containment_pairs_exact

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return containment_pairs_exact(ds, "doc_id", "text", n=3, threshold=0.8)


ORACLES["ngram_jaccard_docs_t08"] = ORACLES["ngram_jaccard_docs"].replace(
    ">= 0.5", ">= 0.8"
)
ORACLES["containment_pairs_docs_t08"] = ORACLES["containment_pairs_docs"].replace(
    ">= 0.5", ">= 0.8"
)


@query
def q_hnsw_topk(sf_dir: str):
    """Graph-index ANN: sharded HNSW actors (raydedup/hnsw.py), top-10
    per query vec_id ∈ {0,1,2}, self excluded. Rows-only (graph search
    order is not SQL-expressible); ``oracles.VERIFIERS["hnsw_topk"]``
    checks recall ≥ 0.9 against the exact top-10."""
    from raydedup.stages.ann import ShardedHnsw

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    index = ShardedHnsw.build(ds, num_shards=2, m=12, ef_construction=64)
    qrows = _select_rows(ds, "vec_id", (0, 1, 2))
    qvecs = np.array([r["embedding"] for r in qrows], dtype=np.float64)
    try:
        results = index.query(qvecs, k=11, ef=96)  # 11 then drop self
    finally:
        index.shutdown()
    o_q, o_id = [], []
    for qrow, res in zip(qrows, results):
        qid = qrow["vec_id"]
        got = [i for i, _ in res if i != qid][:10]
        o_q.extend([qid] * len(got))
        o_id.extend(got)
    return pa.table(
        {"query_id": pa.array(o_q, pa.int64()), "vec_id": pa.array(o_id, pa.int64())}
    )


@query
def q_forest_topk_docs(sf_dir: str):
    """MinHashLSHForest-style indexed top-10 (deepest-common-prefix
    ranking over l=8 trees of k=16 slots) for doc_ids 0..4, md5 hash
    profile — the prefix TABLE is built once and probed by a keyed
    join, never a full scan (stages/topk.forest_prefix_table)."""
    from raydedup.schema import sig_to_numpy
    from raydedup.stages.signatures import SignatureStage, signature_map
    from raydedup.stages.topk import forest_prefix_table, forest_topk

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    sig_ds = signature_map(ds, text_col="text", phash_col=None, hashfunc="md5")
    table = forest_prefix_table(sig_ds, "doc_id", l=8, k=16)
    qrows = _select_rows(ds, "doc_id", (0, 1, 2, 3, 4))
    qstage = SignatureStage(text_col="text", phash_col=None, hashfunc="md5")
    qtext = pa.table({"text": pa.array([r["text"] for r in qrows], pa.string())})
    qsigs = sig_to_numpy(qstage(qtext).column("minhash"))
    return forest_topk(
        table, qsigs, [r["doc_id"] for r in qrows], topk=10, id_col="doc_id", l=8, k=16
    )


@query
def q_ivf_topk(sf_dir: str):
    """IVF coarse-quantizer ANN: k-means cells from a bounded sample,
    nprobe-cell candidate scan, exact rerank: top-10 for the query
    vectors vec_id ∈ {0,1,2} (``query_idx`` 0..2, self included).
    Rows-only (k-means iteration floats are not SQL-reproducible);
    ``oracles.VERIFIERS["ivf_topk"]`` checks recall ≥ 0.8 against the
    exact top-10."""
    from raydedup.stages.ann import ivf_topk

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    qrows = _select_rows(ds, "vec_id", (0, 1, 2))
    qvecs = np.array([r["embedding"] for r in qrows], dtype=np.float64)
    res = ivf_topk(ds, qvecs, k=10, nprobe=10, n_centroids=16).take_all()
    o_q = [r["query_idx"] for r in res]
    o_id = [r["vec_id"] for r in res]
    return pa.table(
        {"query_idx": pa.array(o_q, pa.int64()), "vec_id": pa.array(o_id, pa.int64())}
    )


@query
def q_minhash_clusters_md5(sf_dir: str):
    """End-to-end near-dup CLUSTERING with a full SQL oracle: the
    flagship text profile (MinHash bands ∪ exact content groups →
    connected components) under the md5 hash profile, so the oracle
    reproduces the candidate edges in SQL and closes them with a
    recursive transitive closure. The sha1-profile flagship
    (minhash_dedup_docs) stays reference-bit-exact and is verified by
    pytest pair-for-pair against the live reference instead."""
    return _collect(_doc_clusters(sf_dir, "md5")).rename_columns(["doc_id", "cluster_id"])


@query
def q_cluster_representatives(sf_dir: str):
    """Quality-aware canonicalization — the step a training pipeline
    runs AFTER near-dup clustering: one representative per cluster,
    chosen as the LONGEST member (the C4-style keep-longest rule),
    ties → smallest doc_id; docs in no cluster are their own singleton.
    Emits (cluster_id, rep_id, n_docs).

    100-TB shape: cluster labels union with the slim (doc_id, n_chars)
    projection (no text shipped) and co-locate in ONE doc_id hash
    shuffle; representatives then reduce per cluster_id in a second
    keyed shuffle — reduceat max/min kernels per partition, no
    driver-side join, no broadcast of the (corpus-sized) label table.
    Fully oracled (recursive-closure clustering + window-function
    representative selection in SQL)."""
    import ray.data as rd

    from raydedup.stages.grouped import auto_partitions, map_key_runs

    clusters = _doc_clusters(sf_dir, "md5")
    if isinstance(clusters, pa.Table):
        clusters = rd.from_arrow(clusters)

    def as_labels(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": b.column("image_id"),
                "n_chars": pa.nulls(len(b), pa.int64()),
                "cluster_id": b.column("cluster_id"),
            }
        )

    def as_docs(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": b.column("doc_id"),
                "n_chars": b.column("n_chars").cast(pa.int64()),
                "cluster_id": pa.nulls(len(b), pa.int64()),
            }
        )

    u = (
        _read(sf_dir, "documents", columns=["doc_id", "n_chars"])
        .map_batches(as_docs, batch_format="pyarrow")
        .union(clusters.map_batches(as_labels, batch_format="pyarrow"))
    )
    nparts = auto_partitions(u)

    def attach(block: pa.Table, starts: np.ndarray, ends: np.ndarray) -> pa.Table:
        # per doc run (1 doc row + ≤1 label row): -1 sentinels make
        # the non-null value a reduceat max
        d = block.column("doc_id").to_numpy(zero_copy_only=False)
        nc = pc.fill_null(block.column("n_chars"), -1).to_numpy(zero_copy_only=False)
        cl = pc.fill_null(block.column("cluster_id"), -1).to_numpy(zero_copy_only=False)
        ncr = np.maximum.reduceat(nc, starts)
        clr = np.maximum.reduceat(cl, starts)
        dr = d[starts]
        clr = np.where(clr < 0, dr, clr)  # unclustered → own singleton
        return pa.table(
            {
                "cluster_id": pa.array(clr, pa.int64()),
                "doc_id": pa.array(dr, pa.int64()),
                "n_chars": pa.array(ncr, pa.int64()),
            }
        )

    labeled = map_key_runs(u, "doc_id", attach, num_partitions=nparts, min_run=1)

    def pick_rep(block: pa.Table, starts: np.ndarray, ends: np.ndarray) -> pa.Table:
        c = block.column("cluster_id").to_numpy(zero_copy_only=False)
        d = block.column("doc_id").to_numpy(zero_copy_only=False)
        nc = block.column("n_chars").to_numpy(zero_copy_only=False)
        runidx = np.repeat(np.arange(len(starts)), ends - starts)
        maxv = np.maximum.reduceat(nc, starts)
        dm = np.where(nc == maxv[runidx], d, np.iinfo(np.int64).max)
        return pa.table(
            {
                "cluster_id": pa.array(c[starts], pa.int64()),
                "rep_id": pa.array(np.minimum.reduceat(dm, starts), pa.int64()),
                "n_docs": pa.array((ends - starts).astype(np.int64), pa.int64()),
            }
        )

    return map_key_runs(labeled, "cluster_id", pick_rep, num_partitions=nparts, min_run=1)


# ------------------------------------------------ image-payload pipelines
def _synth_images_path(n_base: int = 400) -> str:
    """Deterministic synthetic image+caption table (input_hint schema),
    cached under /tmp — the image-payload profile of the flagship
    pipeline, independent of sf_dir."""
    import os

    path = f"/tmp/raydedup_bench/images_q_{n_base}_v5.parquet"
    if not os.path.exists(path):
        os.makedirs("/tmp/raydedup_bench", exist_ok=True)
        import pyarrow.parquet as pq

        from raydedup.synth import make_images_table

        table, _ = make_images_table(n_base=n_base)
        pq.write_table(table, path + ".tmp", row_group_size=4096)
        os.rename(path + ".tmp", path)
    return path


@query
def q_image_dedup_synth(sf_dir: str):
    """Full fused image pipeline (MinHash captions ∪ SimHash phash ∪
    exact ∪ substring → components) over the synthetic image corpus;
    returns (image_id, cluster_id). Deterministic; rows-only."""
    import ray.data as rd

    from raydedup.pipeline import DedupConfig, dedup_pipeline
    ds = rd.read_parquet(_synth_images_path(), columns=["image_id", "caption", "phash"])
    return _collect(dedup_pipeline(ds, DedupConfig(num_partitions=8))["clusters"])


@query
def q_image_features_synth(sf_dir: str):
    """Multimodal decode path: task-map decode of every payload
    (raw / png / jpeg+EXIF / gif / webp / bmp / tiff / ico) emitting
    phash recheck + channel means. A hardened stage flags
    storage-truncated payloads (``decode_ok`` False) instead of dying.
    Rows-only; ``oracles.VERIFIERS["image_features_synth"]`` checks the
    phash bit-exactly and the flags against the planted corrupt blobs."""
    import ray.data as rd

    from raydedup.stages.grouped import task_stage
    from raydedup.stages.media import DecodeFeaturesStage

    ds = rd.read_parquet(_synth_images_path())
    feats = ds.map_batches(task_stage(DecodeFeaturesStage), batch_format="pyarrow", batch_size=64)
    out = _collect(feats).select(["image_id", "phash_check", "decode_ok"])
    return out.sort_by("image_id")


def _synth_media_path(kind: str, n: int) -> str:
    """Deterministic synthetic audio/video table, cached under /tmp."""
    import os

    path = f"/tmp/raydedup_bench/{kind}_q_{n}_v5.parquet"  # v5: stereo-ADPCM slice in audio (v4: avi / aiff / au slices)
    if not os.path.exists(path):
        os.makedirs("/tmp/raydedup_bench", exist_ok=True)
        import pyarrow.parquet as pq

        from raydedup.synth import make_audio_table, make_videos_table

        table = make_audio_table(n=n) if kind == "audio" else make_videos_table(n=n)
        pq.write_table(table, path + ".tmp", row_group_size=1024)
        os.rename(path + ".tmp", path)
    return path


@query
def q_audio_features_synth(sf_dir: str):
    """Compressed-audio decode path: task-map feature extraction over
    pcm16 / wav(IMA ADPCM) / µ-law / A-law / FLAC / AIFF / AU payloads.
    Rows-only; ``oracles.VERIFIERS["audio_features_synth"]`` checks that
    every row decodes and reproduces the original signal's RMS within
    2% (the companding error bound; FLAC and AIFF are lossless)."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from raydedup.stages.grouped import task_stage
    from raydedup.stages.media import AudioFeatureStage

    ds = rd.read_parquet(_synth_media_path("audio", 200))
    feats = ds.map_batches(task_stage(AudioFeatureStage), batch_format="pyarrow", batch_size=32)
    codecs = pq.read_table(_synth_media_path("audio", 200), columns=["audio_id", "codec"])
    joined = _collect(feats).join(codecs, keys=["audio_id"])
    return joined.select(["audio_id", "codec", "rms", "zero_crossings", "decode_ok"]).sort_by(
        "audio_id"
    )


@query
def q_video_frames_synth(sf_dir: str):
    """Compressed-video frame-sampling path: MJPEG (real from-scratch
    JPEG codec), rawvideo, animated-GIF (real GIF89a codec, composited
    per disposal semantics) and MJPG-in-AVI payloads (RIFF container
    walk — sampled frames come from '00dc' chunks with no marker scan)
    flat-mapped to sampled frames, each with the phash64 of its decoded
    pixels. Rows-only; ``oracles.VERIFIERS["video_frames_synth"]``
    checks every phash bit-exactly against the stored round-tripped
    phash (the decoded-pixels invariant)."""
    import ray.data as rd

    from raydedup.media import phash64
    from raydedup.stages.grouped import task_stage
    from raydedup.stages.media import FrameSampleStage

    ds = rd.read_parquet(
        _synth_media_path("video", 40),
        columns=["video_id", "bytes", "w", "h", "n_frames", "codec"],
    )
    frames = ds.map_batches(
        task_stage(FrameSampleStage, every_n=5, max_frames=4), batch_format="pyarrow", batch_size=8
    )
    out = _collect(frames)
    ph_checks = [
        phash64(np.frombuffer(blob, dtype=np.uint8).reshape(h, w, 3))
        for blob, w, h in zip(
            out.column("frame_bytes").to_pylist(),
            out.column("w").to_pylist(),
            out.column("h").to_pylist(),
        )
    ]
    return pa.table(
        {
            "video_id": out.column("video_id"),
            "frame_idx": out.column("frame_idx"),
            "phash_check": pa.array(ph_checks, pa.int64()),
        }
    ).sort_by([("video_id", "ascending"), ("frame_idx", "ascending")])


@query
def q_image_thumbs_synth(sf_dir: str):
    """Thumbnail/resize path (the brief's multimodal resize stage):
    task-map ResizeStage over every payload → fixed-width 16×16×3
    rasters (fixed-width output is what keeps downstream batches dense
    at 100 TB). Rows-only; ``oracles.VERIFIERS["image_thumbs_synth"]``
    checks every thumb's width and a sample byte-for-byte against the
    same kernel run on the driver."""
    import ray.data as rd

    from raydedup.stages.grouped import task_stage
    from raydedup.stages.media import ResizeStage

    ds = rd.read_parquet(_synth_images_path())
    out = ds.map_batches(task_stage(ResizeStage, out=16), batch_format="pyarrow", batch_size=64)
    return _collect(out).select(["image_id", "thumb", "thumb_w", "thumb_h"])


@query
def q_image_stream_dedup(sf_dir: str):
    """STREAMING image dedup: the corpus arrives in order through a
    sharded online :class:`raydedup.session.PhashSession` (the live
    counterpart of the batch SimHash band path) — each chunk is
    Hamming-verified against everything ingested before it, then
    ingested itself; an image is a dup if some earlier image sits
    within the banded Hamming budget. Rows come back in arrival order.
    Rows-only; ``oracles.VERIFIERS["image_stream_dedup"]`` checks the
    flags against a brute-force prefix-Hamming sweep."""
    import ray.data as rd

    from raydedup.session import PhashSession

    ds = rd.read_parquet(_synth_images_path(), columns=["image_id", "phash"])
    t = _collect(ds)
    ids = t.column("image_id").to_pylist()
    ph = np.array(t.column("phash").to_pylist(), dtype=np.int64)
    sess = PhashSession(num_shards=4)
    flags = np.zeros(len(ids), dtype=bool)
    chunk = 128
    for lo in range(0, len(ids), chunk):
        hi = min(lo + chunk, len(ids))
        if lo:
            hits = sess.query_batch(ph[lo:hi])
            flags[lo:hi] = [len(h) > 0 for h in hits]
        sess.insert_batch(ids[lo:hi], ph[lo:hi])
        # within-chunk arrivals: check against earlier rows of the
        # same chunk too (ingest-then-probe keeps one RPC round; the
        # self-hit and later-arrival hits are masked out)
        if hi - lo > 1:
            hits = sess.query_batch(ph[lo:hi])
            for k, h in enumerate(hits):
                others = set(h) - {ids[lo + k]}
                if others & set(ids[lo : lo + k]):
                    flags[lo + k] = True
    return pa.table(
        {
            "image_id": pa.array(ids, pa.string()),
            "is_dup": pa.array(flags.tolist(), pa.bool_()),
        }
    )


@query
def q_bloom_dedup_filter(sf_dir: str):
    """Space-bounded membership dedup (LSHBloom parity — reference
    ``lsh_bloom.py:240-366``): build per-band Bloom filters over the
    EVEN doc_ids' MinHash signatures with one Dataset aggregate (the
    state is the fixed ``b × m/8``-byte bit matrix however large the
    corpus), broadcast the filter once via ``ray.put``, and flag every
    ODD doc whose signature collides in any band.

    Rows-only; ``oracles.VERIFIERS["bloom_dedup_filter"]`` checks the
    flags against the exact band semi-join (the semantics LSHBloom
    approximates): ZERO false negatives — the Bloom contract — and a
    false-positive count within the configured ``fp`` budget."""
    import ray

    from raydedup.bloom import BloomDedupStage, build_band_bloom
    from raydedup.stages.grouped import task_stage
    from raydedup.stages.signatures import signature_map

    b, r, fp = 16, 8, 1e-4
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    sig_ds = signature_map(ds, text_col="text", phash_col=None, hashfunc="md5")
    n_total = sig_ds.count()  # pinned → metadata-cheap

    def _half(keep_even: bool):
        want = 0 if keep_even else 1
        def f(t: pa.Table) -> pa.Table:
            return t.filter(pc.equal(pc.bit_wise_and(t.column("doc_id"), 1), want))
        return f

    ref_sigs = sig_ds.map_batches(_half(True), batch_format="pyarrow")
    qry_sigs = sig_ds.map_batches(_half(False), batch_format="pyarrow")

    filt = build_band_bloom(ref_sigs, b, r, n_items=max(1000, n_total), fp=fp)
    return (
        qry_sigs.map_batches(
            task_stage(BloomDedupStage, filter_ref=ray.put(filt.serialize())), batch_format="pyarrow"
        )
        .select_columns(["doc_id", "is_dup"])
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


@query
def q_lsh_session_dedup(sf_dir: str):
    """Streaming first-seen dedup through the ONLINE LSH index
    (``raydedup.session.MinHashLshSession`` — reference
    ``MinHashLSH.insert``/``query`` interleaved, lsh.py:213-231 +
    370-432): documents arrive in ``doc_id`` order, each batch is
    queried against everything inserted before it (query-then-insert),
    so ``is_dup(i) ⇔ ∃ j < i sharing a band`` — exactly
    SQL-reproducible with the md5 signature profile.

    Scale shape: signatures are computed distributed (map tasks,
    ``signature_map``); the index lives in sharded actors (memory bounded by
    shard count); the driver only streams slim (id, signature) batches
    in arrival order — the sequential order is the SEMANTICS of online
    dedup, not an implementation accident."""
    from raydedup.minhash import band_keys
    from raydedup.schema import sig_to_numpy
    from raydedup.session import MinHashLshSession
    from raydedup.stages.signatures import signature_map

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    sig_ds = (
        signature_map(ds, text_col="text", phash_col=None, hashfunc="md5")
        .select_columns(["doc_id", "minhash"])
        .sort("doc_id")
    )

    sess = MinHashLshSession(threshold=0.8, num_perm=128, num_shards=4)
    try:
        ids_out: list = []
        dup_out: list = []
        for batch in sig_ds.iter_batches(batch_size=4096, batch_format="pyarrow"):
            ids = batch.column("doc_id").to_pylist()
            sig = sig_to_numpy(batch.column("minhash"))
            hits = sess.query_batch(sig)
            hs_rows = band_keys(sig, sess.b, sess.r)
            seen_in_batch: set = set()
            for i, hs in enumerate(hs_rows):
                keyed = [(band, H) for band, H in enumerate(hs)]
                dup_out.append(bool(hits[i]) or any(k in seen_in_batch for k in keyed))
                seen_in_batch.update(keyed)
            sess.insert_batch(ids, sig)
            ids_out.extend(ids)
        return pa.table(
            {
                "doc_id": pa.array(ids_out, pa.int64()),
                "is_dup": pa.array([int(d) for d in dup_out], pa.int32()),
            }
        )
    finally:
        sess.shutdown()


# ------------------------------------------- corpus statistics / cleaning
@query
def q_length_quantiles(sf_dir: str, qs: tuple = (0.5, 0.9, 0.99)):
    """Exact grouped quantiles by distributed histogramming: blocks
    pre-aggregate ``(source, n_chars) → count`` (the map-side
    combiner), ONE keyed shuffle co-locates each source's histogram,
    and the run kernel walks cumulative counts to the ``ceil(q·n)``
    rank (``percentile_disc`` semantics — integer-exact, so the DuckDB
    oracle hash-matches). Only histogram rows (groups × distinct
    values) ever shuffle, never documents: at 100 TB a bounded integer
    domain keeps this metadata-small per source. Unbounded or
    continuous columns would swap in the staged sort + rank-select
    (the ``stages/scan.py`` carry machinery) or a mergeable t-digest
    for approximate quantiles."""
    from raydedup.stages.grouped import auto_partitions, map_key_runs

    def pre(t: pa.Table) -> pa.Table:
        g = t.group_by(["source", "n_chars"]).aggregate([([], "count_all")])
        return g.rename_columns(["source", "n_chars", "c"])

    docs = _read(sf_dir, "documents", columns=["source", "n_chars"])
    hist = docs.map_batches(pre, batch_format="pyarrow")

    def runs(block: pa.Table, starts: np.ndarray, ends: np.ndarray) -> pa.Table:
        # rows arrive sorted by (source, n_chars); partial counts for
        # the same length may repeat across upstream blocks — the
        # cumulative walk absorbs them without a distinct pass.
        if len(starts) == 0:
            return pa.table(
                {
                    "source": pa.array([], pa.string()),
                    "n_docs": pa.array([], pa.int64()),
                    **{f"p{int(q * 100)}_chars": pa.array([], pa.int64()) for q in qs},
                }
            )
        vals = block.column("n_chars").to_numpy()
        gcum = np.cumsum(block.column("c").to_numpy(zero_copy_only=False))
        base = np.where(starts > 0, gcum[np.maximum(starts - 1, 0)], 0)
        totals = gcum[ends - 1] - base
        out = {
            "source": block.column("source").take(pa.array(starts)),
            "n_docs": pa.array(totals, pa.int64()),
        }
        for q in qs:
            rank = np.ceil(q * totals).astype(np.int64)  # 1-based disc rank
            idx = np.searchsorted(gcum, base + rank, side="left")
            out[f"p{int(q * 100)}_chars"] = pa.array(vals[idx], pa.int64())
        return pa.table(out)

    return map_key_runs(
        hist,
        "source",
        runs,
        auto_partitions(docs, rows_per_partition=65536),
        min_run=1,
        sort_extra=["n_chars"],
    )


ORACLES["length_quantiles"] = """
    SELECT source,
           CAST(count(*) AS BIGINT) AS n_docs,
           CAST(percentile_disc(0.5) WITHIN GROUP (ORDER BY n_chars) AS BIGINT) AS p50_chars,
           CAST(percentile_disc(0.9) WITHIN GROUP (ORDER BY n_chars) AS BIGINT) AS p90_chars,
           CAST(percentile_disc(0.99) WITHIN GROUP (ORDER BY n_chars) AS BIGINT) AS p99_chars
    FROM documents GROUP BY source
"""


@query
def q_normalize_docs(sf_dir: str):
    """Text normalization — the cleaning pass a training pipeline runs
    BEFORE dedup (lowercase, collapse whitespace, drop stopwords):
    entirely Arrow-kernel per batch — ``utf8_lower`` →
    ``split_ws_tokens`` (str.split parity) → one ``is_in`` stopword
    mask over the flat token buffer → offsets rebuilt with two cumsums
    → ``binary_join``. No shuffle, no per-row Python; streams at any
    scale. String output hash-matches the DuckDB list-filter oracle."""
    from raydedup.stages.text import QualityStage
    from raydedup.suffix import split_ws_tokens

    stop_arr = pa.array(sorted(QualityStage.STOPWORDS), pa.string())

    def fn(batch: pa.Table) -> pa.Table:
        lens, flat = split_ws_tokens(pc.utf8_lower(batch.column("text")))
        keep = pc.invert(pc.is_in(flat, value_set=stop_arr)).to_numpy(
            zero_copy_only=False
        )
        off = np.concatenate(([0], np.cumsum(lens)))
        csk = np.concatenate(([0], np.cumsum(keep)))
        new_off = csk[off]  # kept-token count before each row boundary
        kept = flat.filter(pa.array(keep))
        larr = pa.ListArray.from_arrays(pa.array(new_off, pa.int32()), kept)
        norm = pc.binary_join(larr, " ")
        return pa.table({"doc_id": batch.column("doc_id"), "norm_text": norm})

    return _read(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        fn, batch_format="pyarrow"
    )


_STOP_SQL = ", ".join(f"'{w}'" for w in sorted(
    "the a an and or of to in is are was were be been it this that with for on as at by".split()
))
ORACLES["normalize_docs"] = rf"""
    SELECT doc_id,
           array_to_string(
               list_filter(regexp_split_to_array(lower(text), '\s+'),
                           x -> x <> '' AND NOT list_contains([{_STOP_SQL}], x)),
               ' ') AS norm_text
    FROM documents
"""


@query
def q_semantic_dedup(sf_dir: str, threshold: float = 0.45, n_centroids: int = 16):
    """SemDeDup-style semantic deduplication (Abbas et al. 2023,
    arXiv:2303.09540): spherical k-means clusters the embedding space
    (seeded driver Lloyd over a bounded sample — ``build_ivf_centroids``,
    the IVF coarse quantizer), every row gets its cell via one
    broadcast matmul, and ONE keyed shuffle co-locates each cell so the
    in-cell rule runs vectorized: row ``i`` is a semantic duplicate iff
    some same-cell row with a smaller ``vec_id`` has cosine similarity
    > threshold (one gram matrix + upper-triangle reduction per cell —
    the all-pairs work is confined to cells, never the corpus).

    Rows-only (k-means float iteration is not SQL-reproducible — same
    class as ``ivf_topk``); ``oracles.VERIFIERS["semantic_dedup"]``
    checks the flags against a single-process numpy evaluation of the
    identical rule. The cross-cell miss risk is inherent to the method
    (the paper's trade-off), not to this execution."""
    from raydedup.stages.ann import _emb_matrix, _normalize, add_ivf_cell, build_ivf_centroids
    from raydedup.stages.grouped import auto_partitions, map_key_runs

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    cent = build_ivf_centroids(ds, n_centroids=n_centroids)
    cds = add_ivf_cell(ds, cent)

    def runs(block: pa.Table, starts: np.ndarray, ends: np.ndarray) -> pa.Table:
        ids_all = block.column("vec_id").to_numpy()
        m_all = _normalize(_emb_matrix(block, "embedding"))
        dup = np.zeros(len(block), dtype=bool)
        for s, e in zip(starts, ends):  # vec_ids ascend in each run
            sim = m_all[s:e] @ m_all[s:e].T
            dup[s:e] = np.triu(sim > threshold, k=1).any(axis=0)
        return pa.table(
            {
                "vec_id": pa.array(ids_all, pa.int64()),
                "is_dup": pa.array(dup.astype(np.int32), pa.int32()),
            }
        )

    # the run kernel emits EVERY block row (singleton cells ride along
    # with is_dup=0 — min_run only gates which runs get the gram matrix)
    return map_key_runs(
        cds,
        "cell",
        runs,
        auto_partitions(ds, rows_per_partition=65536),
        min_run=2,
        sort_extra=["vec_id"],
    )


@query
def q_top_docs_per_source(sf_dir: str, k: int = 3):
    """Grouped top-N (the window-function ``row_number() ≤ k``):
    ``top_k_per_key`` keeps each block's per-source top-k (the combiner
    — at most groups × k rows leave each block, so the tail is tiny BY
    CONSTRUCTION), then one coalesced task keeps each source's top-k of
    those, sorted; one whole-block map numbers the rows of each source
    run. Order is total (n_chars DESC, doc_id ASC) → integer ranks
    hash-match the SQL window oracle. No full shuffle: the groups × k ×
    blocks tail is the only data movement."""
    from raydedup.hashing import ragged_arange
    from raydedup.stages.grouped import _run_bounds, top_k_per_key

    def add_rank(t: pa.Table) -> pa.Table:
        starts, ends = _run_bounds(t, ["source"])
        return t.append_column("rank", pa.array(ragged_arange(ends - starts) + 1, pa.int64()))

    ds = _read(sf_dir, "documents", columns=["source", "doc_id", "n_chars"])
    top = top_k_per_key(ds, ["source"], [("n_chars", "descending"), ("doc_id", "ascending")], k)
    return top.map_batches(add_rank, batch_size=None, batch_format="pyarrow")


ORACLES["top_docs_per_source"] = """
    SELECT source, doc_id, n_chars, CAST(rn AS BIGINT) AS rank FROM (
      SELECT source, doc_id, n_chars,
             row_number() OVER (PARTITION BY source
                                ORDER BY n_chars DESC, doc_id ASC) AS rn
      FROM documents)
    WHERE rn <= 3
"""


@query
def q_uniform_sample_docs(sf_dir: str, k: int = 100):
    """Deterministic uniform corpus sample via hash-bottom-k (the
    distributed, reproducible replacement for ``ORDER BY random()
    LIMIT k``): every row gets the engine's (a·x+b)-wrap →
    Mersenne-reduce key of its doc_id, and ``top_k_per_key`` with no
    key keeps the bottom-k: blocks keep their own (the combiner), and
    one coalesced task takes the global bottom-k from the k × blocks
    tail. No RNG state, no shuffle, identical sample on every
    run/engine — the SQL oracle reproduces the key arithmetic exactly."""
    from raydedup.hashing import MERSENNE_PRIME
    from raydedup.stages.grouped import top_k_per_key

    A = np.uint64(6364136223846793005)
    B = np.uint64(1442695040888963407)

    def sample_key(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        v = A * ids.astype(np.uint64) + B
        v = (v & MERSENNE_PRIME) + (v >> np.uint64(61))
        v[v >= MERSENNE_PRIME] -= MERSENNE_PRIME
        return pa.table({"doc_id": t.column("doc_id"), "sample_key": pa.array(v, pa.uint64())})

    keyed = _read(sf_dir, "documents", columns=["doc_id"]).map_batches(sample_key, batch_format="pyarrow")
    return top_k_per_key(keyed, [], [("sample_key", "ascending"), ("doc_id", "ascending")], k)


ORACLES["uniform_sample_docs"] = """
    WITH h AS (
      SELECT doc_id,
             ((6364136223846793005::HUGEINT * doc_id + 1442695040888963407)
               % 18446744073709551616)::UBIGINT AS v
      FROM documents
    ),
    m AS (SELECT doc_id, (v & 2305843009213693951) + (v >> 61) AS v2 FROM h)
    SELECT doc_id,
           CAST(CASE WHEN v2 >= 2305843009213693951
                     THEN v2 - 2305843009213693951 ELSE v2 END AS UBIGINT) AS sample_key
    FROM m ORDER BY sample_key, doc_id LIMIT 100
"""


@query
def q_price_quantiles_sketch(sf_dir: str, qs: tuple = (0.01, 0.25, 0.5, 0.75, 0.99), k: int = 256):
    """Approximate quantiles of ``l_extendedprice`` via the mergeable
    KLL/MRL compactor sketch (``raydedup/quantile.py``) — the
    bounded-memory path ``length_quantiles`` documents for unbounded /
    continuous domains: partial sketch per block, pairwise merge, tiny
    final state (~k·log(n/k) floats) on the driver.

    Rows-only (retained values move WITHIN the error bound with Ray's
    nondeterministic merge order);
    ``oracles.VERIFIERS["price_quantiles_sketch"]`` checks each
    estimate's exact rank interval against ``q·n`` within the sketch's
    provable per-state ``rank_error_bound()`` (+ the same bound again
    for retained-weight drift)."""
    from raydedup.quantile import KllSketch, kll_aggregate_fn

    ds = _read(sf_dir, "lineitem", columns=["l_extendedprice"])
    st = ds.aggregate(kll_aggregate_fn("l_extendedprice", k=k, alias_name="kll_price"))
    sk = KllSketch.from_bytes(st["kll_price"])
    est = sk.quantiles(qs)
    return pa.table(
        {
            "q": pa.array(list(qs), pa.float64()),
            "est_price": pa.array(est, pa.float64()),
            "n": pa.array([sk.n] * len(est), pa.int64()),
            "rank_error_bound": pa.array([sk.rank_error_bound()] * len(est), pa.int64()),
        }
    )


@query
def q_source_similarity(sf_dir: str):
    """Corpus-level similarity matrix between sources — the data-mixing
    question ('how much do two collections overlap?') answered with
    mergeable sketches: per-source union MinHash signatures (elementwise
    min AggregateFn, reference ``MinHash.union`` minhash.py:411-462)
    shuffle ONLY (source, 128×uint32) rows, and the pairwise
    slot-equality Jaccard estimates (reference ``MinHash.jaccard``
    minhash.py:299-324) run on the driver over the groups×128 result —
    groups are few BY CONSTRUCTION (one row per source, any corpus
    size). Integer slot counts + one exact division → hash-oracled via
    the generated md5-profile SQL."""
    from raydedup.minhash import minhash_union_aggregate
    from raydedup.stages.signatures import signature_map

    ds = _read(sf_dir, "documents", columns=["doc_id", "text", "source"])
    sig_ds = signature_map(ds, text_col="text", phash_col=None, hashfunc="md5")
    agg = (
        sig_ds.groupby("source")
        .aggregate(minhash_union_aggregate("minhash", 128, alias_name="u"))
        .take_all()
    )
    srcs = [r["source"] for r in agg]
    sigs = np.array([r["u"] for r in agg], dtype=np.uint64)
    order = np.argsort(np.asarray(srcs))
    srcs = [srcs[i] for i in order]
    sigs = sigs[order]
    eq = (sigs[:, None, :] == sigs[None, :, :]).sum(axis=2)
    ia, ib = np.triu_indices(len(srcs), k=1)
    return pa.table(
        {
            "src_a": pa.array([srcs[i] for i in ia], pa.string()),
            "src_b": pa.array([srcs[j] for j in ib], pa.string()),
            "n_equal_slots": pa.array(eq[ia, ib].astype(np.int64), pa.int64()),
            "jaccard_est": pa.array(eq[ia, ib] / 128.0, pa.float64()),
        }
    )


_LINE_DELIM = " a "  # corpus-visible stand-in for '\n' (the synthetic
# captions carry no newlines); the operator is delimiter-parametric.


@query
def q_line_dedup_docs(sf_dir: str, delim: str = _LINE_DELIM, min_count: int = 3):
    """C4/RefinedWeb-style LINE-level exact dedup: drop every line whose
    exact text occurs ≥ ``min_count`` times corpus-wide, re-emit each
    doc's cleaned text plus (n_lines, n_dropped) counts. The canonical
    boilerplate-removal pass a training pipeline runs alongside
    document-level dedup (C4 §2.2 dedups at the "three-sentence span"
    granularity; CCNet/RefinedWeb per line).

    100-TB shape: two slim keyed shuffles, text travels ONCE.
    1. *explode*: one Arrow ``split_pattern`` per batch; the flat line
       buffer hashes in one vectorized call (``flat_token_hashes64``);
       only (line_hash u64, doc_id, li int32) rows leave the map — the
       line frequency table is corpus-sized, so it is never collected
       or broadcast (contrast ``token_rarity_docs``' small-vocab path).
    2. *line shuffle*: runs with ≥ min_count rows emit their (doc_id,
       li) rows as drop flags (``map_key_runs`` pre-filters smaller
       runs via ``min_run``).
    3. *doc shuffle*: flags union the docs table keyed by doc_id (the
       substring-verify pattern — each text moves once); per partition
       the kept lines are rebuilt fully vectorized: one split over the
       block's texts, a boolean drop mask from the flags' global line
       indices, offsets rebuilt with two cumsums, ``binary_join``.

    The oracle groups actual line strings; 64-bit hash collisions are
    the usual w.h.p. caveat shared with ``dup_ngram_fraction``."""
    from raydedup.stages.grouped import auto_partitions, map_key_runs
    from raydedup.suffix import flat_token_hashes64

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    parts = auto_partitions(ds)

    def explode(batch: pa.Table) -> pa.Table:
        tcol = batch.column("text")
        if isinstance(tcol, pa.ChunkedArray):
            tcol = tcol.combine_chunks()
        lists = pc.split_pattern(pc.fill_null(tcol, ""), delim)
        lens = pc.list_value_length(lists).to_numpy(zero_copy_only=False).astype(np.int64)
        flat = pc.list_flatten(lists)
        h = flat_token_hashes64(flat)
        idx = np.repeat(np.arange(len(batch), dtype=np.int64), lens)
        li = (np.arange(len(flat), dtype=np.int64) - np.repeat(np.cumsum(lens) - lens, lens)).astype(np.int32)
        return pa.table(
            {
                "h": pa.array(h, pa.uint64()),
                "doc_id": batch.column("doc_id").take(pa.array(idx)),
                "li": pa.array(li),
            }
        )

    exploded = ds.map_batches(explode, batch_format="pyarrow")

    def flag_runs(block: pa.Table, starts, ends) -> pa.Table:
        empty = pa.table(
            {"doc_id": pa.array([], pa.int64()), "li": pa.array([], pa.int32())}
        )
        if len(starts) == 0:
            return empty
        rsz = ends - starts
        tot = int(rsz.sum())
        idx = np.repeat(starts, rsz) + (
            np.arange(tot, dtype=np.int64) - np.repeat(np.cumsum(rsz) - rsz, rsz)
        )
        return pa.table(
            {
                "doc_id": block.column("doc_id").take(pa.array(idx)),
                "li": block.column("li").take(pa.array(idx)),
            }
        )

    flags = map_key_runs(exploded, "h", flag_runs, parts, min_run=min_count)

    def tag_docs(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "li": pa.array(np.full(len(batch), -1, np.int32)),
                "text": batch.column("text"),
            }
        )

    def pad_flags(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "li": batch.column("li"),
                "text": pa.array([None] * len(batch), pa.string()),
            }
        )

    joined = (
        _read(sf_dir, "documents", columns=["doc_id", "text"])
        .map_batches(tag_docs, batch_format="pyarrow")
        .union(flags.map_batches(pad_flags, batch_format="pyarrow"))
    )

    empty_out = pa.table(
        {
            "doc_id": pa.array([], pa.int64()),
            "clean_text": pa.array([], pa.string()),
            "n_lines": pa.array([], pa.int64()),
            "n_dropped": pa.array([], pa.int64()),
        }
    )

    def rebuild(block: pa.Table, starts, ends) -> pa.Table:
        if len(starts) == 0:
            return empty_out
        tcol = block.column("text")
        if isinstance(tcol, pa.ChunkedArray):
            tcol = tcol.combine_chunks()
        li = block.column("li").to_numpy(zero_copy_only=False)
        # sort_extra=["li"] puts each run's doc row (li = -1) first;
        # flags for docs absent from this table cannot exist (every
        # flag's doc_id came from the docs table), so starts ARE the
        # text rows
        dtexts = tcol.take(pa.array(starts))
        lists = pc.split_pattern(pc.fill_null(dtexts, ""), delim)
        lens = pc.list_value_length(lists).to_numpy(zero_copy_only=False).astype(np.int64)
        flat = pc.list_flatten(lists)
        off = np.concatenate(([0], np.cumsum(lens)))
        # flag rows: positions starts[i]+1 .. ends[i]-1 belong to run i
        rsz = (ends - starts - 1).astype(np.int64)
        tot = int(rsz.sum())
        runidx = np.repeat(np.arange(len(starts), dtype=np.int64), rsz)
        frows = (
            np.arange(tot, dtype=np.int64)
            - np.repeat(np.cumsum(rsz) - rsz, rsz)
            + np.repeat(starts + 1, rsz)
        )
        keep = np.ones(len(flat), dtype=bool)
        keep[off[runidx] + li[frows]] = False
        csk = np.concatenate(([0], np.cumsum(keep)))
        new_off = csk[off]
        kept = flat.filter(pa.array(keep))
        larr = pa.ListArray.from_arrays(pa.array(new_off, pa.int32()), kept)
        return pa.table(
            {
                "doc_id": block.column("doc_id").take(pa.array(starts)),
                "clean_text": pc.binary_join(larr, delim),
                "n_lines": pa.array(lens, pa.int64()),
                "n_dropped": pa.array(rsz, pa.int64()),
            }
        )

    return map_key_runs(joined, "doc_id", rebuild, parts, min_run=1, sort_extra=["li"])


_DELIM_SQL = _LINE_DELIM.replace("'", "''")
ORACLES["line_dedup_docs"] = f"""
    WITH lines AS (
      SELECT doc_id,
             unnest(string_split(text, '{_DELIM_SQL}')) AS line,
             generate_subscripts(string_split(text, '{_DELIM_SQL}'), 1) AS li
      FROM documents
    ), freq AS (
      SELECT line, count(*) AS c FROM lines GROUP BY line
    )
    SELECT l.doc_id,
           coalesce(string_agg(l.line, '{_DELIM_SQL}' ORDER BY l.li)
                        FILTER (WHERE f.c < 3), '') AS clean_text,
           CAST(count(*) AS BIGINT) AS n_lines,
           CAST(count(*) FILTER (WHERE f.c >= 3) AS BIGINT) AS n_dropped
    FROM lines l JOIN freq f USING (line)
    GROUP BY l.doc_id
"""


@query
def q_event_debounce(sf_dir: str, ttl_us: int = 3_600_000_000):
    """TTL-debounce dedup over the event stream: flag an event when the
    PREVIOUS event with the same (user_id, event_type) is within
    ``ttl_us`` (1 h) — the at-least-once-delivery / double-fire cleanup
    every event pipeline runs before aggregation (LAG semantics, so it
    is exactly SQL-expressible; the "since last kept" variant is the
    same run kernel with a greedy scan).

    100-TB shape: one slim keyed shuffle of (user_id, type_hash u64,
    ts_us, event_id) rows — ~32 B/event, no payload; per-semantics the
    key's full event order is needed so map-side pre-aggregation is
    impossible (the sessionize concession). Per partition the flags are
    one vectorized diff over runs sorted by (ts, event_id) — ties
    deterministic on both sides."""
    from raydedup.stages.grouped import auto_partitions, map_key_runs
    from raydedup.suffix import flat_token_hashes64

    ds = _read(sf_dir, "events", columns=["event_id", "user_id", "event_type", "ts"])
    parts = auto_partitions(ds)

    def pre(batch: pa.Table) -> pa.Table:
        et = batch.column("event_type")
        if isinstance(et, pa.ChunkedArray):
            et = et.combine_chunks()
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "th": pa.array(flat_token_hashes64(et), pa.uint64()),
                "us": pc.cast(batch.column("ts"), pa.int64()),
                "event_id": batch.column("event_id"),
            }
        )

    slim = ds.map_batches(pre, batch_format="pyarrow")

    def flag(block: pa.Table, starts, ends) -> pa.Table:
        us = block.column("us").to_numpy(zero_copy_only=False)
        n = len(us)
        deb = np.zeros(n, dtype=bool)
        # previous-row diff within each (user, type) run; run starts
        # (and singleton rows outside starts/ends, which min_run=1
        # includes) are never debounced
        deb[1:] = (us[1:] - us[:-1]) < ttl_us
        deb[starts] = False
        return pa.table(
            {
                "event_id": block.column("event_id"),
                "is_debounced": pa.array(deb.astype(np.int32), pa.int32()),
            }
        )

    return map_key_runs(
        slim, ["user_id", "th"], flag, parts, min_run=1, sort_extra=["us", "event_id"]
    )


ORACLES["event_debounce"] = """
    SELECT event_id,
           CAST(CASE WHEN epoch_us(ts) - lag(epoch_us(ts)) OVER
                        (PARTITION BY user_id, event_type
                         ORDER BY ts, event_id) < 3600000000
                     THEN 1 ELSE 0 END AS INTEGER) AS is_debounced
    FROM events
"""


@query
def q_heavy_hitter_terms(sf_dir: str, k: int = 64, topm: int = 10):
    """Corpus heavy hitters via the mergeable Misra–Gries summary
    (``raydedup/heavyhitters.py``) — the bounded-memory path
    ``top_terms`` documents for open vocabularies: map-side
    ``value_counts`` partials feed an AggregateFn whose state is ≤ k
    counters, merged pairwise; only the tiny final state reaches the
    driver.

    Rows-only (retained-counter values depend on Ray's merge order
    WITHIN the tracked bound); ``oracles.VERIFIERS["heavy_hitter_terms"]``
    checks the Misra–Gries guarantees against exact counts: est ≤ exact
    ≤ est + dec per reported term, and no unreported term above
    min(est) + dec."""
    from raydedup.heavyhitters import MisraGries, mg_aggregate_fn

    pre = _read(sf_dir, "documents", columns=["text"]).map_batches(_term_counts, batch_format="pyarrow")
    st = pre.aggregate(mg_aggregate_fn("token", "n_part", k=k, alias_name="mg_terms"))
    sk = MisraGries.from_bytes(st["mg_terms"])
    cand = sk.top(topm)
    stored = np.array([c for _, c in cand], dtype=np.int64)
    return pa.table(
        {
            "term": pa.array([tb.decode("utf-8") for tb, _ in cand], pa.string()),
            "est_count": pa.array(stored, pa.int64()),
            "upper_bound": pa.array(stored + sk.dec, pa.int64()),
            "dec_total": pa.array(np.full(len(cand), sk.dec), pa.int64()),
            "n_tokens": pa.array(np.full(len(cand), sk.n), pa.int64()),
        }
    )


# ---------------------------------------------- generated sketch oracles
# The md5-profile sketch queries are fully SQL-reproducible; their
# oracle statements are generated with the permutation constants
# inlined (raydedup/oracles.py).
def _install_generated_oracles() -> None:
    from raydedup import oracles as og
    from raydedup.params import optimal_param
    from raydedup.stages.text import LangIdStage

    b, r = optimal_param(0.8, 128)
    ORACLES.update(
        {
            "langid_docs": og.langid_sql(LangIdStage.PROFILES),
            "simhash_docs": og.simhash_sql(),
            "minhash_cardinality_docs": og.minhash_cardinality_sql(),
            "source_union_signatures": og.source_union_sql(),
            "source_similarity": og.source_similarity_sql(),
            "topk_similar_docs": og.topk_similar_sql(),
            "lsh_candidate_pairs_docs": og.lsh_candidate_pairs_sql(b=b, r=r),
            "cross_source_neardup": og.cross_source_neardup_sql(b=b, r=r),
            "lsh_session_dedup": og.lsh_session_dedup_sql(b=b, r=r),
            "ann_lsh_topk": og.ann_lsh_topk_sql(),
            "hll_users_per_type": og.hll_users_per_type_sql(),
            "hllpp_distinct_users": og.hllpp_distinct_users_sql(),
            "forest_topk_docs": og.forest_topk_sql(),
            "fingerprint_docs": og.fingerprint_sql(),
            "minhash_clusters_md5": og.minhash_clusters_sql(b=b, r=r),
            "cluster_representatives": og.cluster_representatives_sql(b=b, r=r),
        }
    )


_install_generated_oracles()

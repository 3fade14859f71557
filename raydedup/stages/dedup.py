"""Deduplication operators over ray.data Datasets.

- exact dedup: content-hash groupby, keep min-id row (also the
  pre-collapse pass that defuses LSH bucket skew — SURVEY.md §4.2)
- substring dedup: a broadcast table of min-window query anchors, probed
  and hash-verified by each container doc's own map task
  (raydedup.suffix kernels)
- the MinHash/SimHash near-dup paths live in stages/bands.py and are
  composed by pipeline.py; this module adds the n-gram-Jaccard
  brute-verify and embedding-cosine near-dup operators used by the
  training-data query surface.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from raydedup.hashing import ragged_arange

_worker_obj_cache: dict = {}


def _cached_object(ref):
    """Per-worker deserialized view of a broadcast ``ray.put`` object
    (ray.get re-deserializes Python objects per call; stages that probe
    a broadcast filter per batch want it resident once per process)."""
    import ray

    key = ref.hex()
    v = _worker_obj_cache.get(key)
    if v is None:
        if len(_worker_obj_cache) > 8:  # a handful of live refs per run
            _worker_obj_cache.clear()
        v = ray.get(ref)
        _worker_obj_cache[key] = v
    return v


# ---------------------------------------------------------------- exact dedup
def add_content_hash(batch: pa.Table, cols: list[str], out_col: str = "content_hash") -> pa.Table:
    """Vectorized-ish content hash (SHA1 hex of the concatenated column
    reprs). SHA1 must run per row; columns are pre-rendered with Arrow
    kernels so the loop touches plain bytes only.

    NULL values render as a type-prefix sentinel (``\\x00``) distinct
    from any real string (``\\x01`` + value), so a NULL cell and an
    empty string never hash together — matching SQL GROUP BY semantics
    where NULLs form their own group separate from ''."""
    rendered = [pc.cast(batch.column(c), pa.string()).to_pylist() for c in cols]
    hashes = [
        hashlib.sha1(
            "\x1f".join("\x00" if v is None else "\x01" + v for v in row).encode("utf-8")
        ).hexdigest()
        for row in zip(*rendered)
    ]
    return batch.append_column(out_col, pa.array(hashes, pa.string()))


def exact_dedup(ds, key_cols: list[str], id_col: str, keep_payload: bool = True, num_partitions: int | None = None):
    """Keep one representative (min id) per identical content.

    hash in map_batches (cheap, parallel) → hash-partition on
    content_hash → per-run min-id (stages/grouped.py: one Python call
    per partition, not per group). Only the hash + id transit the
    shuffle unless ``keep_payload`` (then whole rows minus any
    pre-dropped blobs)."""
    from raydedup.stages.grouped import auto_partitions, keyed_partitions

    if num_partitions is None:
        num_partitions = auto_partitions(ds)
    hashed = ds.map_batches(
        lambda t: add_content_hash(t, key_cols), batch_format="pyarrow"
    )
    if not keep_payload:
        hashed = hashed.select_columns(["content_hash", id_col])

    parted = keyed_partitions(hashed, ["content_hash"], num_partitions)

    def keep_min_per_run(block: pa.Table) -> pa.Table:
        if len(block) == 0:
            return block
        # ONE two-key Arrow C++ sort replaces the former per-run Python
        # argmin (an object-dtype compare per group for string ids):
        # after (hash, id) sort, each run's first row IS its min-id rep
        block = block.sort_by(
            [("content_hash", "ascending"), (id_col, "ascending")]
        )
        h = block.column("content_hash").to_numpy(zero_copy_only=False)
        change = np.nonzero(h[1:] != h[:-1])[0] + 1
        starts = np.concatenate(([0], change))
        return block.take(pa.array(starts))

    return parted.map_batches(keep_min_per_run, batch_size=None, batch_format="pyarrow")


# ------------------------------------------------------------ substring dedup
def _fold_windows(hv: np.ndarray, starts: np.ndarray, w: int) -> np.ndarray:
    """FNV fold of ``w`` consecutive token hashes at each flat start."""
    from raydedup.suffix import _W_FNV_OFFSET, _W_FNV_PRIME

    anc = np.full(len(starts), _W_FNV_OFFSET, dtype=np.uint64)
    for j in range(w):
        anc ^= hv[starts + j]
        anc *= _W_FNV_PRIME
    return anc


def _token_windows(lens: np.ndarray, w: int):
    """Every ``w``-token window of the docs that hold one: returns
    ``(doc row per window, window position in its doc, first window of
    each such doc, windows per such doc)``."""
    rows = np.flatnonzero(lens >= w)
    nwin = lens[rows] - w + 1
    return np.repeat(rows, nwin), ragged_arange(nwin), np.cumsum(nwin) - nwin, nwin


def _substring_tokens(batch: pa.Table, text_col: str):
    """Tokenize a batch once (``str.split()`` parity, Arrow kernels, one
    flat hash call): per-doc token counts, flat token hashes, doc
    offsets, polynomial prefix sums with their powers, whole-doc hashes
    and char counts. Null and empty texts count 0 tokens."""
    from raydedup.suffix import flat_token_hashes64, poly_powers, poly_prefix_sums, split_ws_tokens

    tcol = batch.column(text_col)
    if isinstance(tcol, pa.ChunkedArray):
        tcol = tcol.combine_chunks()
    lens, flat = split_ws_tokens(tcol)
    hv = flat_token_hashes64(flat)
    off = np.cumsum(lens) - lens
    bpow, binv = poly_powers(len(hv))
    S = poly_prefix_sums(hv, binv)
    # H(i, j) = (S[j] - S[i]) · B^(j-1): the hash of tokens [i, j) with
    # the last token at B^0, whatever the offset (uint64 wraparound)
    end = off + lens
    dhash = (S[end] - S[off]) * bpow[np.maximum(end - 1, 0)]
    chars = pc.fill_null(pc.utf8_length(tcol), 0).to_numpy(zero_copy_only=False).astype(np.int64)
    return lens, hv, off, S, bpow, dhash, chars


def substring_query_rows(batch: pa.Table, id_col: str, text_col: str, window: int) -> pa.Table:
    """One query row per non-empty doc: ``anchor`` is the minimum FNV
    fold over its ``window``-token windows (min, not leading, so
    templated prefixes don't flood one anchor) and ``qoff`` that
    window's first position; a doc shorter than ``window`` is anchored
    on the fold of its whole token list at ``qoff`` 0. ``qlen``,
    ``qhash`` and ``qchars`` are its token count, whole-doc polynomial
    hash and char count."""
    lens, hv, off, _, _, dhash, chars = _substring_tokens(batch, text_col)
    anchor = np.zeros(len(lens), np.uint64)
    qoff = np.zeros(len(lens), np.int64)
    for L in range(1, window):
        sq = np.flatnonzero(lens == L)
        anchor[sq] = _fold_windows(hv, off[sq], L)
    crow, pos, seg, nwin = _token_windows(lens, window)
    if len(crow):
        anc = _fold_windows(hv, off[crow] + pos, window)
        mins = np.minimum.reduceat(anc, seg)
        # the first window of each doc that holds its minimum
        at_min = np.flatnonzero(anc == np.repeat(mins, nwin))
        first = at_min[np.unique(crow[at_min], return_index=True)[1]]
        anchor[crow[first]] = mins
        qoff[crow[first]] = pos[first]
    live = np.flatnonzero(lens >= 1)
    return pa.table(
        {
            id_col: batch.column(id_col).take(pa.array(live)),
            "anchor": pa.array(anchor[live]),
            "qoff": pa.array(qoff[live].astype(np.int32)),
            "qlen": pa.array(lens[live].astype(np.int32)),
            "qhash": pa.array(dhash[live]),
            "qchars": pa.array(chars[live].astype(np.int32)),
        }
    )


def substring_query_classes(queries: pa.Table, id_col: str, window: int) -> dict:
    """Sort the query rows by ``(anchor, qhash, qchars)`` and collapse
    rows with identical text into one class: per-class ``anchor``
    (ascending), ``qoff``, ``qlen``, ``qhash`` and ``qchars`` arrays, the
    member ids ``ids[mstart[j]:mstart[j + 1]]``, and the distinct short
    query lengths (``< window``) the containers must also fold."""
    q = queries.sort_by([("anchor", "ascending"), ("qhash", "ascending"), ("qchars", "ascending")])
    cols = {c: q.column(c).to_numpy() for c in ("anchor", "qoff", "qlen", "qhash", "qchars")}
    a, h, c = cols["anchor"], cols["qhash"], cols["qchars"]
    new = np.ones(len(q), dtype=bool)
    new[1:] = (a[1:] != a[:-1]) | (h[1:] != h[:-1]) | (c[1:] != c[:-1])
    first = np.flatnonzero(new)
    classes = {k: v[first] for k, v in cols.items()}
    classes["mstart"] = np.append(first, len(q))
    classes["ids"] = q.column(id_col).combine_chunks()
    ql = classes["qlen"]
    classes["short_lens"] = np.unique(ql[ql < window]).tolist()
    return classes


def substring_verify_batch(batch: pa.Table, id_col: str, text_col: str, window: int, classes: dict) -> pa.Table:
    """``(id_a, id_b)`` pairs with ``id_b`` a doc of this batch and
    ``id_a`` a strict token slice of it. Each container window (at
    ``window`` and at every short query length) is looked up in the
    sorted class anchors; a hit of class ``j`` at window position ``p``
    puts the query at tokens ``[st, fin) = [p - qoff_j, p - qoff_j +
    qlen_j)``, which must lie inside the doc, with fewer chars than the
    doc and a different whole-doc hash (identical text never strictly
    contains), and whose prefix-sum hash must equal ``qhash_j``. The
    distinct ``(class, doc)`` hits expand to every class member."""
    lens, hv, off, S, bpow, dhash, chars = _substring_tokens(batch, text_col)
    ids = batch.column(id_col)
    ca = classes["anchor"]
    hit_doc, hit_cls, hit_st = [], [], []
    for w in [window, *classes["short_lens"]]:
        crow, pos, _, _ = _token_windows(lens, w)
        anc = _fold_windows(hv, off[crow] + pos, w)
        lo = np.searchsorted(ca, anc, side="left")
        nhit = np.searchsorted(ca, anc, side="right") - lo
        k = np.flatnonzero(nhit)
        if len(k) == 0:
            continue
        cnt = nhit[k]
        rep = np.repeat(k, cnt)
        j = np.repeat(lo[k], cnt) + ragged_arange(cnt)
        hit_doc.append(crow[rep])
        hit_cls.append(j)
        hit_st.append(pos[rep] - classes["qoff"][j])
    empty = pa.table({"id_a": pa.array([], ids.type), "id_b": pa.array([], ids.type)})
    if not hit_doc:
        return empty
    d, j, st = np.concatenate(hit_doc), np.concatenate(hit_cls), np.concatenate(hit_st)
    fin = st + classes["qlen"][j]
    ok = (st >= 0) & (fin <= lens[d]) & (classes["qchars"][j] < chars[d]) & (classes["qhash"][j] != dhash[d])
    d, j, st, fin = d[ok], j[ok], st[ok], fin[ok]
    base = off[d]
    match = (S[base + fin] - S[base + st]) * bpow[base + fin - 1] == classes["qhash"][j]
    # a container holding a query twice hits twice: one pair. Each doc
    # sits in exactly one batch, so batch-local distinct is global.
    key = np.unique(j[match] * len(lens) + d[match])
    if len(key) == 0:
        return empty
    j, d = key // len(lens), key % len(lens)
    mstart = classes["mstart"]
    m = mstart[j + 1] - mstart[j]
    member = np.repeat(mstart[j], m) + ragged_arange(m)
    return pa.table(
        {
            "id_a": classes["ids"].take(pa.array(member)),
            "id_b": ids.take(pa.array(np.repeat(d, m))),
        }
    )


def substring_pairs(ds, id_col: str, text_col: str, window: int = 4):
    """(contained_id → id_a, container_id → id_b) pairs where one
    caption is a strict token slice of another (SURVEY §2.5), checked
    by hash; every pair appears once.

    One pre-pass execution and one map, no shuffle:

    1. *queries* (``substring_query_rows``): every non-empty doc emits
       one ~40-byte row — min-window anchor, its offset, token count,
       whole-doc hash, char count. The driver collects them as Arrow
       blocks and collapses identical texts into classes
       (``substring_query_classes``), so an exact-duplicate flood costs
       one class, not m² candidates.
    2. *broadcast*: the class table is ``ray.put`` once and read per
       worker through ``_cached_object``. It grows with the corpus at
       ≈ 50 B per distinct query text: ≈ 2 MB at 36k docs, ≈ 5 MB at
       92k, ≈ 250 MB at 5M (shared zero-copy through the object store).
    3. *verify* (``substring_verify_batch``): each doc, as a container,
       is checked in the map that already holds its text — its windows
       probe the class anchors, and every hit is verified with one
       prefix-sum hash compare. No text moves between tasks.

    An empty corpus returns a typed empty dataset after the pre-pass."""
    import ray
    import ray.data as rd

    slim = ds.select_columns([id_col, text_col])
    blocks = ray.get(
        slim.map_batches(
            lambda b: substring_query_rows(b, id_col, text_col, window), batch_format="pyarrow"
        ).to_arrow_refs()
    )
    blocks = [b for b in blocks if b.num_rows]
    if not blocks:
        id_type = ds.schema().base_schema.field(id_col).type
        return rd.from_arrow(pa.table({"id_a": pa.array([], id_type), "id_b": pa.array([], id_type)}))
    ref = ray.put(substring_query_classes(pa.concat_tables(blocks), id_col, window))
    return slim.map_batches(
        lambda b: substring_verify_batch(b, id_col, text_col, window, _cached_object(ref)),
        batch_format="pyarrow",
    )


# -------------------------------------------------- n-gram Jaccard (AllPairs)
def _shingle_blob_table(slim_ds, id_col: str, text_col: str, n: int):
    """(image_key, sigblob) table: sorted-unique uint64 shingle hashes
    packed to bytes — the per-doc set representation that transits the
    verification joins (8 bytes/shingle, shipped once per side)."""
    from raydedup.suffix import flat_ngram_hashes64, unique_per_row

    def pack(batch: pa.Table) -> pa.Table:
        cnt, w = flat_ngram_hashes64(batch.column(text_col), n)
        ucnt, uniq = unique_per_row(cnt, w)  # sorted ascending per row
        off = np.cumsum(ucnt) - ucnt
        blobs = [uniq[o : o + c].tobytes() for o, c in zip(off, ucnt)]
        return pa.table(
            {"image_key": batch.column(id_col), "sigblob": pa.array(blobs, pa.binary())}
        )

    return slim_ds.map_batches(pack, batch_format="pyarrow")


def _blob_values(arr) -> tuple[np.ndarray, np.ndarray]:
    """Flat uint64 values + per-row set sizes of a binary column whose
    rows are packed little-endian uint64 buffers. Zero-copy: reads the
    Arrow offsets/data buffers directly (binary offsets are monotonic,
    so ``data[off[0]:off[-1]]`` IS the row-order concatenation); null
    rows read as empty sets."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if len(arr) == 0:
        return np.empty(0, np.uint64), np.zeros(0, np.int64)
    off_dt = np.int64 if pa.types.is_large_binary(arr.type) else np.int32
    off = np.frombuffer(arr.buffers()[1], off_dt)[
        arr.offset : arr.offset + len(arr) + 1
    ].astype(np.int64)
    buf = arr.buffers()[2]
    data = np.frombuffer(buf, np.uint8) if buf is not None else np.empty(0, np.uint8)
    flat = np.ascontiguousarray(data[off[0] : off[-1]])
    return flat.view(np.uint64), (off[1:] - off[:-1]) // 8


def _batch_intersections(va, la, vb, lb) -> np.ndarray:
    """|A_i ∩ B_i| for a batch of set pairs given as flat uint64 value
    arrays with per-pair lengths (each side duplicate-free). One global
    lexsort by (pair, value); a value shared by both sides of a pair is
    exactly an adjacent duplicate."""
    npairs = len(la)
    if npairs == 0 or (len(va) == 0 and len(vb) == 0):
        return np.zeros(npairs, np.int64)
    rid = np.concatenate(
        [np.repeat(np.arange(npairs, dtype=np.int64), la),
         np.repeat(np.arange(npairs, dtype=np.int64), lb)]
    )
    vals = np.concatenate([va, vb])
    order = np.lexsort((vals, rid))
    sr, sv = rid[order], vals[order]
    dup = (sr[1:] == sr[:-1]) & (sv[1:] == sv[:-1])
    return np.bincount(sr[1:][dup], minlength=npairs)


def _pair_set_verify(
    pairs,
    slim_ds,
    id_col,
    text_col,
    n,
    num_partitions,
    score_col,
    score_fn,
    threshold,
    broadcast_limit_rows: int = 100_000,
    n_docs: int | None = None,
):
    """Exact set-overlap verification for candidate pairs.

    Small corpora (≤ ``broadcast_limit_rows`` docs): the packed
    shingle-hash blob table is broadcast once via ``ray.put`` and every
    candidate batch scores in-map — zero extra shuffles (the
    small-side-broadcast pattern; one dedupe shuffle collapses
    candidate multiplicity).

    Larger corpora: TWO keyed shuffles — (1) split each pair into two
    *half* rows keyed by their own doc id, union the blob table, and
    hand each half its blob inside one run; (2) re-join the halves on
    (id_a, id_b) — candidate multiplicity collapses here for free — and
    score both sets, keeping rows ≥ ``threshold``. Each doc's set
    transits once per half, never once per prefix row.

    ``score_fn(inter, la, lb) -> np.ndarray[float64]`` is VECTORIZED
    over whole candidate batches (r04 rewrite, VERDICT r03 wrong-#1):
    blob gathers are Arrow ``take`` + flat-buffer views and every
    intersection in a batch is computed by one lexsort-merge
    (``_batch_intersections``) — no per-row Python on any path.

    Candidate multiplicity collapses BEFORE scoring (r04): one distinct
    shuffle sized by the PAIR count (the candidate table is often 50×
    the corpus row count, so corpus-sized partitioning under-parallelizes
    the scoring), then scoring needs no trailing dedupe shuffle at all."""
    import ray

    from raydedup.stages.grouped import (
        auto_partitions,
        map_key_runs,
        staged,
        unique_rows_partitioned,
    )

    pairs = staged(pairs)  # candidate shuffle finishes before the joins start
    psch = pairs.schema()
    if psch is None:  # no candidates at all (empty corpus): empty result
        import ray.data as rd

        ssch = slim_ds.schema()
        id_t = ssch.base_schema.field(id_col).type if ssch is not None else pa.string()
        return rd.from_arrow(
            pa.table(
                {
                    "id_a": pa.array([], id_t),
                    "id_b": pa.array([], id_t),
                    score_col: pa.array([], pa.float64()),
                }
            )
        )
    id_type = psch.base_schema.field("id_a").type
    # collapse candidate multiplicity FIRST, partitioned by the pair
    # count (not the corpus row count — candidates are routinely 50×
    # the docs); everything downstream scores each pair exactly once
    pair_parts = auto_partitions(pairs.count())
    deduped = unique_rows_partitioned(pairs, ["id_a", "id_b"], pair_parts)
    blobs = _shingle_blob_table(slim_ds, id_col, text_col, n)
    if n_docs is None:
        n_docs = slim_ds.count()

    if n_docs <= broadcast_limit_rows:
        # downstream of the dedupe shuffle is map-only here, so it can
        # stay lazy — one execution for shuffle + score + consume
        pairs = deduped
        rows = blobs.take_all()
        keys_arr = pa.array([r["image_key"] for r in rows], id_type)
        # sentinel empty blob at index len(keys): ids outside the corpus
        # (can't happen for self-join candidates, defensive) score as ∅
        blob_arr = pa.array([r["sigblob"] for r in rows] + [b""], pa.binary())
        blob_ref = ray.put((keys_arr, blob_arr))

        def score_map(batch: pa.Table) -> pa.Table:
            keys, blob_tab = ray.get(blob_ref)
            k = len(keys)
            ia = pc.fill_null(pc.index_in(batch.column("id_a"), value_set=keys), k)
            ib = pc.fill_null(pc.index_in(batch.column("id_b"), value_set=keys), k)
            va, la = _blob_values(blob_tab.take(ia))
            vb, lb = _blob_values(blob_tab.take(ib))
            inter = _batch_intersections(va, la, vb, lb)
            sc = score_fn(
                inter.astype(np.float64), la.astype(np.float64), lb.astype(np.float64)
            )
            keep = sc >= threshold
            sel = pa.array(np.flatnonzero(keep))
            return pa.table(
                {
                    "id_a": batch.column("id_a").take(sel),
                    "id_b": batch.column("id_b").take(sel),
                    score_col: pa.array(sc[keep], pa.float64()),
                }
            )

        # pairs are already globally distinct — pure map, no more shuffles
        return pairs.map_batches(score_map, batch_format="pyarrow", batch_size=None)

    # shuffle branch: the attach stage is itself a keyed shuffle, so pin
    # the dedupe shuffle first (two live keyed shuffles ran ~2× slower)
    pairs = staged(deduped)

    def halves(batch: pa.Table) -> pa.Table:
        n_rows = len(batch)
        ida = batch.column("id_a").combine_chunks()
        idb = batch.column("id_b").combine_chunks()
        if isinstance(ida, pa.ChunkedArray):
            ida = ida.chunk(0) if ida.num_chunks else pa.array([], id_type)
        if isinstance(idb, pa.ChunkedArray):
            idb = idb.chunk(0) if idb.num_chunks else pa.array([], id_type)
        return pa.table(
            {
                "key": pa.concat_arrays([ida, idb]),
                "id_a": pa.concat_arrays([ida, ida]),
                "id_b": pa.concat_arrays([idb, idb]),
                "side": pa.array(
                    np.concatenate([np.zeros(n_rows, np.int8), np.ones(n_rows, np.int8)])
                ),
                "blob": pa.array([None] * (2 * n_rows), pa.binary()),
                "tag": pa.array(np.zeros(2 * n_rows, np.int8)),
            }
        )

    def tag_blobs(batch: pa.Table) -> pa.Table:
        n_rows = len(batch)
        return pa.table(
            {
                "key": batch.column("image_key"),
                "id_a": pa.array([None] * n_rows, id_type),
                "id_b": pa.array([None] * n_rows, id_type),
                "side": pa.array(np.zeros(n_rows, np.int8)),
                "blob": batch.column("sigblob"),
                "tag": pa.array(np.ones(n_rows, np.int8)),
            }
        )

    joined_in = pairs.map_batches(halves, batch_format="pyarrow").union(
        blobs.map_batches(tag_blobs, batch_format="pyarrow")
    )

    def _first_in_runs(rows: np.ndarray, starts: np.ndarray, ends: np.ndarray):
        """Per run, the first member of sorted position array ``rows``,
        or -1 when the run has none. O(runs·log|rows|)."""
        if len(rows) == 0:
            return np.full(len(starts), -1, np.int64)
        fi = np.searchsorted(rows, starts)
        pos = rows[np.minimum(fi, len(rows) - 1)]
        return np.where((fi < len(rows)) & (pos < ends), pos, -1)

    def attach(block: pa.Table, starts, ends) -> pa.Table:
        # each run = one doc id: ONE blob row (tag 1) + every pair-half
        # row (tag 0) waiting for that doc's set. Gather = find the blob
        # row per run, broadcast its position to the run's half rows,
        # then two Arrow takes — no Python rows (r04, VERDICT r03 #1).
        tags = block.column("tag").to_numpy(zero_copy_only=False)
        starts = np.asarray(starts, np.int64)
        ends = np.asarray(ends, np.int64)
        blob_pos = _first_in_runs(np.flatnonzero(tags == 1), starts, ends)
        half_rows = np.flatnonzero(tags == 0)
        run_of = np.searchsorted(starts, half_rows, side="right") - 1
        keep = blob_pos[run_of] >= 0
        hr = pa.array(half_rows[keep])
        bp = pa.array(blob_pos[run_of[keep]])
        return pa.table(
            {
                "id_a": block.column("id_a").take(hr),
                "id_b": block.column("id_b").take(hr),
                "side": block.column("side").take(hr),
                "blob": block.column("blob").take(bp),
            }
        )

    # the attach shuffle carries 2·pairs half rows + the corpus blobs —
    # size by whichever dominates
    half_blobs = staged(
        map_key_runs(joined_in, "key", attach, max(num_partitions, pair_parts))
    )

    def score(block: pa.Table, starts, ends) -> pa.Table:
        # each run = one (id_a, id_b) candidate: locate the side-0 and
        # side-1 half rows, gather both blob sets with Arrow takes, and
        # score the WHOLE block's intersections in one lexsort-merge.
        sides = block.column("side").to_numpy(zero_copy_only=False)
        starts = np.asarray(starts, np.int64)
        ends = np.asarray(ends, np.int64)
        a_pos = _first_in_runs(np.flatnonzero(sides == 0), starts, ends)
        b_pos = _first_in_runs(np.flatnonzero(sides == 1), starts, ends)
        valid = (a_pos >= 0) & (b_pos >= 0)
        ap, bp = a_pos[valid], b_pos[valid]
        blob_col = block.column("blob")
        va, la = _blob_values(blob_col.take(pa.array(ap)))
        vb, lb = _blob_values(blob_col.take(pa.array(bp)))
        inter = _batch_intersections(va, la, vb, lb)
        sc = score_fn(
            inter.astype(np.float64), la.astype(np.float64), lb.astype(np.float64)
        )
        keep = sc >= threshold
        sel = pa.array(ap[keep])  # ids constant within a run
        return pa.table(
            {
                "id_a": block.column("id_a").take(sel),
                "id_b": block.column("id_b").take(sel),
                score_col: pa.array(sc[keep], pa.float64()),
            }
        )

    return map_key_runs(half_blobs, ["id_a", "id_b"], score, pair_parts)


# Corpora at or below this metadata-cheap doc count run n-gram Jaccard
# / exact containment as ONE fused candidate task plus a parallel
# scoring map (exact DF + prefix/length filter + in-memory dedupe,
# then chunked exact scoring against the broadcast corpus): the
# distributed shape costs 5-6 Dataset executions (~1-2 s fixed each on
# this Ray version — DF-sketch pass, anchor shuffle, staging barrier,
# dedupe shuffle, blob build, score) which dominates any small corpus.
# The verified pair set is IDENTICAL: AllPairs is lossless under any
# consistent frequency order (exact DF here, count-min estimate on the
# distributed path), the shingle hash space is shared
# (flat_ngram_hashes64), and scoring is the same double division.
# Beyond the gate the distributed path runs exactly as before
# (exercised at 480k docs — BASELINE.md round-4).
NGRAM_FUSED_DOCS = 20_000


def _ngram_prep(t: pa.Table, text_col: str, n: int):
    """Derived shingle arrays for the fused path — MUST be identical
    between the candidate task and every scoring worker (both derive
    from the same broadcast table): per-doc sorted distinct shingle
    hashes (flat), offsets, sizes, compact codes and exact DF."""
    from raydedup.suffix import flat_ngram_hashes64, unique_per_row

    cnt, w = flat_ngram_hashes64(t.column(text_col), n)
    ucnt, hs = unique_per_row(cnt, w)  # sorted ascending per row
    off = np.cumsum(ucnt) - ucnt
    if len(hs):
        uq, inv, dfc = np.unique(hs, return_inverse=True, return_counts=True)
    else:
        uq = inv = dfc = np.empty(0, np.int64)
    return ucnt, hs, off, inv, np.int64(len(uq)), dfc


def _fused_candidate_rows(t: pa.Table, text_col: str, n: int, threshold: float, mode: str, prep=None):
    """Candidate (row_i, row_j) emission for the fused path: prefix
    filter over the exact-DF order, per-anchor length-filtered pair
    emission, row-code dedupe. Returns two int64 row-index arrays
    (jaccard: canonicalized i<j by row; containment: ordered
    (contained, container))."""
    nrows = len(t)
    if prep is None:
        prep = _ngram_prep(t, text_col, n)
    ucnt, hs, off, inv, ncodes, dfc = prep
    none = np.empty(0, np.int64)
    if len(hs) == 0:
        return none, none
    rid = np.repeat(np.arange(nrows, dtype=np.int64), ucnt)
    order = np.lexsort((hs, dfc[inv], rid))  # per row: rare-first
    pos = np.arange(len(hs), dtype=np.int64) - np.repeat(off, ucnt)
    # prefix length = A - ceil(t*A) + 1 (a pair at threshold shares
    # >=ceil(t*A) shingles, so at most A-ceil(t*A) leading shingles
    # are unshared). Computed via ceil with an epsilon guard:
    # floor(A*(1-t))+1 underflows in binary floating point (e.g.
    # 15*0.2 -> 2.999... -> prefix 3 where 4 is required, dropping
    # a pair at exactly t=0.8 -- caught by the brute-force
    # conformance test at both thresholds).
    plen = ucnt - np.ceil(threshold * ucnt - 1e-9).astype(np.int64) + 1
    keep = order[pos < plen[rid[order]]]
    # DF-order position of EVERY flat entry within its row (PPJoin
    # positional filter): shared shingles of a pair appear in the same
    # relative order on both sides (one global (df, hash) order), so at
    # the pair's EARLIEST shared anchor, |A∩B| ≤ min(|A|-posA, |B|-posB)
    # exactly. Pruning an emission with that bound below the overlap
    # threshold is lossless: the earliest emission is only pruned when
    # the pair truly can't reach the threshold, and any later emission
    # that survives keeps the pair alive (Xiao et al., WWW'08).
    dfpos = np.empty(len(hs), np.int64)
    dfpos[order] = pos
    a_out, b_out = [], []
    if mode == "jaccard":
        anc, arow = hs[keep], rid[keep]
        asz = ucnt[arow].astype(np.float64)
        arem = asz - dfpos[keep]  # shingles at/after this anchor in-row
        # anchor runs, size-sorted inside each run (length filter)
        o2 = np.lexsort((asz, anc))
        anc, arow, asz, arem = anc[o2], arow[o2], asz[o2], arem[o2]
        change = np.flatnonzero(anc[1:] != anc[:-1]) + 1
        starts = np.concatenate(([0], change))
        ends = np.concatenate((change, [len(anc)]))
        multi = (ends - starts) >= 2
        tt = threshold / (1.0 + threshold)  # J ≥ t ⟺ |A∩B| ≥ tt·(|A|+|B|)
        for s, e in zip(starts[multi], ends[multi]):
            m = e - s
            rsz, rrow, rrem = asz[s:e], arow[s:e], arem[s:e]
            hi = np.searchsorted(rsz, rsz / threshold + 1e-9, side="right")
            cnt_ = np.maximum(hi - np.arange(m) - 1, 0)
            tot = int(cnt_.sum())
            if not tot:
                continue
            ai = np.repeat(np.arange(m), cnt_)
            bj = np.arange(tot) - np.repeat(np.cumsum(cnt_) - cnt_, cnt_) + ai + 1
            ub = np.minimum(rrem[ai], rrem[bj])
            ok = ub >= tt * (rsz[ai] + rsz[bj]) - 1e-9
            ra, rb = rrow[ai[ok]], rrow[bj[ok]]
            a_out.append(np.minimum(ra, rb))
            b_out.append(np.maximum(ra, rb))
    else:
        # containment: container side = the full inverted index
        # (every flat entry), contained side = the prefix subset
        pref = np.zeros(len(hs), bool)
        pref[keep] = True
        allsz = ucnt[rid].astype(np.float64)
        allrem = allsz - dfpos
        o2 = np.lexsort((allsz, hs))  # runs by shingle, size-sorted
        anc, arow, asz, apr = hs[o2], rid[o2], allsz[o2], pref[o2]
        arem = allrem[o2]
        change = np.flatnonzero(anc[1:] != anc[:-1]) + 1
        starts = np.concatenate(([0], change))
        ends = np.concatenate((change, [len(anc)]))
        multi = (ends - starts) >= 2
        for s, e in zip(starts[multi], ends[multi]):
            qm = apr[s:e]
            if not qm.any():
                continue
            qrow, qsz = arow[s:e][qm], asz[s:e][qm]
            qrem = arem[s:e][qm]
            crow, csz = arow[s:e], asz[s:e]  # size-sorted already
            crem = arem[s:e]
            lo = np.searchsorted(csz, qsz * threshold - 1e-9, side="left")
            cnt_ = len(crow) - lo
            tot = int(cnt_.sum())
            if not tot:
                continue
            ai = np.repeat(np.arange(len(qrow)), cnt_)
            bj = (
                np.arange(tot, dtype=np.int64)
                - np.repeat(np.cumsum(cnt_) - cnt_, cnt_)
                + lo[ai]
            )
            # positional bound: C(A,B) ≥ t ⟺ |A∩B| ≥ t·|A|
            ub = np.minimum(qrem[ai], crem[bj])
            ok = ub >= threshold * qsz[ai] - 1e-9
            ra, rb = qrow[ai[ok]], crow[bj[ok]]
            ne = ra != rb  # a doc always contains its own anchor
            a_out.append(ra[ne])
            b_out.append(rb[ne])
    if not a_out:
        return none, none
    # dedupe candidate multiplicity on row codes (cheaper than id
    # pairs; ids are unique per row on every query surface).
    # jaccard rows are pre-canonicalized (min,max); containment rows
    # stay ordered — both directions are distinct results.
    codes = np.unique(
        np.concatenate(a_out) * np.int64(nrows) + np.concatenate(b_out)
    )
    return codes // nrows, codes % nrows


def _fused_score_chunk(prep, ri, rj, threshold, mode):
    """Exact set-overlap scores for one chunk of candidate row pairs.
    Per-row shingle codes are ascending (unique_per_row sorts values,
    np.unique codes preserve value order), so pair·ncodes+code is
    GLOBALLY sorted on both sides — one searchsorted membership probe
    replaces the lexsort-merge (measured 6× on the sf0.1 corpus:
    12.1 s → 1.9 s). Returns (keep_mask_indices, scores)."""
    ucnt, hs, off, inv, ncodes, _ = prep
    npairs = len(ri)
    la, lb = ucnt[ri], ucnt[rj]
    pref = np.cumsum(la) - la
    pid_a = np.repeat(np.arange(npairs, dtype=np.int64), la)
    ga = (
        np.arange(int(la.sum()), dtype=np.int64)
        - np.repeat(pref, la)
        + np.repeat(off[ri], la)
    )
    pref = np.cumsum(lb) - lb
    pid_b = np.repeat(np.arange(npairs, dtype=np.int64), lb)
    gb = (
        np.arange(int(lb.sum()), dtype=np.int64)
        - np.repeat(pref, lb)
        + np.repeat(off[rj], lb)
    )
    ka = pid_a * ncodes + inv[ga]
    kb = pid_b * ncodes + inv[gb]
    idx = np.searchsorted(kb, ka)
    idxc = np.minimum(idx, max(len(kb) - 1, 0))
    hit = (idx < len(kb)) & (kb[idxc] == ka) if len(kb) else np.zeros(len(ka), bool)
    inter = np.bincount(pid_a[hit], minlength=npairs).astype(np.float64)
    laf, lbf = la.astype(np.float64), lb.astype(np.float64)
    if mode == "jaccard":
        union = laf + lbf - inter
        sc = np.where(union > 0, inter / np.maximum(union, 1.0), 0.0)
    else:
        sc = np.where(laf > 0, inter / np.maximum(laf, 1.0), 0.0)
    kp = np.flatnonzero(sc >= threshold)
    return kp, sc[kp]


def _fused_scored_table(t, prep, ri, rj, id_col, threshold, mode, id_type, chunk=1 << 16):
    """Score candidate row pairs against corpus table ``t`` and emit
    the final (id_a, id_b, score) Arrow table (chunked to bound gather
    memory). Shared by the inline path and the parallel scoring map."""
    score_col = "jaccard" if mode == "jaccard" else "containment"
    idc = t.column(id_col)
    if isinstance(idc, pa.ChunkedArray):
        idc = idc.combine_chunks()
    oa, ob, osc = [], [], []
    for c0 in range(0, len(ri), chunk):
        ric, rjc = ri[c0 : c0 + chunk], rj[c0 : c0 + chunk]
        kp, sc = _fused_score_chunk(prep, ric, rjc, threshold, mode)
        ia = idc.take(pa.array(ric[kp])).to_numpy(zero_copy_only=False)
        ib = idc.take(pa.array(rjc[kp])).to_numpy(zero_copy_only=False)
        if mode == "jaccard":
            ia, ib = np.minimum(ia, ib), np.maximum(ia, ib)
        oa.append(ia)
        ob.append(ib)
        osc.append(sc)
    ia = np.concatenate(oa) if oa else np.empty(0, object)
    ib = np.concatenate(ob) if ob else np.empty(0, object)
    sc = np.concatenate(osc) if osc else np.empty(0, np.float64)
    return pa.table(
        {
            "id_a": pa.array(ia, id_type),
            "id_b": pa.array(ib, id_type),
            score_col: pa.array(sc, pa.float64()),
        }
    )


# Candidate sets at or below this size are scored INSIDE the candidate
# task (the whole query is then gather + 1 remote task + from_arrow):
# splitting out a parallel scoring stage costs ~2-3 s of fixed
# execution + per-worker prep, more than single-core scoring up to
# ~half a million pairs (~2 s). Bigger sets — corpora near the 20k-doc
# gate can emit millions of pairs — fan out over the CPU budget.
_FUSED_INLINE_PAIRS = 1 << 19


def _fused_emit_or_score(corpus, id_col, text_col, n, threshold, mode, id_type):
    """Remote body: emit deduped candidate row pairs; score inline when
    the set is small (returns ("scored", table)), else hand the pair
    table back for the parallel scoring stage (("pairs", table))."""
    prep = _ngram_prep(corpus, text_col, n)
    ri, rj = _fused_candidate_rows(corpus, text_col, n, threshold, mode, prep=prep)
    if len(ri) <= _FUSED_INLINE_PAIRS:
        return "scored", _fused_scored_table(
            corpus, prep, ri, rj, id_col, threshold, mode, id_type
        )
    return "pairs", pa.table({"ri": pa.array(ri), "rj": pa.array(rj)})


_fused_task_handle = None


def _fused_task():
    """Module-cached ray.remote handle (one function export per
    process, not one per query)."""
    global _fused_task_handle
    if _fused_task_handle is None:
        import ray

        _fused_task_handle = ray.remote(_fused_emit_or_score)
    return _fused_task_handle


def _ngram_pairs_fused(slim, id_col, text_col, n, threshold, id_type, mode="jaccard"):
    """Fused AllPairs + exact set-overlap verify for small corpora —
    ONE candidate task plus (only for large candidate sets) a PARALLEL
    scoring map, zero shuffles.

    The gated-small corpus is gathered once and broadcast via
    ``ray.put`` (the same small-side pattern as ``_pair_set_verify``'s
    ≤100k-doc branch); a single remote task emits the deduped
    candidate row pairs (``_fused_candidate_rows``); scoring fans out
    over the pair table with each worker deriving the shingle arrays
    from the broadcast corpus once (``_ngram_prep``, per-worker cache)
    — so scoring scales with CPUs even for corpora near the gate,
    where the candidate set can reach millions of pairs.
    ``mode="jaccard"`` emits unordered pairs scored |A∩B|/|A∪B|;
    ``mode="containment"`` prefixes only the contained side, pairs
    each contained doc with every same-anchor container of size
    ≥ t·|A|, and scores |A∩B|/|A| (ordered pairs, both directions
    possible). Tests force both paths on one corpus and assert
    equality (tests/test_pipeline.py::
    test_ngram_fused_matches_distributed,
    test_containment_fused_matches_distributed)."""
    import ray
    import ray.data as rd

    score_col = "jaccard" if mode == "jaccard" else "containment"
    empty = pa.table(
        {
            "id_a": pa.array([], id_type),
            "id_b": pa.array([], id_type),
            score_col: pa.array([], pa.float64()),
        }
    )
    tbl = pa.concat_tables(
        list(slim.iter_batches(batch_size=None, batch_format="pyarrow"))
    ).combine_chunks()
    if len(tbl) == 0:
        return rd.from_arrow(empty)
    corpus_ref = ray.put(tbl)

    # one remote candidate task (Ray auto-derefs corpus_ref into the
    # zero-copy table); small candidate sets come back fully scored,
    # large ones as a slim row-pair table (16 B/pair) for the fan-out
    kind, out_tbl = ray.get(
        _fused_task().remote(corpus_ref, id_col, text_col, n, threshold, mode, id_type)
    )
    if kind == "scored":
        return rd.from_arrow(out_tbl if len(out_tbl) else empty)

    def score_batch(b: pa.Table) -> pa.Table:
        t = _cached_object(corpus_ref)
        pkey = corpus_ref.hex() + f":ngprep:{n}"
        prep = _worker_obj_cache.get(pkey)
        if prep is None:
            prep = _ngram_prep(t, text_col, n)
            _worker_obj_cache[pkey] = prep
        bri = b.column("ri").to_numpy(zero_copy_only=False)
        brj = b.column("rj").to_numpy(zero_copy_only=False)
        return _fused_scored_table(t, prep, bri, brj, id_col, threshold, mode, id_type)

    # split the pair table so scoring parallelizes (~32k pairs/task);
    # from_arrow yields ONE block and map_batches never splits a block
    from raydedup.stages.grouped import effective_partitions

    parts = min(effective_partitions(1 << 30), max(1, len(out_tbl) // (1 << 15)))
    pairs_ds = rd.from_arrow(out_tbl)
    if parts > 1:
        pairs_ds = pairs_ds.repartition(parts)
    return pairs_ds.map_batches(score_batch, batch_size=None, batch_format="pyarrow")


def _allpairs_window_pairs_loop(ids, szs, rems, starts, ends, threshold):
    """Scalar reference for ``_allpairs_window_pairs`` (pinned by
    tests/test_text.py) — one argsort + searchsorted per anchor run."""
    tt = threshold / (1.0 + threshold)
    a_out, b_out = [], []
    for s, e in zip(starts, ends):
        if e - s < 2:
            continue
        rid, rsz, rrem = ids[s:e], szs[s:e], rems[s:e]
        o = np.argsort(rsz, kind="stable")
        rid, rsz, rrem = rid[o], rsz[o], rrem[o]
        hi = np.searchsorted(rsz, rsz / threshold + 1e-9, side="right")
        cnt = np.maximum(hi - np.arange(len(rsz)) - 1, 0)
        total = int(cnt.sum())
        if not total:
            continue
        ai = np.repeat(np.arange(len(rsz)), cnt)
        bj = np.arange(total) - np.repeat(np.cumsum(cnt) - cnt, cnt) + ai + 1
        ub = np.minimum(rrem[ai], rrem[bj])
        ok = ub >= tt * (rsz[ai] + rsz[bj]) - 1e-9
        pa_, pb_ = rid[ai[ok]], rid[bj[ok]]
        ne = pa_ != pb_
        a_out.append(np.minimum(pa_[ne], pb_[ne]))
        b_out.append(np.maximum(pa_[ne], pb_[ne]))
    if a_out:
        return np.concatenate(a_out), np.concatenate(b_out)
    return None, None


def _allpairs_window_pairs(id_arr, szs, rems, starts, ends, threshold):
    """AllPairs candidate emission, vectorized across EVERY anchor run
    of a block at once.

    Semantics (identical to the scalar reference): each run is sorted
    by set size; doc i pairs with the contiguous window of later docs
    whose size ≤ sz[i]/t (LENGTH filter: J(A,B) ≥ t ⇒ min ≥ t·max),
    then the PPJoin positional bound prunes emissions whose in-row
    tails can't reach the equivalent-overlap threshold (lossless — see
    ``_fused_candidate_rows``).

    Vectorization notes:
    - ids are Arrow-dictionary-encoded ONCE per block and re-ranked to
      value order, so the min/max pair canonicalization runs on int64
      codes (the scalar path paid a Python object compare per candidate
      for string ids).
    - the per-run ``searchsorted`` becomes ONE merge: data sizes and
      query values (sz/t + ε) interleave in a single lexsort keyed
      (run, value, data-before-query); a query's within-run position
      minus its query rank IS its side='right' insertion point. Pure
      float comparisons — bit-identical boundary behavior to the scalar
      path (the ε guard from the r4 prefix-length bugfix is preserved,
      unlike a run-offset composite-key trick which would absorb it).

    Returns (id_a, id_b) Arrow arrays (already min/max-canonicalized)
    or (None, None).
    """
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    multi = (ends - starts) >= 2
    starts, ends = starts[multi], ends[multi]
    if len(starts) == 0:
        return None, None
    if isinstance(id_arr, pa.ChunkedArray):
        id_arr = id_arr.combine_chunks()
    enc = id_arr.dictionary_encode()
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    od = pc.sort_indices(enc.dictionary).to_numpy(zero_copy_only=False).astype(np.int64)
    rank = np.empty(len(od), np.int64)
    rank[od] = np.arange(len(od), dtype=np.int64)
    vdict = enc.dictionary.take(pa.array(od))

    rsz_runs = ends - starts
    tot = int(rsz_runs.sum())
    rpre = np.cumsum(rsz_runs) - rsz_runs
    flat = np.arange(tot, dtype=np.int64) - np.repeat(rpre, rsz_runs) + np.repeat(starts, rsz_runs)
    run_of = np.repeat(np.arange(len(starts), dtype=np.int64), rsz_runs)
    o = np.lexsort((szs[flat], run_of))  # run-major, size-ascending
    s_ = szs[flat][o]
    rem_ = rems[flat][o]
    c_ = rank[codes[flat]][o]
    r_ = run_of[o]
    pos_within = np.arange(tot, dtype=np.int64) - rpre[r_]

    # merged searchsorted: data (tag 0) before equal queries (tag 1)
    # reproduces side='right'; stable lexsort keeps equal queries in
    # element order, so the k-th query of a run belongs to element k
    w = np.concatenate((s_, s_ / threshold + 1e-9))
    tag = np.concatenate((np.zeros(tot, np.int8), np.ones(tot, np.int8)))
    rn = np.concatenate((r_, r_))
    ord2 = np.lexsort((tag, w, rn))
    pos2 = np.arange(2 * tot, dtype=np.int64) - 2 * rpre[rn[ord2]]
    qsel = ord2 >= tot
    el = ord2[qsel] - tot  # flat (sorted-order) element of each query
    hi = np.empty(tot, dtype=np.int64)
    hi[el] = pos2[qsel] - pos_within[el]  # data rows before the query

    cnt = np.maximum(hi - pos_within - 1, 0)
    total = int(cnt.sum())
    if not total:
        return None, None
    ai = np.repeat(np.arange(tot, dtype=np.int64), cnt)
    bj = np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(cnt) - cnt, cnt) + ai + 1
    tt = threshold / (1.0 + threshold)  # J ≥ t ⟺ |A∩B| ≥ tt·(|A|+|B|)
    ub = np.minimum(rem_[ai], rem_[bj])
    ok = ub >= tt * (s_[ai] + s_[bj]) - 1e-9
    ca, cb = c_[ai[ok]], c_[bj[ok]]
    ne = ca != cb  # defensive: never emit a self-pair
    ca, cb = ca[ne], cb[ne]
    if not len(ca):
        return None, None
    return (
        vdict.take(pa.array(np.minimum(ca, cb))),
        vdict.take(pa.array(np.maximum(ca, cb))),
    )


def ngram_jaccard_pairs(
    ds,
    id_col: str,
    text_col: str,
    n: int = 3,
    threshold: float = 0.5,
    num_partitions: int | None = None,
    broadcast_limit_rows: int = 100_000,
):
    """EXACT n-gram-Jaccard near-dup pairs via prefix filtering
    (AllPairs / PPJoin, Bayardo et al. WWW'07): order each doc's shingle
    set by ascending global document frequency; any pair with J ≥ t
    must share a shingle within the first ``floor(len*(1-t)) + 1``
    shingles of that order.

    Scale shape (round-2 redesign): the global DF order comes from a
    FIXED-size count-min sketch aggregated across blocks and broadcast
    once (raydedup.cms — replaces the driver-materialized DF dict,
    which was O(|distinct shingles|)); prefix rows carry only
    (anchor: uint64, id) — 16 bytes, no shingle-set payload; exact
    Jaccard is verified AFTER candidate dedupe by joining each doc's
    packed shingle-hash set once per side (``_pair_set_verify``).
    Returns (id_a, id_b, jaccard) with id_a < id_b.
    """
    import ray

    from raydedup.cms import CountMinSketch, build_df_sketch
    from raydedup.stages.grouped import auto_partitions, map_key_runs
    from raydedup.suffix import flat_ngram_hashes64, unique_per_row

    slim = ds.select_columns([id_col, text_col])
    sch = ds.schema()
    if sch is None:  # empty dataset reports no schema
        import ray.data as rd

        return rd.from_arrow(
            pa.table(
                {
                    "id_a": pa.array([], pa.string()),
                    "id_b": pa.array([], pa.string()),
                    "jaccard": pa.array([], pa.float64()),
                }
            )
        )
    id_type = sch.base_schema.field(id_col).type
    from raydedup.stages.grouped import meta_count as _mc

    n_docs_meta = _mc(ds)
    if n_docs_meta is not None and 0 < n_docs_meta <= NGRAM_FUSED_DOCS:
        # metadata-provably-small corpus: one fused map task, no
        # shuffles (see NGRAM_FUSED_DOCS). The 0-row case stays on the
        # distributed path — Ray skips map UDFs on empty blocks, so the
        # fused task could never fix the schema of an empty corpus.
        return _ngram_pairs_fused(slim, id_col, text_col, n, threshold, id_type)
    if num_partitions is None:
        # size from ds, not the select_columns projection: a projection
        # has lineage, so its _meta_count is None and auto_partitions
        # would fall back to the CPU cap — a 32-partition shuffle for a
        # 5k-doc corpus cost ~4s of hash-shuffle aggregator spawn (r04
        # fix; this was the r03 ngram_jaccard regression)
        num_partitions = auto_partitions(ds)

    cms_counts = build_df_sketch(slim, text_col, n)
    cms_ref = ray.put(cms_counts)

    def prefix_explode(batch: pa.Table) -> pa.Table:
        # one vectorized pass for the whole batch: flat window hashes →
        # per-row distinct → one CMS estimate call → one global lexsort
        # by (row, df, hash) → keep each row's first ⌊len·(1-t)⌋+1
        cms = CountMinSketch(counts=ray.get(cms_ref))
        cnt, w = flat_ngram_hashes64(batch.column(text_col), n)
        ucnt, hs = unique_per_row(cnt, w)
        if len(hs) == 0:
            return pa.table(
                {
                    id_col: pa.array([], id_type),
                    "anchor": pa.array([], pa.uint64()),
                    "sz": pa.array([], pa.uint32()),
                    "rem": pa.array([], pa.uint32()),
                }
            )
        rid = np.repeat(np.arange(len(ucnt), dtype=np.int64), ucnt)
        df = cms.estimate(hs)
        order = np.lexsort((hs, df, rid))  # per row: rare-first, hash tie-break
        pos = np.arange(len(hs), dtype=np.int64) - np.repeat(
            np.cumsum(ucnt) - ucnt, ucnt
        )
        # prefix length = A - ceil(t*A) + 1 (a pair at threshold shares
        # >=ceil(t*A) shingles, so at most A-ceil(t*A) leading shingles
        # are unshared). Computed via ceil with an epsilon guard:
        # floor(A*(1-t))+1 underflows in binary floating point (e.g.
        # 15*0.2 -> 2.999... -> prefix 3 where 4 is required, dropping
        # a pair at exactly t=0.8 -- caught by the brute-force
        # conformance test at both thresholds).
        plen = ucnt - np.ceil(threshold * ucnt - 1e-9).astype(np.int64) + 1
        mask = pos < plen[rid[order]]
        keep = order[mask]
        return pa.table(
            {
                id_col: batch.column(id_col).take(pa.array(rid[keep])),
                "anchor": pa.array(hs[keep], pa.uint64()),
                # set size rides along (4 B/row) for the length filter
                "sz": pa.array(ucnt[rid[keep]].astype(np.uint32)),
                # shingles at/after this anchor in the row's DF order
                # (4 B/row) — the PPJoin positional bound (see
                # _fused_candidate_rows for the losslessness argument)
                "rem": pa.array((ucnt[rid[keep]] - pos[mask]).astype(np.uint32)),
            }
        )

    exploded = slim.map_batches(prefix_explode, batch_format="pyarrow")

    def pairs_in_runs(block: pa.Table, starts, ends) -> pa.Table:
        a, b = _allpairs_window_pairs(
            block.column(id_col),
            block.column("sz").to_numpy(zero_copy_only=False).astype(np.float64),
            block.column("rem").to_numpy(zero_copy_only=False).astype(np.float64),
            starts,
            ends,
            threshold,
        )
        if a is None:
            return pa.table(
                {"id_a": pa.array([], id_type), "id_b": pa.array([], id_type)}
            )
        return pa.table({"id_a": a, "id_b": b})

    from raydedup.stages.grouped import staged

    # pin the candidate table: the anchor shuffle and the verify-side
    # dedupe shuffle must not be live in one plan (two concurrent keyed
    # shuffles ran ~2× slower); measured 10 s → 4.5 s on the sf0.1 query
    pairs = staged(map_key_runs(exploded, "anchor", pairs_in_runs, num_partitions))

    def jaccard(inter: np.ndarray, la: np.ndarray, lb: np.ndarray) -> np.ndarray:
        # vectorized over a candidate batch (see _pair_set_verify);
        # same scalar double division as the SQL oracle per pair
        union = la + lb - inter
        return np.where(union > 0, inter / np.maximum(union, 1.0), 0.0)

    from raydedup.stages.grouped import meta_count

    return _pair_set_verify(
        pairs, slim, id_col, text_col, n, num_partitions, "jaccard", jaccard,
        threshold, broadcast_limit_rows=broadcast_limit_rows,
        n_docs=meta_count(ds),
    )


# ------------------------------------------- exact embedding cosine near-dups
def embedding_near_dup_exact(ds, threshold: float, id_col: str = "vec_id", emb_col: str = "embedding"):
    """EXACT cosine near-dup pairs by broadcasting the (normalized)
    embedding matrix once and scanning batches against it — the
    small-side-broadcast pattern. Right-sized for corpora whose
    embedding matrix fits a worker (~10^6 × 64 floats = 0.5 GB);
    beyond that use stages.ann.embedding_near_dup_pairs (LSH-bucketed).
    Returns (id_a, id_b) with id_a < id_b."""
    import ray
    from raydedup.stages.ann import _emb_matrix, _normalize

    rows = ds.select_columns([id_col, emb_col]).take_all()
    all_ids = np.array([r[id_col] for r in rows])
    mat = _normalize(np.array([r[emb_col] for r in rows], dtype=np.float64))
    ref = ray.put((all_ids, mat))

    def scan(batch: pa.Table) -> pa.Table:
        ids_all, m_all = ray.get(ref)
        m = _normalize(_emb_matrix(batch, emb_col))
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        cos = m @ m_all.T
        keep = cos >= threshold
        a_idx, b_idx = np.nonzero(keep)
        ia, ib = ids[a_idx], ids_all[b_idx]
        mask = ia < ib  # strict order also drops self-pairs
        return pa.table({"id_a": pa.array(ia[mask]), "id_b": pa.array(ib[mask])})

    return ds.select_columns([id_col, emb_col]).map_batches(scan, batch_format="pyarrow", batch_size=2048)


def embedding_near_dup(
    ds,
    threshold: float,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    broadcast_limit_rows: int | None = None,
    max_exact_flops: float = 1e12,
    bits: int = 6,
):
    """Auto-select the embedding near-dup strategy (the same pattern as
    ``_pair_set_verify``'s broadcast switch): the EXACT broadcast scan
    while the O(n²·dim) scan stays under ``max_exact_flops`` (r04,
    VERDICT r03 wrong-#5 — a flat 1M-row ceiling allowed ~6×10¹³ flops
    at 64-dim; 1e12 flops ⇒ ~125k rows at 64-dim, ~45k at 512-dim);
    above it the LSH-bucketed scale path. ``broadcast_limit_rows``
    overrides the flop cap when set explicitly. No unconditional
    ``take_all()`` reachable from the query surface (VERDICT r02
    wrong-#2). Returns (id_a, id_b) with id_a < id_b either way."""
    n = ds.count()
    if broadcast_limit_rows is None:
        try:
            f = ds.schema().base_schema.field(emb_col).type
            dim = f.list_size if pa.types.is_fixed_size_list(f) else None
        except Exception:  # pragma: no cover
            dim = None
        if dim is None:  # variable-size list: peek one row
            rows = ds.select_columns([emb_col]).take(1)
            dim = len(rows[0][emb_col]) if rows else 1
        broadcast_limit_rows = int((max_exact_flops / max(dim, 1)) ** 0.5)
    if n <= broadcast_limit_rows:
        return embedding_near_dup_exact(ds, threshold, id_col=id_col, emb_col=emb_col)
    from raydedup.stages.ann import embedding_near_dup_pairs

    pairs = embedding_near_dup_pairs(
        ds, threshold=threshold, id_col=id_col, emb_col=emb_col, bits=bits
    )
    return pairs.map_batches(
        lambda t: t.select(["id_a", "id_b"]), batch_format="pyarrow"
    )


# ------------------------------------------------ index maintenance ops
def remove_ids(ds, ids_to_remove, id_col: str):
    """Deletion (reference ``MinHashLSH.remove``, ``lsh.py:497-528``):
    here an anti-join — broadcast the removal id set once, filter every
    table (signature/band/pair) that carries the id. Removing from a
    table-shaped index never mutates shared state."""
    import ray

    ref = ray.put(pa.array(sorted(set(ids_to_remove))))

    def drop(batch: pa.Table) -> pa.Table:
        gone = ray.get(ref)
        return batch.filter(
            pc.invert(pc.is_in(batch.column(id_col), value_set=gone))
        )

    return ds.map_batches(drop, batch_format="pyarrow")

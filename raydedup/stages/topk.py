"""Top-k similarity search and containment search over signature tables.

Re-expresses the reference's two query-time indexes Ray-Data-first:

- ``MinHashLSHForest`` top-k (``lshforest.py:74-128``) — TWO paths:
  (a) ``topk_similar``: broadcast the query signatures once, scan the
  signature table with a vectorized slot-equality estimate per batch,
  keep per-batch top-k, merge globally — exact top-k under the MinHash
  estimate (a strict superset of the forest's prefix recall), one
  pass, no index build; (b) ``forest_prefix_table``/``forest_topk``:
  the reference's actual index shape — a build-once prefix TABLE
  (l trees × k depths) probed by a keyed join and ranked by deepest
  matching prefix, for repeated queries over a large corpus.
- ``MinHashLSHEnsemble`` containment (``lshensemble.py:137-249``):
  size-partitioned banded LSH with per-partition (b, r) tuned to the
  containment threshold (integrals ``lshensemble.py:17-58``). Here the
  partitions are log-size ranges of the *container* side; each
  partition band-explodes with its own (b, r) and queries probe every
  partition with the matching prefix bands — the same groupby-shuffle
  machinery as plain LSH. An exact prefix-filtered containment join
  (AllPairs-style) is provided for SQL-checkable semantics.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pyarrow as pa

from raydedup.params import _integrate


# ----------------------------------------------------- forest-style top-k
def topk_similar(sig_ds, query_sigs: np.ndarray, query_ids, k: int = 10, id_col: str = "image_id", num_perm: int = 128):
    """Top-k rows by estimated Jaccard against each query signature.

    Returns a Dataset (query_id, {id_col}, jaccard), k rows per query,
    ties broken by id. Self-matches are kept (callers filter)."""
    import ray

    from raydedup.schema import sig_to_numpy
    q = np.ascontiguousarray(query_sigs, dtype=np.uint64)
    qref = ray.put((q, list(query_ids)))

    def score(batch: pa.Table) -> pa.Table:
        qm, qids = ray.get(qref)
        sig = sig_to_numpy(batch.column("minhash"), num_perm)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        out_q, out_id, out_j = [], [], []
        kk = min(k, len(ids))
        for qi in range(qm.shape[0]):
            est = np.mean(sig == qm[qi], axis=1)
            # deterministic per-batch tie-break (est desc, id asc): an
            # argpartition could drop a tying id that wins globally
            top = np.lexsort((ids, -est))[:kk]
            out_q.extend([qids[qi]] * len(top))
            out_id.extend(ids[top].tolist())
            out_j.extend(est[top].tolist())
        return pa.table(
            {
                "query_id": pa.array(out_q),
                id_col: pa.array(out_id),
                "jaccard": pa.array(out_j, pa.float64()),
            }
        )

    scored = sig_ds.map_batches(score, batch_format="pyarrow", batch_size=8192)

    def merge(group: pa.Table) -> pa.Table:
        j = group.column("jaccard").to_numpy(zero_copy_only=False)
        ids = group.column(id_col).to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, -j))[: min(k, len(j))]
        return group.take(pa.array(order))

    from raydedup.stages.grouped import merge_key_groups

    return merge_key_groups(scored, "query_id", merge)


# ------------------------------------------------- forest prefix index
def _forest_prefix_buckets(tree: np.ndarray, t: int, r: int) -> np.ndarray:
    """Bucket ids of the depth-``r`` prefixes of tree ``t`` (rows of
    ``tree`` are the tree's ``k`` signature slots), salted by (t, r)."""
    from raydedup.stages.bands import fold_band_buckets

    h = fold_band_buckets(tree[:, :r], 1, r)
    with np.errstate(over="ignore"):  # intentional uint64 wraparound
        h ^= (np.uint64(t * 1315423911) ^ np.uint64(r * 2654435761)) * np.uint64(0x100000001B3)
    return h


def forest_prefix_table(sig_ds, id_col: str = "image_id", l: int = 8, k: int = 16, num_perm: int = 128, num_partitions: int | None = None):
    """The MinHashLSHForest index re-expressed as a TABLE (reference
    ``lshforest.py:30-72``): ``l`` prefix trees over ``k`` consecutive
    slots each; every (tree, depth r ∈ 1..k) prefix becomes one slim
    (bucket: uint64, id) row, where bucket folds (tree, r, slot prefix).
    Build once (stage/write the result), probe many times with
    :func:`forest_topk` — the indexed path for repeated top-k queries
    that the exact-scan :func:`topk_similar` does not provide."""
    from raydedup.schema import sig_to_numpy
    from raydedup.stages.grouped import auto_partitions, staged

    if l * k > num_perm:
        raise ValueError("l*k must be ≤ num_perm")

    def explode(batch: pa.Table) -> pa.Table:
        sig = sig_to_numpy(batch.column("minhash"), num_perm)
        ids = batch.column(id_col)
        n = len(batch)
        out_id, out_bucket = [], []
        for t in range(l):
            tree = sig[:, t * k : (t + 1) * k]
            for r in range(1, k + 1):
                h = _forest_prefix_buckets(tree, t, r)
                out_id.append(ids)
                out_bucket.append(h)
        def _cat(chunks):
            arrs = []
            for c in chunks:
                if isinstance(c, pa.ChunkedArray):
                    arrs.extend(c.chunks)
                else:
                    arrs.append(c)
            return pa.concat_arrays(arrs)

        return pa.table(
            {
                id_col: _cat(out_id),
                "bucket": pa.array(np.concatenate(out_bucket), pa.uint64()),
            }
        )

    return sig_ds.map_batches(explode, batch_format="pyarrow")


def forest_topk(prefix_ds, query_sigs: np.ndarray, query_ids, topk: int = 10, id_col: str = "image_id", l: int = 8, k: int = 16, num_partitions: int | None = None):
    """Probe the forest prefix table: query prefixes join index rows on
    the bucket key; candidates are ranked by their DEEPEST matching
    prefix (reference ``lshforest.py:121-128`` descends r = k..1 and
    stops at ~k results — ranking by max depth is the same preference
    order, made deterministic with an id tie-break). Returns a Dataset
    (query_id, {id_col}) of ≤ topk rows per query."""
    import ray

    from raydedup.stages.grouped import auto_partitions, map_key_runs, staged

    if num_partitions is None:
        num_partitions = auto_partitions(prefix_ds)
    q = np.ascontiguousarray(query_sigs, dtype=np.uint64)
    qids = list(query_ids)
    id_type = prefix_ds.schema().base_schema.field(id_col).type

    # query prefix rows (tiny: |Q|·l·k) — built driver-side, shipped once
    rows_q, rows_b, rows_r = [], [], []
    for qi in range(q.shape[0]):
        for t in range(l):
            tree = q[qi : qi + 1, t * k : (t + 1) * k]
            for r in range(1, k + 1):
                h = _forest_prefix_buckets(tree, t, r)
                rows_q.append(qids[qi])
                rows_b.append(int(h[0]))
                rows_r.append(r)
    import ray.data as rd

    qtable = pa.table(
        {
            "qid": pa.array(rows_q),
            "bucket": pa.array(rows_b, pa.uint64()),
            "r": pa.array(rows_r, pa.int8()),
            id_col: pa.array([None] * len(rows_q), id_type),
        }
    )

    def tag_index(batch: pa.Table) -> pa.Table:
        n = len(batch)
        return pa.table(
            {
                "qid": pa.array([None] * n, qtable.column("qid").type),
                "bucket": batch.column("bucket"),
                "r": pa.array(np.zeros(n, np.int8)),
                id_col: batch.column(id_col),
            }
        )

    joined = rd.from_arrow(qtable).union(
        prefix_ds.map_batches(tag_index, batch_format="pyarrow")
    )

    def emit(block: pa.Table, starts, ends) -> pa.Table:
        qcol = block.column("qid").to_pylist()
        icol = block.column(id_col).to_pylist()
        rr = block.column("r").to_numpy(zero_copy_only=False)
        o_q, o_c, o_r = [], [], []
        for s, e in zip(starts, ends):
            qs = [(qcol[i], rr[i]) for i in range(s, e) if qcol[i] is not None]
            if not qs:
                continue
            cands = {icol[i] for i in range(s, e) if icol[i] is not None}
            for qv, rv in qs:
                for c in cands:
                    o_q.append(qv)
                    o_c.append(c)
                    o_r.append(rv)
        return pa.table(
            {
                "qid": pa.array(o_q),
                id_col: pa.array(o_c, id_type),
                "r": pa.array(o_r, pa.int8()),
            }
        )

    matches = staged(map_key_runs(joined, "bucket", emit, num_partitions))

    def rank(block: pa.Table, starts, ends) -> pa.Table:
        qcol = block.column("qid").to_pylist()
        icol = block.column(id_col).to_pylist()
        rr = block.column("r").to_numpy(zero_copy_only=False)
        o_q, o_c = [], []
        for s, e in zip(starts, ends):
            best: dict = {}
            for i in range(s, e):
                c = icol[i]
                if best.get(c, 0) < rr[i]:
                    best[c] = rr[i]
            top = sorted(best.items(), key=lambda t: (-t[1], t[0]))[:topk]
            o_q.extend([qcol[s]] * len(top))
            o_c.extend(c for c, _ in top)
        return pa.table({"query_id": pa.array(o_q), id_col: pa.array(o_c, id_type)})

    return map_key_runs(matches, "qid", rank, num_partitions, min_run=1)


# -------------------------------------------- exact containment (AllPairs)
def containment_pairs_exact(
    ds,
    id_col: str,
    text_col: str,
    n: int = 3,
    threshold: float = 0.5,
    num_partitions: int | None = None,
    broadcast_limit_rows: int = 100_000,
):
    """EXACT pairs with shingle containment |A∩B|/|A| ≥ threshold.

    Prefix filter on the contained side only (containment is
    asymmetric): A must share one of its ⌊|A|(1−t)⌋+1 rarest shingles
    with B, while B contributes every shingle. Same scale shape as
    ``ngram_jaccard_pairs``: count-min-sketch DF order (broadcast,
    fixed size), slim (anchor: uint64, id, role) inverted-index rows,
    and set verification AFTER candidate dedupe via the packed-blob
    pair join (stages/dedup._pair_set_verify). Returns (id_a=contained,
    id_b=container, containment)."""
    import ray

    from raydedup.cms import CountMinSketch, build_df_sketch
    from raydedup.hashing import hash_bytes64, word_ngram_shingles
    from raydedup.stages.dedup import _pair_set_verify
    from raydedup.stages.grouped import auto_partitions, map_key_runs

    slim = ds.select_columns([id_col, text_col])
    id_type = ds.schema().base_schema.field(id_col).type
    from raydedup.stages.dedup import NGRAM_FUSED_DOCS, _ngram_pairs_fused
    from raydedup.stages.grouped import meta_count as _mc

    n_docs_meta = _mc(ds)
    if n_docs_meta is not None and 0 < n_docs_meta <= NGRAM_FUSED_DOCS:
        # metadata-provably-small corpus: one fused map task, no
        # shuffles (see stages/dedup.NGRAM_FUSED_DOCS — same gate and
        # kernels as the n-gram Jaccard fused path, asymmetric mode)
        return _ngram_pairs_fused(
            slim, id_col, text_col, n, threshold, id_type, mode="containment"
        )
    if num_partitions is None:
        # size from ds, not the projection — a select_columns has no
        # _meta_count, which silently falls back to the CPU cap (r04)
        num_partitions = auto_partitions(ds)

    cms_counts = build_df_sketch(slim, text_col, n)
    cms_ref = ray.put(cms_counts)

    def explode_roles(batch: pa.Table) -> pa.Table:
        # vectorized (r04; was a per-doc Python shingle loop) — and in
        # the SAME xxhash64-window space as build_df_sketch and the
        # verify blobs: the old hash_bytes64 anchors queried the CMS in
        # a different hash space, so the "rare-first" prefix order was
        # noise and the candidate set ballooned (correctness was safe —
        # any consistent order keeps AllPairs lossless — but slow)
        from raydedup.suffix import flat_ngram_hashes64, unique_per_row

        cms = CountMinSketch(counts=ray.get(cms_ref))
        cnt, w = flat_ngram_hashes64(batch.column(text_col), n)
        ucnt, hs = unique_per_row(cnt, w)
        if len(hs) == 0:
            return pa.table(
                {
                    id_col: pa.array([], id_type),
                    "anchor": pa.array([], pa.uint64()),
                    "role": pa.array([], pa.int8()),
                    "sz": pa.array([], pa.uint32()),
                    "rem": pa.array([], pa.uint32()),
                }
            )
        rid = np.repeat(np.arange(len(ucnt), dtype=np.int64), ucnt)
        df = cms.estimate(hs)
        order = np.lexsort((hs, df, rid))  # per row: rare-first
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
        pre = order[mask]  # contained-side prefix rows
        idx = np.concatenate([rid[pre], rid])  # container side: ALL rows
        # in-row DF-order position of every flat entry → "shingles at or
        # after this anchor" (PPJoin positional bound; see
        # stages/dedup._fused_candidate_rows for losslessness)
        dfpos = np.empty(len(hs), np.int64)
        dfpos[order] = pos
        rem = np.concatenate([ucnt[rid[pre]] - pos[mask], ucnt[rid] - dfpos])
        return pa.table(
            {
                id_col: batch.column(id_col).take(pa.array(idx)),
                "anchor": pa.array(np.concatenate([hs[pre], hs]), pa.uint64()),
                "role": pa.array(
                    np.concatenate(
                        [np.zeros(len(pre), np.int8), np.ones(len(hs), np.int8)]
                    )
                ),
                "sz": pa.array(ucnt[idx].astype(np.uint32)),
                "rem": pa.array(rem.astype(np.uint32)),
            }
        )

    exploded = slim.map_batches(explode_roles, batch_format="pyarrow")

    def per_runs(block: pa.Table, starts, ends) -> pa.Table:
        # containment LENGTH filter: C(A,B) ≥ t ⇒ |B| ≥ t·|A| (since
        # |A∩B| ≤ |B|). Containers in each anchor run are sorted by set
        # size; each contained doc pairs only with the tail of
        # qualifying sizes — same windowing as the ngram AllPairs kernel.
        roles = block.column("role").to_numpy(zero_copy_only=False)
        ids = block.column(id_col).to_numpy(zero_copy_only=False)
        szs = block.column("sz").to_numpy(zero_copy_only=False).astype(np.float64)
        rems = block.column("rem").to_numpy(zero_copy_only=False).astype(np.float64)
        out_a, out_b = [], []
        for s, e in zip(starts, ends):
            rr = roles[s:e]
            qm = rr == 0
            if not qm.any() or qm.all():
                continue
            qid, qsz = ids[s:e][qm], szs[s:e][qm]
            qrem = rems[s:e][qm]
            cid, csz = ids[s:e][~qm], szs[s:e][~qm]
            crem = rems[s:e][~qm]
            o = np.argsort(csz, kind="stable")
            cid, csz, crem = cid[o], csz[o], crem[o]
            lo = np.searchsorted(csz, qsz * threshold - 1e-9, side="left")
            cnt = len(cid) - lo
            total = int(cnt.sum())
            if not total:
                continue
            ai = np.repeat(np.arange(len(qid)), cnt)
            bj = np.arange(total, dtype=np.int64) - np.repeat(
                np.cumsum(cnt) - cnt, cnt
            ) + lo[ai]
            # PPJoin positional bound: C(A,B) ≥ t ⟺ |A∩B| ≥ t·|A|
            # (lossless — see stages/dedup._fused_candidate_rows)
            ub = np.minimum(qrem[ai], crem[bj])
            ok = ub >= threshold * qsz[ai] - 1e-9
            a, b = qid[ai[ok]], cid[bj[ok]]
            ne = a != b
            out_a.append(a[ne])
            out_b.append(b[ne])
        if out_a:
            a, b = np.concatenate(out_a), np.concatenate(out_b)
        else:
            a = b = []
        return pa.table({"id_a": pa.array(a, id_type), "id_b": pa.array(b, id_type)})

    pairs = map_key_runs(exploded, "anchor", per_runs, num_partitions)

    def containment(inter: np.ndarray, la: np.ndarray, lb: np.ndarray) -> np.ndarray:
        # vectorized over a candidate batch (see _pair_set_verify)
        return np.where(la > 0, inter / np.maximum(la, 1.0), 0.0)

    from raydedup.stages.grouped import meta_count

    return _pair_set_verify(
        pairs, slim, id_col, text_col, n, num_partitions, "containment",
        containment, threshold, broadcast_limit_rows=broadcast_limit_rows,
        n_docs=meta_count(ds),
    )


# ---------------------------------------- LSH-Ensemble-style approximation
def _containment_fp(threshold, b, r, xq):
    f = lambda t: 1 - (1 - (t / (1 + xq - t)) ** float(r)) ** float(b)
    hi = threshold if xq >= threshold else xq
    return _integrate(f, 0.0, hi)


def _containment_fn(threshold, b, r, xq):
    f = lambda t: (1 - (t / (1 + xq - t)) ** float(r)) ** float(b)
    if xq >= 1.0:
        return _integrate(f, threshold, 1.0)
    if xq >= threshold:
        return _integrate(f, threshold, xq)
    return 0.0


@lru_cache(maxsize=None)
def optimal_containment_param(threshold: float, num_perm: int, max_r: int, xq: float, wfp: float = 0.5, wfn: float = 0.5):
    """(b, r) minimizing weighted containment FP/FN (reference
    ``lshensemble.py:41-58``), numpy quadrature instead of scipy."""
    best = (0, 0)
    min_err = float("inf")
    for b in range(1, num_perm + 1):
        for r in range(1, min(max_r, num_perm // b) + 1):
            err = wfp * _containment_fp(threshold, b, r, xq) + wfn * _containment_fn(threshold, b, r, xq)
            if err < min_err:
                min_err = err
                best = (b, r)
    return best


def optimal_partitions(sizes: np.ndarray, counts: np.ndarray, num_part: int):
    """Size-range partitions minimizing the total expected number of
    containment false positives (the LSH Ensemble partitioner —
    reference ``lshensemble_partition.py:95-196``, re-derived from the
    paper's recurrence, Zhu et al. VLDB'16 §4.2).

    Using a partition's upper bound u to approximate every member size
    s ∈ [l, u] inflates containment by (u − s)/u per set, so
    ``NFP(l, u) = Σ counts·(s_u − s_i)/s_u`` — computed here for ALL
    intervals at once from two prefix sums (the reference loops an
    O(S²) Python double loop). The DP then splits the domain into
    ``num_part`` contiguous intervals minimizing ΣNFP, vectorized with
    a numpy min per (p, u) subproblem. Returns [(lower, upper)] with
    inclusive bounds."""
    sizes = np.asarray(sizes, dtype=np.float64)
    counts = np.asarray(counts, dtype=np.float64)
    S = len(sizes)
    if num_part < 2 or S <= num_part:
        if num_part >= S:
            return [(int(x), int(x)) for x in sizes]
        return [(int(sizes[0]), int(sizes[-1]))]
    c_cum = np.concatenate(([0.0], np.cumsum(counts)))
    sc_cum = np.concatenate(([0.0], np.cumsum(sizes * counts)))
    # nfps[l, u] = ((C[u+1]-C[l])·s_u − (SC[u+1]-SC[l])) / s_u
    l_idx = np.arange(S)[:, None]
    u_idx = np.arange(S)[None, :]
    nfps = (
        (c_cum[u_idx + 1] - c_cum[l_idx]) * sizes[None, :]
        - (sc_cum[u_idx + 1] - sc_cum[l_idx])
    ) / sizes[None, :]
    nfps[l_idx > u_idx] = np.inf

    # cost[p][u]: min NFP splitting sizes[0..u] into p partitions
    cost = np.full((num_part + 1, S), np.inf)
    arg = np.zeros((num_part + 1, S), dtype=np.int64)
    cost[1] = nfps[0]
    for p in range(2, num_part + 1):
        for u in range(p - 1, S):
            # last partition starts at u1+1; previous p-1 cover 0..u1
            cand = cost[p - 1, p - 2 : u] + nfps[p - 1 : u + 1, u]
            k = int(np.argmin(cand))
            cost[p, u] = cand[k]
            arg[p, u] = k + (p - 2)
    bounds = []
    u = S - 1
    for p in range(num_part, 1, -1):
        u1 = arg[p, u]
        bounds.append((int(sizes[u1 + 1]), int(sizes[u])))
        u = u1
    bounds.append((int(sizes[0]), int(sizes[u])))
    return bounds[::-1]


_XQ_GRID = np.exp(np.linspace(-5, 5, 10))  # reference lshensemble.py:157


def ensemble_containment_candidates(
    sig_ds,
    id_col: str,
    size_col: str,
    threshold: float = 0.5,
    num_perm: int = 128,
    num_part: int = 4,
    max_r: int = 8,
    num_partitions: int | None = None,
    max_hist_bins: int = 2048,
    partitions: list | None = None,
):
    """Approximate containment candidate pairs (query ⊂ container), the
    full LSH Ensemble semantics (reference ``lshensemble.py:137-249``):

    - containers are split into ``num_part`` size ranges by the
      min-false-positive DP over the (distributed) size histogram;
    - each container is banded at EVERY distinct row count r drawn from
      the xq-grid parameter table (b, r) = argmin weighted FP/FN at
      xq = upper/size_q (``lshensemble.py:155-182``);
    - a query probes each partition with the FIRST b bands of the
      matching r-layout, b chosen per (partition upper, query size).

    The size histogram is a small groupby (|distinct sizes| rows,
    clamped to ``max_hist_bins`` by quantile bucketing); only slim
    (bucket, id, role) rows transit the candidate shuffle. Returns
    (id_a=query, id_b=container) candidates.

    ``partitions`` pins explicit ``(lower, upper)`` size ranges instead
    of running the DP — e.g. to mirror an existing reference index's
    layout. NOTE the reference's own partitioner backtracks with an
    off-by-one partition-count index (``lshensemble_partition.py:167``
    reads ``cost[u1, p2i(p)]`` where its forward recurrence at line 150
    defines the subproblem via ``cost[u1, p2i(p-1)]``), so its returned
    boundaries can be suboptimal under its own NFP objective; our DP is
    exhaustively optimal (property-tested), which is why defaults may
    legitimately differ from the reference at identical inputs
    (tests/test_sketches.py pins both behaviors)."""
    from ray.data.aggregate import Count

    from raydedup.schema import sig_to_numpy
    from raydedup.stages.bands import fold_band_buckets
    from raydedup.stages.grouped import auto_partitions, map_key_runs, unique_rows_partitioned

    if num_partitions is None:
        num_partitions = auto_partitions(sig_ds)

    if partitions is not None:
        parts = [(int(lo), int(up)) for lo, up in partitions]
    else:
        hist = (
            sig_ds.select_columns([size_col])
            .groupby(size_col)
            .aggregate(Count(alias_name="n"))
            .take_all()
        )
        hist = sorted((int(r[size_col]), int(r["n"])) for r in hist if r[size_col] > 0)
        if not hist:
            raise ValueError("no positive set sizes to index")
        if len(hist) > max_hist_bins:  # clamp the DP domain, keep counts exact
            sizes_all = np.array([s for s, _ in hist])
            counts_all = np.array([c for _, c in hist])
            edges = np.unique(
                np.quantile(np.repeat(sizes_all, counts_all), np.linspace(0, 1, max_hist_bins))
            ).astype(np.int64)
            idx = np.searchsorted(edges, sizes_all, side="left")
            merged: dict[int, int] = {}
            for i, c in zip(idx, counts_all):
                key = int(edges[min(i, len(edges) - 1)])
                merged[key] = merged.get(key, 0) + int(c)
            hist = sorted(merged.items())
        sizes = np.array([s for s, _ in hist], dtype=np.int64)
        counts = np.array([c for _, c in hist], dtype=np.int64)
        parts = optimal_partitions(sizes, counts, min(num_part, len(sizes)))

    # per-xq (b, r) table; containers index at every distinct r
    params = [
        optimal_containment_param(threshold, num_perm, max_r, float(xq)) for xq in _XQ_GRID
    ]
    rs = sorted({r for _, r in params if r >= 1})

    uppers = [u for (_, u) in parts]
    lowers = [l for (l, _) in parts]

    def _salt(pi: int, r: int) -> np.uint64:
        return (
            np.uint64(pi + 1) * np.uint64(0x9E3779B97F4A7C15)
            ^ np.uint64(r) * np.uint64(0xC2B2AE3D27D4EB4F)
        )

    def explode(batch: pa.Table) -> pa.Table:
        sig = sig_to_numpy(batch.column("minhash"), num_perm)
        ids = batch.column(id_col)
        szs = batch.column(size_col).to_numpy(zero_copy_only=False)
        n = len(batch)
        out_id, out_bucket, out_role = [], [], []
        # container rows: every r-layout, full band count, own partition
        part_of = np.full(n, -1, dtype=np.int64)
        for pi, (lo, up) in enumerate(parts):
            m = (szs >= lo) & (szs <= up)
            part_of[m] = pi
        # sizes above the top partition upper clamp into the last one
        part_of[(part_of == -1) & (szs > 0)] = len(parts) - 1
        for r in rs:
            b_full = num_perm // r
            buckets = fold_band_buckets(sig, b_full, r)
            for pi in range(len(parts)):
                rows = np.nonzero(part_of == pi)[0]
                if len(rows) == 0:
                    continue
                take = (rows[:, None] * b_full + np.arange(b_full)[None, :]).ravel()
                idx = np.repeat(rows, b_full)
                out_id.append(ids.take(pa.array(idx)))
                out_bucket.append(buckets[take] ^ _salt(pi, r))
                out_role.append(np.ones(len(idx), dtype=np.int8))
        # query rows: probe every partition with its (b, r); docs with
        # the same xq-grid cell share a layout → one vectorized fold per
        # (partition, param) group instead of a per-doc loop
        pos = szs > 0
        for pi in range(len(parts)):
            grid_i = np.searchsorted(
                _XQ_GRID, float(uppers[pi]) / np.maximum(szs.astype(np.float64), 1.0), side="left"
            )
            grid_i = np.minimum(grid_i, len(params) - 1)
            for gi in np.unique(grid_i[pos]):
                b, r = params[gi]
                if b < 1 or r < 1:
                    continue
                rows = np.nonzero(pos & (grid_i == gi))[0]
                b_full = num_perm // r
                buckets = fold_band_buckets(sig[rows], b_full, r).reshape(len(rows), b_full)[:, :b]
                idx = np.repeat(rows, b)
                out_id.append(ids.take(pa.array(idx)))
                out_bucket.append(buckets.ravel() ^ _salt(pi, r))
                out_role.append(np.zeros(len(idx), dtype=np.int8))
        def _cat(chunks):
            arrs = []
            for c in chunks:
                if isinstance(c, pa.ChunkedArray):
                    arrs.extend(c.chunks)
                else:
                    arrs.append(c)
            return pa.concat_arrays(arrs)

        return pa.table(
            {
                id_col: _cat(out_id),
                "bucket": pa.array(np.concatenate(out_bucket), pa.uint64()),
                "role": pa.array(np.concatenate(out_role), pa.int8()),
            }
        )

    exploded = sig_ds.map_batches(explode, batch_format="pyarrow")

    def per_runs(block: pa.Table, starts, ends) -> pa.Table:
        typ = block.column(id_col).type
        ids = block.column(id_col).to_numpy(zero_copy_only=False)
        roles = block.column("role").to_numpy(zero_copy_only=False)
        out_a, out_b = [], []
        for s, e in zip(starts, ends):
            rr = roles[s:e]
            run_ids = ids[s:e]
            qs = np.unique(run_ids[rr == 0])
            cs = np.unique(run_ids[rr == 1])
            if len(qs) == 0 or len(cs) == 0:
                continue
            a = np.repeat(qs, len(cs))
            b = np.tile(cs, len(qs))
            keep = a != b
            out_a.append(a[keep])
            out_b.append(b[keep])
        if out_a:
            a, b = np.concatenate(out_a), np.concatenate(out_b)
        else:
            a = b = []
        return pa.table({"id_a": pa.array(a, typ), "id_b": pa.array(b, typ)})

    from raydedup.stages.grouped import staged

    pairs = staged(map_key_runs(exploded, "bucket", per_runs, num_partitions))
    return unique_rows_partitioned(pairs, ["id_a", "id_b"], num_partitions)

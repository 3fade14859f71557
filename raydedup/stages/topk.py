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
from raydedup.stages.grouped import top_k_per_key


# ----------------------------------------------------- forest-style top-k
def topk_similar(sig_ds, query_sigs: np.ndarray, query_ids, k: int = 10, id_col: str = "image_id", num_perm: int = 128):
    """Top-k rows by estimated Jaccard against each query signature.

    Returns a Dataset (query_id, {id_col}, jaccard), k rows per query,
    ties broken by id. Self-matches are kept (callers filter)."""
    import ray

    from raydedup.schema import sig_to_numpy

    q = np.ascontiguousarray(query_sigs, dtype=np.uint64)
    qref = ray.put((q, pa.array(list(query_ids))))

    def score(batch: pa.Table) -> pa.Table:
        qm, qids = ray.get(qref)
        sig = sig_to_numpy(batch.column("minhash"), num_perm)
        est = np.mean(sig[:, None, :] == qm[None], axis=2)  # (rows, queries)
        return pa.table(
            {
                "query_id": qids.take(np.tile(np.arange(len(qids)), len(sig))),
                id_col: batch.column(id_col).take(np.repeat(np.arange(len(sig)), len(qids))),
                "jaccard": pa.array(est.ravel(), pa.float64()),
            }
        )

    scored = sig_ds.map_batches(score, batch_format="pyarrow", batch_size=8192)
    return top_k_per_key(scored, ["query_id"], [("jaccard", "descending"), (id_col, "ascending")], k)


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

    from raydedup.stages.grouped import auto_partitions, map_key_runs

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

    matches = map_key_runs(joined, "bucket", emit, num_partitions)

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
):
    """EXACT pairs with shingle containment |A∩B|/|A| ≥ threshold.

    Prefix filter on the contained side only (containment is
    asymmetric): A must share one of its ``|A| - ceil(t·|A|) + 1``
    rarest shingles with B, while B contributes every shingle. The same
    set join as ``ngram_jaccard_pairs`` in containment mode
    (stages/dedup._ngram_set_join): count-min-sketch DF order, slim
    (anchor: uint64, id, role) inverted-index rows, and set
    verification AFTER candidate dedupe. Returns (id_a=contained,
    id_b=container, containment)."""
    from raydedup.stages.dedup import _ngram_set_join

    return _ngram_set_join(ds, id_col, text_col, n, threshold, num_partitions, "containment")


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


def _salt(pi: int, r: int) -> np.uint64:
    """Bucket salt of size partition ``pi`` and band width ``r``: two
    64-bit products, wrapped on purpose, in Python ints (numpy scalar
    products warn on the wrap)."""
    return np.uint64(((pi + 1) * 0x9E3779B97F4A7C15 ^ r * 0xC2B2AE3D27D4EB4F) & 0xFFFFFFFFFFFFFFFF)


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

    The size histogram is one ``aggregate_per_key`` (|distinct sizes| rows,
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
    from raydedup.schema import sig_to_numpy
    from raydedup.stages.bands import fold_band_buckets
    from raydedup.stages.grouped import aggregate_per_key, auto_partitions, map_key_runs, unique_rows_partitioned

    if num_partitions is None:
        num_partitions = auto_partitions(sig_ds)

    if partitions is not None:
        parts = [(int(lo), int(up)) for lo, up in partitions]
    else:
        sizes_ds = sig_ds.select_columns([size_col])
        hist = aggregate_per_key(sizes_ds, [size_col], {"n": (size_col, "count")}).take_all()
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

    pairs = map_key_runs(exploded, "bucket", per_runs, num_partitions)
    return unique_rows_partitioned(pairs, ["id_a", "id_b"], num_partitions)

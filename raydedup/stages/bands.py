"""Banded LSH as a groupby shuffle: band explode → bucket partition → pairs.

The reference's ``MinHashLSH.insert`` appends keys into ``b`` mutable
hash tables (``datasketch/lsh.py:326-347``) and ``query`` unions bucket
members (``lsh.py:370-432``). Here the "index" is a table: each row
explodes into ``b`` MinHash band rows, plus SimHash bit-band rows and
one exact content-hash row (``fused_band_explode``); ONE range-partition
sort co-locates every bucket of all three kinds, and vectorized run
processing over sorted partitions replaces query-time lookups
(stages/grouped.py — a Python call per *partition*, not per bucket).

Scale design:
- the exploded table carries ONLY ``(id, bucket: uint64, aux, mode)``
  — the band's r×8-byte key is mixed down to one 64-bit value with a
  vectorized FNV-style fold (band_idx is mixed in so distinct bands
  never share a bucket). A 64-bit collision adds a false candidate pair
  with probability ~(n·b)²/2⁶⁴ — a handful at 10⁹ rows; candidates stay
  unfiltered, as the reference returns them (``lsh.py:376-378``).
- skew: buckets larger than ``bucket_cap`` emit a star (min-id to each
  member) instead of all O(m²) pairs — the connected-components result
  is identical because every bucket is one clique either way; run
  exact pre-collapse (dedup.exact stage) first so only genuinely hot
  near-dup floods hit the cap. ``bucket_stats`` is the reference's
  ``get_counts`` (``lsh.py:560-589``) re-expressed for monitoring.
- simhash candidate pairs are verified against the TRUE 64-bit Hamming
  distance inside the bucket: an unverified 16-bit band collides for a
  random pair with p ≈ 4·2⁻¹⁶, which floods components at n ≥ 10⁵.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from raydedup.stages.grouped import map_blocks, map_key_runs

_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)
_BAND_SALT = np.uint64(0x9E3779B97F4A7C15)


def fold_band_buckets(sig: np.ndarray, b: int, r: int) -> np.ndarray:
    """(n, ≥b*r) uint64 signatures → (n*b,) uint64 bucket ids (row-major:
    row0 band0..b-1, row1 ...). Pure numpy column-fold, no byte keys."""
    n = sig.shape[0]
    vals = np.ascontiguousarray(sig[:, : b * r], dtype=np.uint64).reshape(n * b, r)
    h = np.full(n * b, _FNV_OFFSET, dtype=np.uint64)
    for j in range(r):
        h ^= vals[:, j]
        h *= _FNV_PRIME
    band_idx = np.tile(np.arange(b, dtype=np.uint64), n)
    h ^= band_idx * _BAND_SALT
    h *= _FNV_PRIME
    return h


def _flat_triu(base: np.ndarray, m: np.ndarray):
    """All (i < j) index pairs for every run at once: run r contributes
    indices base[r] .. base[r]+m[r]-1. Pure repeat/cumsum arithmetic —
    no per-run Python."""
    tot_u = int(m.sum())
    upos = np.arange(tot_u, dtype=np.int64) - np.repeat(np.cumsum(m) - m, m)
    gidx = upos + np.repeat(base, m)
    c = np.repeat(m, m) - 1 - upos  # element at pos p pairs with m-1-p successors
    totp = int(c.sum())
    ai = np.repeat(gidx, c)
    off = np.arange(totp, dtype=np.int64) - np.repeat(np.cumsum(c) - c, c)
    return ai, ai + 1 + off


def bucket_stats(band_ds):
    """Bucket-size histogram — the skew detector (reference
    ``get_counts``, ``lsh.py:560-589``)."""
    from raydedup.stages.grouped import aggregate_per_key

    return aggregate_per_key(band_ds, ["bucket"], {"size": ("bucket", "count")})


def _exact_key_hash128(batch: pa.Table, exact_cols: tuple) -> tuple:
    """128-bit content-group key over ``exact_cols``, fully vectorized —
    the engine's one content key (the pipeline's exact mode and
    ``dedup.exact_dedup`` both group on it):
    render each column as ``\\x01``-prefixed string (NULL → ``\\x00``
    sentinel, so NULL never collides with '' — SQL GROUP BY keeps them
    separate groups), join with ``\\x1f``, and hash the joined key with
    two independent 64-bit vectorized hashes (polars xxhash64, two
    seeds). The values are run-internal grouping keys only — nothing
    downstream reproduces them — so any deterministic, well-mixed hash
    preserves semantics; a cross-content collision needs both words to
    collide (~n²/2¹²⁸). Replaces a per-row ``hashlib.sha1`` loop that
    dominated the fused-explode wall (VERDICT r02 §next-2)."""
    import polars as pl

    rendered = []
    for c in exact_cols:
        s = pc.cast(batch.column(c), pa.string())
        s = pc.binary_join_element_wise("\x01", s, "", null_handling="emit_null")
        rendered.append(pc.fill_null(s, "\x00"))
    joined = rendered[0] if len(rendered) == 1 else pc.binary_join_element_wise(
        *rendered, "\x1f"
    )
    s = pl.Series("k", pa.chunked_array([joined]) if isinstance(joined, pa.Array) else joined)
    lo = s.hash(seed=0x51DE).to_numpy().astype(np.uint64)
    hi = s.hash(seed=0xC0FE).to_numpy().astype(np.uint64)
    return lo, hi


def fused_band_explode(
    batch: pa.Table,
    b: int,
    r: int,
    id_col: str,
    num_perm: int = 128,
    simhash_bands: int = 0,
    exact_cols: tuple = (),
) -> pa.Table:
    """Unified band explode: MinHash bands (mode 0), SimHash bit-bands
    (mode 1, aux = full simhash word) and exact content-hash groups
    (mode 2, aux = second hash word, making the effective grouping key
    128-bit) share ONE slim (id, bucket, aux, mode) table → ONE shuffle.
    The three bucket spaces are salted apart, so every run is
    homogeneous in mode."""
    from raydedup.schema import sig_to_numpy

    n = len(batch)
    ids = batch.column(id_col)
    parts_id, parts_bucket, parts_aux, parts_mode = [], [], [], []

    sig = sig_to_numpy(batch.column("minhash"), num_perm)
    mh_buckets = fold_band_buckets(sig, b, r)
    idx = np.repeat(np.arange(n, dtype=np.int64), b)
    parts_id.append(ids.take(pa.array(idx)))
    parts_bucket.append(mh_buckets)
    parts_aux.append(np.zeros(n * b, dtype=np.uint64))
    parts_mode.append(np.zeros(n * b, dtype=np.int8))

    if simhash_bands and "simhash" in batch.column_names:
        from raydedup.simhash import hamming_band_keys

        words = batch.column("simhash").to_numpy(zero_copy_only=False)
        band_idx, vals = hamming_band_keys(words, num_bands=simhash_bands)
        h = (vals + np.uint64(0xABCDEF0123456789)) * _FNV_PRIME
        h ^= (band_idx.astype(np.uint64) + np.uint64(17)) * _BAND_SALT
        h *= _FNV_PRIME
        idx = np.repeat(np.arange(n, dtype=np.int64), simhash_bands)
        parts_id.append(ids.take(pa.array(idx)))
        parts_bucket.append(h)
        parts_aux.append(np.repeat(words, simhash_bands))
        parts_mode.append(np.ones(n * simhash_bands, dtype=np.int8))

    # Tolerate optional columns (default config names a phash column a
    # text-only table won't have) — same presence guard as simhash above;
    # schema is uniform across batches so the grouping key is consistent.
    exact_cols = tuple(c for c in exact_cols if c in batch.column_names)
    if exact_cols:
        lo, hi = _exact_key_hash128(batch, exact_cols)
        bucket = (lo ^ np.uint64(0x5DEECE66D)) * _FNV_PRIME
        parts_id.append(ids)
        parts_bucket.append(bucket)
        parts_aux.append(hi)
        parts_mode.append(np.full(n, 2, dtype=np.int8))

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
            id_col: _cat(parts_id),
            "bucket": pa.array(np.concatenate(parts_bucket), pa.uint64()),
            "aux": pa.array(np.concatenate(parts_aux), pa.uint64()),
            "mode": pa.array(np.concatenate(parts_mode), pa.int8()),
        }
    )


def fused_candidate_pairs(
    sig_ds,
    id_col: str,
    b: int,
    r: int,
    num_perm: int = 128,
    simhash_bands: int = 0,
    max_hamming: int = 3,
    exact_cols: tuple = (),
    bucket_cap: int = 512,
    num_partitions: int = 32,
):
    """MinHash ∪ SimHash ∪ exact candidate pairs ``(id_a, id_b)`` in
    ONE shuffle. Pair duplicates across bands and modes are left in:
    the caller dedupes once over all pair sources (and components are
    duplicate-tolerant) — one fewer all-to-all per branch."""
    from raydedup.simhash import hamming_distance64

    def explode(batch: pa.Table) -> pa.Table:
        return fused_band_explode(batch, b, r, id_col, num_perm, simhash_bands, exact_cols)

    band_ds = map_blocks(sig_ds, explode)

    def emit(block: pa.Table, starts, ends) -> pa.Table:
        """Fully vectorized pair emission (the per-run Python loop with
        an ``np.unique`` per bucket measured 22 s/partition at 25M band
        rows — ~95% of the stage's CPU). The block arrives sorted by
        (bucket, aux, id) via ``sort_extra``, so:

        - duplicate (run, aux, id) rows are consecutive → one-pass mask
          dedupe (same ids in one bucket share their aux by construction
          in every mode, so id-duplicates ARE (aux, id)-adjacent);
        - runs of equal size are stacked into (R, m) index matrices and
          emit cliques/stars with ONE ``triu_indices`` per distinct
          size — per-pair work is numpy index arithmetic;
        - pairs materialize with two Arrow ``take`` calls at the end;
          id strings are never copied into Python objects.

        Emitted orientation: mode-0/2 runs are id-sorted → (min, max)
        per pair as before; mode-1 runs are (aux, id)-sorted, so pairs
        are re-canonicalized with one vectorized compare-and-swap to
        keep the cross-mode dedupe collapsing band duplicates."""
        idc = block.column(id_col)
        if isinstance(idc, pa.ChunkedArray):
            idc = idc.combine_chunks()
        typ = idc.type if len(idc) else block.column(id_col).type
        empty = pa.table({"id_a": pa.array([], typ), "id_b": pa.array([], typ)})
        if len(starts) == 0:
            return empty
        aux = block.column("aux").to_numpy(zero_copy_only=False)
        modes = block.column("mode").to_numpy(zero_copy_only=False)
        starts = np.asarray(starts, dtype=np.int64)
        ends = np.asarray(ends, dtype=np.int64)
        lens = ends - starts
        total = int(lens.sum())
        pre = np.concatenate(([0], np.cumsum(lens)[:-1]))
        rows = np.arange(total) - np.repeat(pre, lens) + np.repeat(starts, lens)
        rid = np.repeat(np.arange(len(starts)), lens)
        idcomp = idc.take(pa.array(rows))
        auxc = aux[rows]
        # consecutive dedupe of identical (run, aux, id) rows
        if total > 1:
            dup = (rid[1:] == rid[:-1]) & (auxc[1:] == auxc[:-1])
            if dup.any():
                cand = np.flatnonzero(dup) + 1
                same_id = pc.equal(
                    idcomp.take(pa.array(cand)), idcomp.take(pa.array(cand - 1))
                ).to_numpy(zero_copy_only=False)
                drop = cand[same_id.astype(bool)]
                if len(drop):
                    keepm = np.ones(total, dtype=bool)
                    keepm[drop] = False
                    sel = np.flatnonzero(keepm)
                    idcomp = idcomp.take(pa.array(sel))
                    auxc = auxc[sel]
                    rid = rid[sel]
        sizes = np.bincount(rid, minlength=len(starts))
        roff = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        modec = modes[starts]
        out_l: list[np.ndarray] = []
        out_r: list[np.ndarray] = []

        # ---- mode 0: clique per bucket ≤ cap, min-id star above
        m0 = np.flatnonzero((modec == 0) & (sizes >= 2))
        m0c = m0[sizes[m0] <= bucket_cap]
        for m in np.unique(sizes[m0c]):
            sel = roff[m0c[sizes[m0c] == m]]
            iu, ju = np.triu_indices(m, 1)
            out_l.append((sel[:, None] + iu[None, :]).ravel())
            out_r.append((sel[:, None] + ju[None, :]).ravel())
        for ridx in m0[sizes[m0] > bucket_cap]:  # star — rare skew guard
            s0, m = roff[ridx], sizes[ridx]
            out_l.append(np.full(m - 1, s0, dtype=np.int64))
            out_r.append(s0 + np.arange(1, m, dtype=np.int64))

        # ---- mode 1: all pairs, verified at true Hamming distance;
        # degenerate constant-phash floods skipped (exact path covers)
        m1 = np.flatnonzero((modec == 1) & (sizes >= 2) & (sizes <= bucket_cap * 8))
        for m in np.unique(sizes[m1]):
            sel_all = roff[m1[sizes[m1] == m]]
            iu, ju = np.triu_indices(m, 1)
            npairs = len(iu)
            step = max(1, 16_000_000 // max(npairs, 1))  # bound temporaries
            for c0 in range(0, len(sel_all), step):
                sel = sel_all[c0 : c0 + step]
                w = auxc[sel[:, None] + np.arange(m)]
                keep = hamming_distance64(w[:, iu], w[:, ju]) <= max_hamming
                out_l.append((sel[:, None] + iu[None, :])[keep])
                out_r.append((sel[:, None] + ju[None, :])[keep])

        # ---- mode 2: star per (bucket, aux-word) sub-run — the
        # (aux, id) sort makes sub-groups consecutive, min id first
        if (modec == 2).any():
            gch = np.ones(len(rid), dtype=bool)
            gch[1:] = (rid[1:] != rid[:-1]) | (auxc[1:] != auxc[:-1])
            substart = np.flatnonzero(gch)
            subsize = np.diff(np.append(substart, len(rid)))
            is2 = (modec[rid[substart]] == 2) & (subsize >= 2)
            ss, sz = substart[is2], subsize[is2]
            tot = int((sz - 1).sum())
            if tot:
                out_l.append(np.repeat(ss, sz - 1))
                pre2 = np.concatenate(([0], np.cumsum(sz - 1)[:-1]))
                out_r.append(
                    np.arange(tot) - np.repeat(pre2, sz - 1) + np.repeat(ss + 1, sz - 1)
                )

        if not out_l:
            return empty
        li = np.concatenate(out_l)
        ri = np.concatenate(out_r)
        a = idcomp.take(pa.array(li))
        b2 = idcomp.take(pa.array(ri))
        swap = pc.greater(a, b2)  # mode-1 (aux, id) order → re-canonicalize
        return pa.table(
            {
                "id_a": pc.if_else(swap, b2, a),
                "id_b": pc.if_else(swap, a, b2),
            }
        )

    return map_key_runs(band_ds, "bucket", emit, num_partitions, sort_extra=["aux", id_col])

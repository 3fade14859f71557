"""Token-hash kernels for the exact-substring pass and n-gram shingles.

Absent from the reference (SURVEY.md §2.5); the north rule adds a pass
for captions that are verbatim token slices of other captions.

Distributed shape (``stages/dedup.substring_pairs`` wires it up): a
query caption contained in a container caption shares its anchor (the
minimum hash over its ``window``-token windows) with one of the
container's token windows. Every caption's anchor goes into one
broadcast table; each container caption, in the map task that already
holds its text, looks its windows up in that table and checks each hit
in O(1) with the polynomial rolling hash below (prefix sums over
per-token hashes). Captions shorter than ``window`` tokens are anchored
on their whole token list — no candidate is lost.
"""

from __future__ import annotations

import numpy as np

_W_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_W_FNV_PRIME = np.uint64(0x100000001B3)
# polynomial rolling-hash base (odd → invertible mod 2^64, so substring
# hashes decompose through a prefix array — the window anchors keep the
# FNV fold, which is cheaper but not decomposable)
_POLY_B = np.uint64(0x100000001B3)
_POLY_B_INV = np.uint64(pow(0x100000001B3, -1, 1 << 64))


_TOKEN_SEED = 0x5EED


def flat_token_hashes64(tokens) -> np.ndarray:
    """64-bit per-token hashes, ONE vectorized call for a whole flat
    token list (polars xxhash64; internal-only — the substring oracle
    constrains final pairs, not hash values, so any collision-resistant
    64-bit function works). Callers hash all tokens of a batch/block in
    one call and slice per doc — per-token Python hashing was the
    substring stage's hottest loop. Accepts a Python list OR a pyarrow
    string Array (zero-copy into polars)."""
    if len(tokens) == 0:
        return np.empty(0, dtype=np.uint64)
    import polars as pl

    if isinstance(tokens, list):
        s = pl.Series(tokens, dtype=pl.Utf8)
    else:  # pyarrow Array / ChunkedArray, zero-copy
        s = pl.from_arrow(tokens)
    return s.hash(seed=_TOKEN_SEED).to_numpy().astype(np.uint64)


def split_ws_tokens(col) -> tuple[np.ndarray, "object"]:
    """Whitespace tokenization of a string column with Python
    ``str.split()`` parity, fully in Arrow kernels: returns
    ``(per-row token counts int64, flat token StringArray)``.

    ``pc.utf8_split_whitespace`` collapses INTERNAL whitespace runs like
    Python but emits empty tokens at string edges (`` a b `` →
    ``['', 'a', 'b', '']``); those empties are filtered here with one
    vectorized pass so the non-empty tokens match ``str.split()``
    exactly. Null rows count 0 tokens."""
    import pyarrow as pa
    import pyarrow.compute as pc

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    toks = pc.utf8_split_whitespace(col)
    lens = (
        pc.fill_null(pc.list_value_length(toks), 0)
        .to_numpy(zero_copy_only=False)
        .astype(np.int64)
    )
    flat = pc.list_flatten(toks)  # null rows contribute no tokens
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    emp = pc.equal(flat, "").to_numpy(zero_copy_only=False)
    if emp.any():
        off = np.concatenate(([0], np.cumsum(lens)[:-1]))
        cs = np.concatenate(([0], np.cumsum(emp)))
        lens = lens - (cs[off + lens] - cs[off])
        flat = flat.filter(pa.array(~emp))
    return lens, flat


def poly_powers(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(B^k, B^-k) for k in [0, n], uint64 wraparound — cumprod wraps."""
    b = np.full(n + 1, _POLY_B, dtype=np.uint64)
    b[0] = 1
    binv = np.full(n + 1, _POLY_B_INV, dtype=np.uint64)
    binv[0] = 1
    return np.cumprod(b), np.cumprod(binv)


def poly_prefix_sums(hv: np.ndarray, binv_pow: np.ndarray) -> np.ndarray:
    """S[j] = Σ_{k<j} hv[k]·B^-k; any substring hash is then
    H(i, j) = (S[j] - S[i]) · B^(j-1) — one gather + multiply."""
    s = np.zeros(len(hv) + 1, dtype=np.uint64)
    np.cumsum(hv * binv_pow[: len(hv)], out=s[1:])
    return s


def flat_ngram_hashes64(col, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-row word n-gram window hashes over LOWERCASED whitespace
    tokens, fully vectorized: returns ``(per-row n-gram counts int64,
    flat uint64 window-hash array)``. The window hash is the
    position-independent polynomial combination of per-token xxhash64
    values — set-equivalent to hashing the space-joined shingle string
    (modulo 64-bit collisions), which is all the n-gram Jaccard
    pipeline needs (its DuckDB oracle constrains the verified pair set,
    not hash values). Replaces the per-doc Python shingle loop that was
    the pipeline's hottest kernel."""
    import pyarrow as pa
    import pyarrow.compute as pc

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    lens, flat = split_ws_tokens(pc.utf8_lower(col))
    cnt = np.maximum(lens - (n - 1), 0)
    total = int(cnt.sum())
    if total == 0:
        return cnt, np.empty(0, np.uint64)
    hv = flat_token_hashes64(flat)
    bpow, binv = poly_powers(len(hv))
    s = poly_prefix_sums(hv, binv)
    off = np.cumsum(lens) - lens
    # ragged arange: global window-start index for every (row, window)
    starts = np.repeat(off, cnt) + (
        np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(cnt) - cnt, cnt)
    )
    # H(i, i+n) = (S[i+n] - S[i]) · B^(i+n-1): windows never cross row
    # boundaries because starts stay within [off, off+len-n]
    w = (s[starts + n] - s[starts]) * bpow[starts + n - 1]
    return cnt, w


def unique_per_row(cnt: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deduplicate a ragged uint64 array within each row: returns
    ``(per-row distinct counts, flat values sorted ascending within each
    row)`` — one global lexsort instead of a per-row ``np.unique``."""
    if len(h) == 0:
        return np.zeros(len(cnt), dtype=np.int64), h
    rid = np.repeat(np.arange(len(cnt), dtype=np.int64), cnt)
    order = np.lexsort((h, rid))
    hs, rs = h[order], rid[order]
    keep = np.ones(len(hs), dtype=bool)
    keep[1:] = (hs[1:] != hs[:-1]) | (rs[1:] != rs[:-1])
    return np.bincount(rs[keep], minlength=len(cnt)).astype(np.int64), hs[keep]

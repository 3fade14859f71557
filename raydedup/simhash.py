"""64-bit SimHash + Hamming-ball candidate generation.

The reference has no simhash (SURVEY.md §2.5) — this implements the
standard Charikar construction (STOC'02 "Similarity estimation
techniques from rounding algorithms") and the pigeonhole banding trick
for Hamming-distance candidate generation: split the 64-bit word into
``nb`` equal bands; any pair at Hamming distance ≤ nb-1 shares at least
one exact band, so equal-band grouping (the same groupby shuffle as
MinHash LSH bands) finds all such pairs.

Two feature sources, per the north rule:
- ``simhash_from_phash``: the input table already carries a 64-bit
  perceptual hash; near-dup images differ in ≤k bits, so the phash is
  used directly as the 64-bit fingerprint.
- ``simhash_from_tokens``: Charikar over SHA1-64 token hashes, for
  caption/pixel-feature simhash.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np


def simhash_from_tokens(token_lists: list, hashfunc: str = "sha1") -> np.ndarray:
    """Charikar simhash: for each document, sum ±1 per bit over the
    64-bit hashes of its tokens; the sign of each bit-sum is the output
    bit. Returns uint64[N]. ``hashfunc="md5"`` makes the fingerprint
    DuckDB-reproducible (md5_number_lower)."""
    from raydedup.hashing import HASH64_FUNCS

    hash64 = HASH64_FUNCS[hashfunc]
    memo: dict = {}  # token → hash, across this call's documents
    n = len(token_lists)
    out = np.zeros(n, dtype=np.uint64)
    bit_idx = np.arange(64, dtype=np.uint64)
    for i, toks in enumerate(token_lists):
        if not toks:
            continue
        hv = np.empty(len(toks), dtype=np.uint64)
        for j, t in enumerate(toks):
            h = memo.get(t)
            if h is None:
                h = hash64(t)
                memo[t] = h
            hv[j] = h
        # bits (ntok, 64) in {0,1} → counts per bit
        bits = (hv[:, None] >> bit_idx) & np.uint64(1)
        counts = bits.sum(axis=0, dtype=np.int64)
        word = ((counts * 2) > len(toks)).astype(np.uint64)
        out[i] = np.bitwise_or.reduce(word << bit_idx)
    return out


def simhash_from_phash(phash: np.ndarray) -> np.ndarray:
    """Reinterpret the signed int64 phash column as the uint64 simhash
    fingerprint (bit pattern preserved)."""
    return np.asarray(phash).astype(np.int64).view(np.uint64)


def hamming_distance64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized popcount of XOR for uint64 arrays (broadcasts)."""
    x = np.bitwise_xor(np.asarray(a, dtype=np.uint64), np.asarray(b, dtype=np.uint64))
    # bytewise popcount via uint8 view + lookup table
    lut = _POPCOUNT_LUT
    v = x.reshape(-1).view(np.uint8).reshape(-1, 8)
    return lut[v].sum(axis=1).reshape(x.shape)


_POPCOUNT_LUT = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def hamming_band_keys(words: np.ndarray, num_bands: int = 4):
    """Split each 64-bit word into ``num_bands`` equal bit-bands.

    Guarantee: pairs with Hamming distance ≤ num_bands-1 collide in at
    least one band (pigeonhole). Returns ``(band_idx int32[n*nb],
    band_val uint64[n*nb])`` row-major — band values are the extracted
    bit slices, small enough to group on directly (no byte keys needed).
    """
    words = np.asarray(words, dtype=np.uint64)
    n = len(words)
    width = 64 // num_bands
    mask = np.uint64((1 << width) - 1)
    vals = np.empty((n, num_bands), dtype=np.uint64)
    for j in range(num_bands):
        vals[:, j] = (words >> np.uint64(j * width)) & mask
    band_idx = np.tile(np.arange(num_bands, dtype=np.int32), n)
    return band_idx, vals.reshape(-1)

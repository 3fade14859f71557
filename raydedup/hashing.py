"""Token hashing, shingling and permutation generation.

Bit-exact contracts with the reference (cited for parity checking, not
copied — the math is standard universal hashing):

- ``sha1_hash32`` / ``sha1_hash64``: first 4/8 bytes of SHA1,
  little-endian unsigned (reference ``datasketch/hashfunc.py:5-28``).
- ``generate_permutations``: per-permutation ``(a, b)`` pairs drawn
  interleaved from ``np.random.RandomState(seed)`` with
  ``a ~ randint(1, p)``, ``b ~ randint(0, p)``, ``p = 2^61 - 1``
  (reference ``datasketch/minhash.py:170-184``). The interleaved draw
  order matters for bit-exactness and is reproduced here.

Shingling is user-land in the reference (callers feed token bytes to
``MinHash.update``); we standardize two shingle functions so the Ray
pipeline and the conformance harness feed *identical* token sets to
both engines.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np
import pyarrow as pa

MERSENNE_PRIME = np.uint64((1 << 61) - 1)
MAX_HASH = np.uint64((1 << 32) - 1)


def sha1_hash32(data: bytes) -> int:
    """First 4 bytes of SHA1 as little-endian uint32."""
    return struct.unpack("<I", hashlib.sha1(data).digest()[:4])[0]


def sha1_hash64(data: bytes) -> int:
    """First 8 bytes of SHA1 as little-endian uint64."""
    return struct.unpack("<Q", hashlib.sha1(data).digest()[:8])[0]


def md5_hash64(data: bytes) -> int:
    """Bytes 8..16 of MD5 as little-endian uint64 — identical to
    DuckDB's ``md5_number_lower``, so sketches built with this hashfunc
    are SQL-reproducible (custom hashfuncs are a first-class reference
    feature, ``datasketch/hashfunc.py``)."""
    return struct.unpack("<Q", hashlib.md5(data).digest()[8:16])[0]


def md5_hash32(data: bytes) -> int:
    """Low 32 bits of :func:`md5_hash64` (DuckDB:
    ``md5_number_lower(x) & 4294967295``)."""
    return struct.unpack("<I", hashlib.md5(data).digest()[8:12])[0]


HASH32_FUNCS = {"sha1": sha1_hash32, "md5": md5_hash32}
HASH64_FUNCS = {"sha1": sha1_hash64, "md5": md5_hash64}

# ------------------------------------------------------ vectorized digests
# SHA-1 (FIPS 180-4) and MD5 (RFC 1321) over the buffers of an Arrow
# binary/string array: every message of at most 55 bytes is padded into
# one 64-byte block and the rounds run on uint32 columns, one column per
# message. A longer message takes two or more blocks and goes to hashlib
# on its own: per message, a second numpy pass already costs as much as
# one hashlib call, and a third costs more (A/B in BASELINE.md), so one
# long shingle never costs a numpy pass per block. Bit-exact with the
# scalar functions above.
_BLOCK_BYTES = 55  # 64 - the 0x80 terminator - the 8-byte bit length
_DIGEST_ROWS = 8192  # messages per pass: keeps each uint32 column in cache
_IV = (0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0)
_SHA1_K = tuple(np.uint32(k) for k in (0x5A827999, 0x6ED9EBA1, 0x8F1BBCDC, 0xCA62C1D6))
_MD5_K = tuple(np.uint32(int(abs(np.sin(i + 1)) * 2**32)) for i in range(64))
_MD5_S = (7, 12, 17, 22) * 4 + (5, 9, 14, 20) * 4 + (4, 11, 16, 23) * 4 + (6, 10, 15, 21) * 4
_MD5_G = tuple((i, 5 * i + 1, 3 * i + 5, 7 * i)[i // 16] % 16 for i in range(64))


def _rotl(x: np.ndarray, n: int) -> np.ndarray:
    return (x << np.uint32(n)) | (x >> np.uint32(32 - n))


def _sha1_block(h: list, w: list) -> list:
    a, b, c, d, e = h
    for t in range(80):
        if t >= 16:
            w[t % 16] = _rotl(w[(t - 3) % 16] ^ w[(t - 8) % 16] ^ w[(t - 14) % 16] ^ w[t % 16], 1)
        if t < 20:
            f = d ^ (b & (c ^ d))
        elif 40 <= t < 60:
            f = (b & c) | (d & (b | c))
        else:
            f = b ^ c ^ d
        a, b, c, d, e = _rotl(a, 5) + f + e + _SHA1_K[t // 20] + w[t % 16], a, _rotl(b, 30), c, d
    return [x + y for x, y in zip(h, (a, b, c, d, e))]


def _md5_block(h: list, w: list) -> list:
    a, b, c, d = h
    for i in range(64):
        if i < 16:
            f = d ^ (b & (c ^ d))
        elif i < 32:
            f = c ^ (d & (b ^ c))
        elif i < 48:
            f = b ^ c ^ d
        else:
            f = c ^ (b | ~d)
        a, b, c, d = d, b + _rotl(f + a + _MD5_K[i] + w[_MD5_G[i]], _MD5_S[i]), b, c
    return [x + y for x, y in zip(h, (a, b, c, d))]


def ragged_arange(cnt: np.ndarray) -> np.ndarray:
    """``0..cnt[i]-1`` for each segment ``i``, flat."""
    return np.arange(int(cnt.sum()), dtype=np.int64) - np.repeat(np.cumsum(cnt) - cnt, cnt)


def digest_arrow(arr, hashfunc: str = "sha1", bits: int = 32) -> np.ndarray:
    """``HASH32_FUNCS[hashfunc]`` (``bits=32``) or ``HASH64_FUNCS``
    (``bits=64``) of every value of a pyarrow binary/string Array
    (``large_*`` and sliced arrays too), as uint64, read straight from
    the offsets and data buffers."""
    n = len(arr)
    if n > _DIGEST_ROWS:
        parts = [digest_arrow(arr.slice(s, _DIGEST_ROWS), hashfunc, bits) for s in range(0, n, _DIGEST_ROWS)]
        return np.concatenate(parts)
    if n == 0:
        return np.empty(0, np.uint64)
    sha1 = hashfunc == "sha1"
    odt = np.dtype(np.int64 if arr.type in (pa.large_binary(), pa.large_string()) else np.int32)
    _, obuf, dbuf = arr.buffers()
    off = np.frombuffer(obuf, odt, n + 1, arr.offset * odt.itemsize).astype(np.int64)
    data = np.frombuffer(dbuf, np.uint8) if dbuf is not None else np.empty(0, np.uint8)
    lens = np.diff(off)
    short = np.flatnonzero(lens <= _BLOCK_BYTES)
    ls = lens[short]
    blk = np.zeros((len(short), 64), np.uint8)
    r = ragged_arange(ls)
    blk[np.repeat(np.arange(len(short)), ls), r] = data[np.repeat(off[short], ls) + r]
    blk[np.arange(len(short)), ls] = 0x80
    blk.view(">u8" if sha1 else "<u8")[:, 7] = ls * 8
    w = list(np.ascontiguousarray(blk.view(">u4" if sha1 else "<u4").T, np.uint32))
    h = [np.full(len(short), v, np.uint32) for v in _IV[: 5 if sha1 else 4]]
    h = (_sha1_block if sha1 else _md5_block)(h, w)
    # the scalar functions' byte ranges, as little-endian words
    lo, hi = (h[0].byteswap(), h[1].byteswap()) if sha1 else (h[2], h[3])
    out = np.empty(n, np.uint64)
    out[short] = lo if bits == 32 else lo.astype(np.uint64) | hi.astype(np.uint64) << np.uint64(32)
    fn = (HASH32_FUNCS if bits == 32 else HASH64_FUNCS)[hashfunc]
    for i in np.flatnonzero(lens > _BLOCK_BYTES):
        out[i] = fn(data[off[i] : off[i + 1]].tobytes())
    return out


def hash_strings32_arrow(arr, hashfunc: str = "sha1") -> np.ndarray:
    """32-bit ``sha1`` (reference bit-parity, ``datasketch/hashfunc.py:5-15``)
    or ``md5`` (DuckDB-reproducible) hash values of a pyarrow string or
    binary array, as uint64."""
    return digest_arrow(arr, hashfunc, 32)


def hash_tokens32(tokens, hashfunc: str = "sha1") -> np.ndarray:
    """:func:`hash_strings32_arrow` of a sequence of token ``bytes``."""
    return digest_arrow(pa.array(tokens, pa.binary()), hashfunc, 32)


def hash_bytes64(tokens) -> np.ndarray:
    """SHA1-64 of a sequence of ``bytes`` — the shared shingle hash of
    the AllPairs/containment operators (CMS ordering, prefix anchors
    and set blobs must agree)."""
    return digest_arrow(pa.array(tokens, pa.binary()), "sha1", 64)


def generate_permutations(num_perm: int, seed: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Seed-derived universal-hash parameters ``(a, b)``, each
    ``uint64[num_perm]``, identical to the reference's draw order
    (``datasketch/minhash.py:170-184``): for each permutation the pair
    is drawn consecutively, ``a`` in ``[1, p)``, ``b`` in ``[0, p)``.

    Cheap (microseconds) and deterministic — every actor recomputes
    these in ``__init__`` instead of shipping them.
    """
    gen = np.random.RandomState(seed)
    a = np.empty(num_perm, dtype=np.uint64)
    b = np.empty(num_perm, dtype=np.uint64)
    p = int(MERSENNE_PRIME)
    for i in range(num_perm):
        a[i] = gen.randint(1, p, dtype=np.uint64)
        b[i] = gen.randint(0, p, dtype=np.uint64)
    return a, b


def char_shingles(text: str, k: int = 3, lower: bool = True) -> set[bytes]:
    """Character k-shingles as utf-8 bytes (the reference docs' standard
    preprocessing, e.g. ``docs/lsh.rst`` 20-Newsgroups 3-shingles)."""
    if lower:
        text = text.lower()
    if len(text) < k:
        return {text.encode("utf-8")} if text else set()
    return {text[i : i + k].encode("utf-8") for i in range(len(text) - k + 1)}


def word_ngram_shingles(text: str, n: int = 3, lower: bool = True) -> set[bytes]:
    """Word n-gram shingles (space-joined, utf-8). ``n=1`` is a plain
    token set (the reference examples' style, ``examples/lsh_examples.py``).

    Docs with fewer than ``n`` words yield an EMPTY set — matching the
    SQL oracle semantics (generate_series over len-n+1 produces nothing)
    so a pair of identical short docs is not a Jaccard-1 pair on one
    engine only."""
    if lower:
        text = text.lower()
    words = text.split()
    if len(words) < n:
        return set()
    return {" ".join(words[i : i + n]).encode("utf-8") for i in range(len(words) - n + 1)}

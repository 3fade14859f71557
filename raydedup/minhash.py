"""Batched MinHash signature kernel.

The reference computes one signature object at a time
(``datasketch/minhash.py:226-297``, ``update_batch``): hash every token,
apply ``(a*h + b) mod p & max_hash`` and take the elementwise min.  Here
the same math runs over a whole Arrow batch of documents at once:

    all tokens of all rows → one uint64 hash vector → one
    ``(total_tokens, num_perm)`` permuted matrix → segment-min by row
    → ``(rows, num_perm)`` signature matrix.

Bit-exactness notes (validated in tests/test_kernels.py against the
reference's hard-coded anchor ``test/test_minhash.py:109-115``):

- multiplication happens in uint64 with wrap-around *before* the
  ``mod p`` — replicating the reference's numpy arithmetic exactly.
- empty documents keep the init value ``MAX_HASH`` in every slot
  (reference ``_init_hashvalues``, ``datasketch/minhash.py:168``).
- band keys are the big-endian byte concatenation of each r-slice:
  ``bytes(hv[s:e].byteswap().data)`` (reference ``datasketch/lsh.py:537``).
"""

from __future__ import annotations

import numpy as np

from raydedup.hashing import MAX_HASH, MERSENNE_PRIME, generate_permutations, hash_tokens32


def _scratch_buf(scratch: dict | None, key: str, num_perm: int, width: int, dtype):
    """Reusable C-contiguous (num_perm, width) work buffer: fresh
    multi-MB allocs per batch cost a page-fault sweep each call;
    per-caller scratch amortizes it across the stage's lifetime. A
    column slice of a wider buffer would be strided, and measured up
    to 2x slower per ufunc pass."""
    if scratch is None:
        return np.empty((num_perm, width), dtype=dtype)
    buf = scratch.get(key)
    if buf is None or buf.size < num_perm * width:
        buf = np.empty(num_perm * max(width, 1), dtype=dtype)
        scratch[key] = buf
    return buf[: num_perm * width].reshape(num_perm, width)


def minhash_batch(
    token_lists: list,
    a: np.ndarray,
    b: np.ndarray,
    chunk_tokens: int = 8_192,
    hashfunc: str = "sha1",
    scratch: dict | None = None,
) -> np.ndarray:
    """Compute MinHash signatures for a batch of documents.

    Args:
        token_lists: list (len N) of iterables of token ``bytes``.
        a, b: permutation params from :func:`generate_permutations`.
        chunk_tokens: cap on tokens permuted per matrix op, bounding the
            ``(num_perm, chunk)`` work buffers to ~17 MiB at 128 perms.
        scratch: optional per-caller dict of reusable work buffers
            (see ``_scratch_buf``).

    Returns:
        ``(N, num_perm) uint64`` signature matrix; empty docs = MAX_HASH.
    """
    n = len(token_lists)
    flat: list[bytes] = []
    counts = np.zeros(n, dtype=np.int64)
    for i, toks in enumerate(token_lists):
        flat.extend(toks)
        counts[i] = len(toks)
    if not flat:
        return np.full((n, len(a)), MAX_HASH, dtype=np.uint64)
    hv = hash_tokens32(flat, hashfunc=hashfunc)
    return minhash_batch_hashed(hv, counts, a, b, chunk_tokens=chunk_tokens, scratch=scratch)


def minhash_batch_hashed(
    hv: np.ndarray,
    counts: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    chunk_tokens: int = 8_192,
    scratch: dict | None = None,
) -> np.ndarray:
    """Permute + segment-min core of :func:`minhash_batch` over
    PRE-HASHED token values (``hv`` = concatenated per-row 32-bit hash
    values, ``counts`` = tokens per row). Lets callers that hash via
    vectorized Arrow kernels (``stages/signatures.py``) skip the
    Python flatten entirely; bit-exact with the reference math."""
    num_perm = len(a)
    n = len(counts)
    sig = np.full((n, num_perm), MAX_HASH, dtype=np.uint64)
    if len(hv) == 0:
        return sig
    # rows with ≥1 token, in flat order; segment starts into hv
    nz = np.nonzero(counts)[0]
    starts = np.concatenate(([0], np.cumsum(counts[nz])[:-1]))
    total = len(hv)

    # Permute + segment-min in chunks (bounds the (P, chunk) temporary).
    # TRANSPOSED layout: tokens along the contiguous axis, so the
    # segment-min reduceat walks sequential memory — axis-0 reduceat on
    # the (tokens, P) layout strides 1 KiB per element and measured
    # 7 ms/256-doc batch, ~45% of the whole signature kernel.
    ac = np.ascontiguousarray(a)[:, None]
    bc = np.ascontiguousarray(b)[:, None]
    c0 = 0  # index into nz/starts of the first row whose segment is unfinished
    while c0 < len(nz):
        c1 = max(c0 + 1, int(np.searchsorted(starts, starts[c0] + chunk_tokens)))
        s = starts[c0]
        e = starts[c1] if c1 < len(nz) else total
        w = e - s
        phv = _scratch_buf(scratch, "phv", num_perm, w, np.uint64)
        np.multiply(ac, hv[None, s:e], out=phv)  # uint64 wrap-around, as in the reference
        phv += bc
        # x % (2^61-1) without integer division (Mersenne reduction):
        # x = hi·2^61 + lo ⇒ x ≡ hi + lo (mod p); one conditional
        # subtract suffices since hi ≤ 7 ⇒ hi + lo < 2p. Bit-exact with
        # the reference's `% _mersenne_prime` (minhash.py:293-297).
        hi = _scratch_buf(scratch, "hi", num_perm, w, np.uint64)
        np.right_shift(phv, np.uint64(61), out=hi)
        phv &= MERSENNE_PRIME
        phv += hi
        mask = _scratch_buf(scratch, "mask", num_perm, w, bool)
        np.greater_equal(phv, MERSENNE_PRIME, out=mask)
        np.subtract(phv, MERSENNE_PRIME, out=phv, where=mask)
        np.bitwise_and(phv, MAX_HASH, out=phv)
        seg = np.minimum.reduceat(phv, starts[c0:c1] - s, axis=1).T  # (rows, P)
        cur = sig[nz[c0:c1]]
        np.minimum(cur, seg, out=cur)
        sig[nz[c0:c1]] = cur
        c0 = c1
    return sig


def minhash_single(tokens, num_perm: int = 128, seed: int = 1) -> np.ndarray:
    """Convenience: one signature (used by tests and driver-side probes)."""
    a, b = generate_permutations(num_perm, seed)
    return minhash_batch([list(tokens)], a, b)[0]


def jaccard_estimate(sig_a: np.ndarray, sig_b: np.ndarray) -> np.ndarray:
    """Estimated Jaccard = fraction of equal slots (reference
    ``datasketch/minhash.py:299-324``). Broadcasts: ``(N,P) vs (N,P)``
    row-wise, or ``(N,P) vs (P,)``."""
    return np.mean(sig_a == sig_b, axis=-1)


def merge_signatures(sigs: np.ndarray) -> np.ndarray:
    """Union of MinHash sketches = elementwise min (reference
    ``datasketch/minhash.py:337-359``). ``(K, P) -> (P,)``."""
    return sigs.min(axis=0)


def band_keys(sig: np.ndarray, b: int, r: int) -> list[list[bytes]]:
    """Split each signature row into ``b`` bands of ``r`` values and render
    each band as the reference's byte key: big-endian concatenation of the
    r uint64 values (``datasketch/lsh.py:537-538``). Tail perm values
    beyond ``b*r`` are ignored for candidate generation (reference keeps
    them only for jaccard estimates, ``lsh.py:106-111``).

    Returns: per input row, a list of ``b`` bytes keys.
    """
    sig = np.ascontiguousarray(sig, dtype=np.uint64)
    if sig.ndim == 1:
        sig = sig[None, :]
    n = sig.shape[0]
    used = sig[:, : b * r]  # (n, b*r)
    swapped = used.byteswap()  # big-endian words
    raw = swapped.reshape(n, b, r)
    out = []
    for i in range(n):
        out.append([raw[i, j].tobytes() for j in range(b)])
    return out


def cardinality_estimate(sig: np.ndarray) -> np.ndarray:
    """MinHash cardinality estimate ``num_perm / sum(hv / max_hash) - 1``
    (reference ``datasketch/minhash.py:326-335``). Works on (P,) or (N, P)."""
    sig = np.asarray(sig, dtype=np.float64)
    k = sig.shape[-1]
    return k / np.sum(sig / float(MAX_HASH), axis=-1) - 1.0


def minhash_union_aggregate(column: str = "minhash", num_perm: int = 128, alias_name: str | None = None):
    """``ray.data`` AggregateFn computing the MinHash *union* signature of
    a group (elementwise min — reference ``minhash.py:337-359``): the
    mergeable-sketch pattern, giving per-group signatures usable for
    group-level similarity / cardinality without re-scanning tokens."""
    from ray.data.aggregate import AggregateFn
    from ray.data.block import BlockAccessor

    name = alias_name or f"minhash_union({column})"

    def accumulate_block(state: np.ndarray, block) -> np.ndarray:
        from raydedup.schema import sig_to_numpy

        tbl = BlockAccessor.for_block(block).to_arrow()
        sig = sig_to_numpy(tbl.column(column), num_perm)
        return np.minimum(state, sig.min(axis=0))

    return AggregateFn(
        init=lambda k: np.full(num_perm, MAX_HASH, dtype=np.uint64),
        accumulate_block=accumulate_block,
        merge=lambda a, b: np.minimum(a, b),
        finalize=lambda s: s.tolist(),
        name=name,
    )


def lean_serialize(sig: np.ndarray, seed: int = 1, byteorder: str = "@") -> bytes:
    """LeanMinHash wire format (reference ``lean_minhash.py:126-175``):
    8-byte seed (q) + 4-byte count (i) + 4 bytes per hash value (I) —
    byte-exact for cross-language export of signature rows."""
    import struct

    sig = np.asarray(sig, dtype=np.uint64)
    fmt = "%sqi%dI" % (byteorder, len(sig))
    buf = bytearray(struct.calcsize(fmt))
    struct.pack_into(fmt, buf, 0, seed, len(sig), *(int(v) for v in sig))
    return bytes(buf)


def lean_deserialize(buf: bytes, byteorder: str = "@") -> tuple[int, np.ndarray]:
    """Inverse of :func:`lean_serialize` → (seed, hashvalues uint64)."""
    import struct

    seed, n = struct.unpack_from("%sqi" % byteorder, buf, 0)
    off = struct.calcsize("%sqi" % byteorder)
    vals = struct.unpack_from("%s%dI" % (byteorder, n), buf, off)
    return seed, np.array(vals, dtype=np.uint64)


def cardinality_estimate_exact(sig: np.ndarray) -> np.ndarray:
    """Reference cardinality estimator (``minhash.py:326-335``)
    rearranged to ``P·MAX/Σhv − 1``: mathematically identical, but the
    float result is one exact product over one exact integer sum —
    order-independent, hence SQL-reproducible (see raydedup/oracles.py).
    """
    sig = np.atleast_2d(np.asarray(sig, dtype=np.uint64))
    num_perm = sig.shape[1]
    s = sig.sum(axis=1).astype(np.float64)  # ≤ P·2^32 — exact in f64
    return (float(num_perm) * float(int(MAX_HASH))) / s - 1.0

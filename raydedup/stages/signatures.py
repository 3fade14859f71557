"""Signature stage: MinHash + SimHash columns, one Arrow batch at a time.

The reference computes one `MinHash` object per document in a Python
loop (``datasketch/minhash.py:464-489`` bulk). Here one call processes
a whole Arrow batch: shingle all captions, hash every shingle in one
vectorized SHA-1/MD5 over the Arrow buffers (``hashing.digest_arrow``),
permute in one matrix op, segment-min per row.

State (permutation matrix, doc memo) is built in ``__init__`` from the
seed — deterministic, never shipped (SURVEY.md §4.3) — once per block
inside the ``grouped.map_blocks`` tasks of :func:`signature_map`, the
one signature map: the flagship, the bench and every MinHash query run
it.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import pyarrow.compute as pc

from raydedup.hashing import (
    char_shingles,
    generate_permutations,
    hash_strings32_arrow,
    ragged_arange,
    word_ngram_shingles,
)
from raydedup.minhash import minhash_batch, minhash_batch_hashed
from raydedup.schema import numpy_to_sig
from raydedup.simhash import simhash_from_phash

# rows per signature map batch: amortizes the per-op numpy cost of the
# SHA-1 rounds; the permute's work buffers are sized by its token chunk,
# not by the batch (minhash_batch_hashed)
SIGNATURE_BATCH_SIZE = 1024


def make_shingler(kind: str):
    """Parse a shingle spec: 'word3' → word 3-grams, 'char5' → char
    5-shingles, 'word1' → plain token set."""
    if kind.startswith("word"):
        n = int(kind[4:] or 1)
        return lambda text: word_ngram_shingles(text, n=n)
    if kind.startswith("char"):
        k = int(kind[4:] or 3)
        return lambda text: char_shingles(text, k=k)
    raise ValueError(f"unknown shingle kind {kind!r}")


def word_shingle_windows(col, n: int):
    """All word n-gram shingle STRINGS of a string column, fully in
    Arrow kernels (r05, VERDICT r04 next-#1): lowercase → whitespace
    split (``str.split()`` parity, ``suffix.split_ws_tokens``) → n
    aligned ``take`` s of the flat token array → one
    ``binary_join_element_wise``. Returns ``(per-row window counts
    int64, flat shingle StringArray)`` — the exact space-joined
    strings :func:`raydedup.hashing.word_ngram_shingles` produces, in
    window order WITH in-row duplicates (a multiset has the same
    MinHash as its set, so signatures are unchanged). Rows with fewer
    than ``n`` words yield zero windows (SQL-oracle parity)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    from raydedup.suffix import split_ws_tokens

    lens, flat = split_ws_tokens(pc.utf8_lower(col))
    cnt = np.maximum(lens - (n - 1), 0)
    total = int(cnt.sum())
    if total == 0:
        return cnt, pa.array([], pa.string())
    starts = np.repeat(np.cumsum(lens) - lens, cnt) + ragged_arange(cnt)
    if n == 1:
        return cnt, flat.take(pa.array(starts))
    parts = [flat.take(pa.array(starts + j)) for j in range(n)]
    return cnt, pc.binary_join_element_wise(*parts, " ")


def _first_misses(keys: list, memo: dict) -> list[int]:
    """Row indices of the FIRST occurrence of each memo-missing key —
    duplicate docs inside one batch permute once (r05; previously every
    within-batch repeat was recomputed, and dedup corpora are repeat-
    heavy by nature)."""
    seen = set()
    miss = []
    for i, k in enumerate(keys):
        if k in memo or k in seen:
            continue
        seen.add(k)
        miss.append(i)
    return miss


class SignatureStage:
    """Adds ``minhash`` (fixed_size_list<uint32, P> storage — kernels
    compute in uint64, values fit uint32 by _max_hash) and optionally
    ``simhash`` (uint64) columns; drops the heavy payload column if asked
    (the shuffle must never carry image bytes — SURVEY.md §7.5)."""

    def __init__(
        self,
        num_perm: int = 128,
        seed: int = 1,
        shingle: str = "word3",
        text_col: str = "caption",
        phash_col: str | None = "phash",
        drop_cols: tuple[str, ...] = ("bytes",),
        hashfunc: str = "sha1",
    ):
        self.num_perm = num_perm
        self.a, self.b = generate_permutations(num_perm, seed)
        self.shingler = make_shingler(shingle)
        # word-n shinglers ride the fully-vectorized flat path; char
        # shingles keep the per-row path
        self.word_n = int(shingle[4:] or 1) if shingle.startswith("word") else None
        self.text_col = text_col
        self.phash_col = phash_col
        self.drop_cols = drop_cols
        self.hashfunc = hashfunc
        self.scratch: dict = {}  # reusable permute work buffers (minhash_batch)
        # doc-level signature memo: identical shingle SETS yield identical
        # signatures, and dedup corpora are duplicate-heavy by nature, so
        # the permute is skipped for every repeat. Keyed by the exact
        # joined shingle bytes (no hash-collision risk); ~1 KB/entry at
        # 128 perms.
        self.sig_memo: dict = {}
        self.sig_memo_cap = 65_536  # ≤ ~64 MB per stage instance

    def __call__(self, batch: pa.Table) -> pa.Table:
        if len(self.sig_memo) > self.sig_memo_cap:
            self.sig_memo.clear()
        if self.word_n is not None:
            sig = self._signatures_flat(batch)
        else:
            sig = self._signatures_rows(batch)
        out = batch
        for c in self.drop_cols:
            if c in out.column_names:
                out = out.drop_columns([c])
        out = out.append_column(pa.field("minhash", pa.list_(pa.uint32(), self.num_perm)), numpy_to_sig(sig, self.num_perm))
        if self.phash_col and self.phash_col in batch.column_names:
            ph = batch.column(self.phash_col).to_numpy(zero_copy_only=False)
            out = out.append_column("simhash", pa.array(simhash_from_phash(ph), pa.uint64()))
        return out

    def _signatures_flat(self, batch: pa.Table) -> np.ndarray:
        """Vectorized word-shingle path: shingle strings, doc-memo keys
        and the SHA-1/MD5 digests (the reference bit-exactness
        contract, ``datasketch/hashfunc.py:5-15``) all run over Arrow
        buffers, with no Python per shingle. Signature values are
        identical to the per-row path (multiset MinHash ≡ set MinHash;
        asserted in tests/test_kernels.py)."""
        cnt, shingles = word_shingle_windows(batch.column(self.text_col), self.word_n)
        n = len(cnt)
        offs = np.zeros(n + 1, np.int64)
        np.cumsum(cnt, out=offs[1:])
        # doc-level memo key: the row's exact shingle bytes, joined (the
        # unsorted analogue of the old sorted-set key — identical keys ⇒
        # identical shingle multisets ⇒ identical signatures)
        lst = pa.ListArray.from_arrays(pa.array(offs, pa.int32()), shingles)
        keys = pc.binary_join(lst, "\x1f").to_pylist()
        miss = _first_misses(keys, self.sig_memo)
        if miss:
            sel = np.array(miss, np.int64)
            mcnt = cnt[sel]
            gather = np.repeat(offs[sel], mcnt) + ragged_arange(mcnt)
            hv = hash_strings32_arrow(shingles.take(pa.array(gather)), hashfunc=self.hashfunc)
            new_sig = minhash_batch_hashed(hv, mcnt, self.a, self.b, scratch=self.scratch)
            for j, i in enumerate(miss):
                self.sig_memo[keys[i]] = new_sig[j]
        if not keys:
            return np.empty((0, self.num_perm), np.uint64)
        return np.stack([self.sig_memo[k] for k in keys])

    def _signatures_rows(self, batch: pa.Table) -> np.ndarray:
        """Per-row fallback (char shingles): the original shingler +
        sorted-set path."""
        texts = batch.column(self.text_col).to_pylist()
        token_lists = [sorted(self.shingler(t or "")) for t in texts]
        keys = [b"\x1f".join(toks) for toks in token_lists]
        miss = _first_misses(keys, self.sig_memo)
        if miss:
            new_sig = minhash_batch(
                [token_lists[i] for i in miss],
                self.a,
                self.b,
                hashfunc=self.hashfunc,
                scratch=self.scratch,
            )
            for j, i in enumerate(miss):
                self.sig_memo[keys[i]] = new_sig[j]
        if not keys:
            return np.empty((0, self.num_perm), np.uint64)
        return np.stack([self.sig_memo[k] for k in keys])


def signature_map(ds, **stage_kwargs):
    """``ds`` with ``SignatureStage(**stage_kwargs)`` applied, as at most
    one plain Ray task per CPU (``grouped.map_blocks``): each task builds
    one stage per block (the permutation state is tiny and seed-derived)
    and feeds it ``SIGNATURE_BATCH_SIZE``-row slices, so rows keep the
    input's order. Runs eagerly and returns a pinned Dataset.

    A lazy input that has (or may have, where its schema is unknown)
    payload columns the stage drops but never reads (``bytes``) loses
    them in one Ray Data map before it is pinned, so image payloads are
    never pinned. After a read that splits its output that map is an
    operator of its own (Ray does not fuse it into the read). A column
    the stage reads (``text`` in ``drop_cols``) is dropped inside the
    task."""
    from ray.data.dataset import MaterializedDataset

    from raydedup.stages.grouped import map_blocks

    stage = SignatureStage(**stage_kwargs)  # bad kwargs fail here, on the driver
    schema = ds.schema(fetch_if_missing=False)  # None where only an execution would tell
    payload = [
        c
        for c in stage.drop_cols
        if c not in (stage.text_col, stage.phash_col) and (schema is None or c in schema.names)
    ]
    if payload and not isinstance(ds, MaterializedDataset):
        ds = ds.map_batches(
            lambda t: t.drop_columns([c for c in payload if c in t.column_names]),
            batch_format="pyarrow",
            batch_size=None,
        )
    batch = SIGNATURE_BATCH_SIZE  # read on the driver: a size set at run time reaches the tasks

    def per_block(block: pa.Table) -> pa.Table:
        s = SignatureStage(**stage_kwargs)
        return pa.concat_tables([s(block.slice(i, batch)) for i in range(0, len(block), batch)])

    return map_blocks(ds, per_block)

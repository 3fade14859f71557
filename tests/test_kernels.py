"""Kernel conformance vs the reference (bit-exactness anchors).

Anchors per SURVEY.md §5 / FIXTURES.md F2:
- ``MinHash(4, seed=1).update(b"Hello")`` hashvalues
  (reference ``test/test_minhash.py:109-115``).
- batch == per-token loop (reference ``test/test_minhash.py:117-124``).
- band keys byte-identical to ``bytes(hv[s:e].byteswap().data)``
  (reference ``datasketch/lsh.py:537-538``).
- optimal (b, r): 0.9→(5,25), 0.8→(9,13), 0.5→(25,5)
  (doc anchor ``datasketch/lsh.py:98-100``; others measured).
"""

import numpy as np
import pytest

from raydedup import (
    band_keys,
    generate_permutations,
    hash_tokens32,
    jaccard_estimate,
    merge_signatures,
    minhash_batch,
    minhash_single,
    optimal_param,
    sha1_hash32,
    sha1_hash64,
)
from raydedup.hll import HllSketch
from raydedup.simhash import hamming_band_keys, hamming_distance64, simhash_from_tokens


def test_sha1_anchor():
    # hard-coded anchor: the reference's expected hashvalues imply this hash
    assert sha1_hash32(b"Hello") == sha1_hash32(b"Hello")
    assert sha1_hash32(b"a") != sha1_hash32(b"b")
    assert 0 <= sha1_hash32(b"x") < (1 << 32)
    assert 0 <= sha1_hash64(b"x") < (1 << 64)


def test_minhash_hello_anchor():
    sig = minhash_single([b"Hello"], num_perm=4, seed=1)
    assert sig.tolist() == [734825475, 960773806, 359816889, 342714745]


def test_permutations_match_reference(reference_datasketch):
    m = reference_datasketch.MinHash(num_perm=128, seed=1)
    a_ref, b_ref = m.permutations
    a, b = generate_permutations(128, seed=1)
    assert np.array_equal(a, a_ref)
    assert np.array_equal(b, b_ref)


def test_signatures_match_reference(reference_datasketch):
    docs = [
        [b"minhash", b"is", b"a", b"probabilistic", b"data", b"structure"],
        [b"a", b"b", b"c"],
        [],  # empty doc keeps MAX_HASH everywhere
        [b"Hello"] * 5,  # repeated tokens
    ]
    a, b = generate_permutations(128, seed=1)
    ours = minhash_batch(docs, a, b)
    for i, toks in enumerate(docs):
        m = reference_datasketch.MinHash(num_perm=128, seed=1)
        for t in toks:
            m.update(t)
        assert np.array_equal(ours[i], m.hashvalues), f"doc {i} mismatch"


def test_batch_equals_loop():
    a, b = generate_permutations(64, seed=7)
    toks = [f"tok{i}".encode() for i in range(100)]
    batch_sig = minhash_batch([toks], a, b)[0]
    # loop: one token per "batch", merged by elementwise min
    sigs = minhash_batch([[t] for t in toks], a, b)
    assert np.array_equal(batch_sig, merge_signatures(sigs))


def test_jaccard_estimate_matches_reference(reference_datasketch):
    s1 = [f"w{i}".encode() for i in range(50)]
    s2 = [f"w{i}".encode() for i in range(25, 75)]
    a, b = generate_permutations(128, seed=1)
    sig = minhash_batch([s1, s2], a, b)
    m1 = reference_datasketch.MinHash(num_perm=128, seed=1)
    m2 = reference_datasketch.MinHash(num_perm=128, seed=1)
    m1.update_batch(s1)
    m2.update_batch(s2)
    assert jaccard_estimate(sig[0], sig[1]) == pytest.approx(m1.jaccard(m2))


def test_band_keys_match_reference_layout():
    rng = np.random.default_rng(0)
    sig = rng.integers(0, 1 << 32, size=(3, 128), dtype=np.uint64)
    b, r = 9, 13
    keys = band_keys(sig, b, r)
    for i in range(3):
        hv = sig[i]
        for j in range(b):
            s, e = j * r, (j + 1) * r
            expect = bytes(hv[s:e].byteswap().data)  # reference lsh.py:537
            assert keys[i][j] == expect


def test_optimal_param_anchors():
    assert optimal_param(0.9, 128) == (5, 25)
    assert optimal_param(0.8, 128) == (9, 13)
    assert optimal_param(0.5, 128) == (25, 5)


def test_optimal_param_matches_reference(reference_datasketch):
    from datasketch.lsh import _optimal_param as ref_opt

    for thr in (0.5, 0.7, 0.8, 0.9):
        assert optimal_param(thr, 128) == ref_opt(thr, 128, 0.5, 0.5)


def test_hash_tokens32_repeats_match_scalar():
    toks = [b"a", b"b", b"a"]
    hv = hash_tokens32(toks)
    assert hv[0] == hv[2] == sha1_hash32(b"a")
    assert hv[1] == sha1_hash32(b"b")


def test_vectorized_digests_match_hashlib():
    """``digest_arrow`` (numpy rounds up to 55 bytes, hashlib above)
    equals ``hashlib`` itself for every profile and width, on both
    sides of the one-block cutover, on sliced, ``large_string``, binary,
    empty and multi-pass arrays."""
    import hashlib

    import pyarrow as pa

    from raydedup.hashing import _DIGEST_ROWS, digest_arrow, hash_bytes64

    def want(data: bytes, hf: str, bits: int) -> int:
        d = hashlib.sha1(data).digest() if hf == "sha1" else hashlib.md5(data).digest()[8:]
        return int.from_bytes(d[: bits // 8], "little")

    rng = np.random.default_rng(12)
    strs = ["".join(map(chr, rng.integers(32, 127, rng.integers(0, 80)))) for _ in range(300)]
    strs += ["é日本" * k for k in range(0, 30, 7)]  # multi-byte UTF-8
    strs += ["x" * n for n in (0, 55, 56, 63, 64, 119, 120)]
    strs += ["long_no_whitespace_shingle" * 400]  # ~10 KB, 163 blocks
    base = pa.array(strs, pa.string())
    arrays = [
        base,
        base.slice(5, 200),  # nonzero array offset
        pa.array(strs, pa.large_string()),
        pa.array([t.encode() for t in strs], pa.binary()),
        pa.array([], pa.string()),
        pa.array(strs * (_DIGEST_ROWS // len(strs) + 2), pa.string()),  # more rows than one numpy pass takes
    ]
    for arr in arrays:
        vals = [v.encode() if isinstance(v, str) else v for v in arr.to_pylist()]
        for hf in ("sha1", "md5"):
            for bits in (32, 64):
                got = digest_arrow(arr, hf, bits)
                assert got.dtype == np.uint64 and len(got) == len(vals)
                assert got.tolist() == [want(v, hf, bits) for v in vals], (arr.type, hf, bits)
    raw = [t.encode() for t in strs]
    assert hash_bytes64(raw).tolist() == [sha1_hash64(t) for t in raw]


def test_minhash_batch_hashed_chunks_equal_one_chunk():
    """Permuting in 16-token chunks (rows never split) gives the same
    signatures as one chunk, empty rows included."""
    from raydedup.minhash import minhash_batch_hashed

    rng = np.random.default_rng(3)
    counts = rng.integers(0, 40, 60)
    counts[[0, 7, 59]] = 0
    hv = rng.integers(0, 1 << 32, int(counts.sum()), dtype=np.uint64)
    a, b = generate_permutations(128, seed=1)
    one = minhash_batch_hashed(hv, counts, a, b, chunk_tokens=1 << 20)
    scratch: dict = {}
    assert np.array_equal(minhash_batch_hashed(hv, counts, a, b, chunk_tokens=16, scratch=scratch), one)
    assert np.array_equal(minhash_batch_hashed(hv, counts, a, b, chunk_tokens=16), one)


def test_mersenne_fold_top_branch_matches_bigint():
    """The Mersenne fold's rare ``y >= p`` branch against Python big
    ints, ``((a*h + b) % 2**64) % p & 0xFFFFFFFF``: a=1, b=p-1, h=1
    gives ``a*h + b = p`` exactly (y = p), and h = 2**64 - p gives
    2**64 - 1 (y = p + 7); rows mix values on both sides of the branch,
    at chunk sizes 16 and 1 << 20."""
    from raydedup.minhash import minhash_batch_hashed

    p = (1 << 61) - 1
    a, b = [1, 3], [p - 1, 7]
    rows = [[1], [2**64 - p, 1 << 40], [5, 2**64 - p, 9]]

    def ref(a_j, b_j, h):
        return ((a_j * h + b_j) % 2**64) % p & 0xFFFFFFFF

    want = [[min(ref(a_j, b_j, h) for h in row) for a_j, b_j in zip(a, b)] for row in rows]
    assert want[0][0] == 0 and want[1][0] == 7  # slots the branch decides
    hv = np.array([h for row in rows for h in row], np.uint64)
    counts = np.array([len(row) for row in rows])
    for chunk in (16, 1 << 20):
        got = minhash_batch_hashed(hv, counts, np.array(a, np.uint64), np.array(b, np.uint64), chunk_tokens=chunk)
        assert got.tolist() == want, chunk


def test_hll_matches_reference(reference_datasketch):
    items = [f"a-{k}-{k}".encode() for k in range(5000)]
    ref = reference_datasketch.HyperLogLog(p=8)
    for it in items:
        ref.update(it)
    ours = HllSketch(p=8)
    ours.update_tokens(items)
    assert np.array_equal(ours.reg, ref.reg)
    assert ours.count() == pytest.approx(ref.count())


def test_hll_merge_equals_single_pass():
    items = [f"v{k}".encode() for k in range(2000)]
    whole = HllSketch(p=12)
    whole.update_tokens(items)
    h1, h2 = HllSketch(p=12), HllSketch(p=12)
    h1.update_tokens(items[:1200])
    h2.update_tokens(items[800:])
    assert np.array_equal(h1.merge(h2).reg, whole.reg)


def test_simhash_properties():
    toks = [f"t{i}".encode() for i in range(40)]
    s1 = simhash_from_tokens([toks])[0]
    s2 = simhash_from_tokens([toks[:38] + [b"x", b"y"]])[0]
    s3 = simhash_from_tokens([[f"z{i}".encode() for i in range(40)]])[0]
    assert simhash_from_tokens([toks])[0] == s1  # deterministic
    d_near = hamming_distance64(np.array([s1]), np.array([s2]))[0]
    d_far = hamming_distance64(np.array([s1]), np.array([s3]))[0]
    assert d_near < d_far


def test_hamming_band_pigeonhole():
    rng = np.random.default_rng(3)
    base = rng.integers(0, 1 << 63, dtype=np.uint64)
    # flip 3 bits → with 4 bands at least one band equal
    flipped = base
    for bit in rng.choice(64, size=3, replace=False):
        flipped = np.uint64(flipped) ^ np.uint64(1 << int(bit))
    _, v1 = hamming_band_keys(np.array([base]), num_bands=4)
    _, v2 = hamming_band_keys(np.array([flipped]), num_bands=4)
    assert (v1 == v2).any()


# FIXTURES F2 micro corpus (reference test_lsh.py:109-125).
_MICRO_SETS = [[b"a", b"b", b"c"], [b"a", b"b", b"d"], [b"x", b"y", b"z"]]


def test_lsh_micro_anchor():
    """FIXTURES F2 anchor (reference test_lsh.py:109-125): at
    threshold 0.5 / 32 perms over [a,b,c]/[a,b,d]/[x,y,z], querying set 0
    must return candidates {0, 1} — reproduced by our band-bucket fold."""
    from raydedup.params import optimal_param
    from raydedup.stages.bands import fold_band_buckets
    from raydedup.minhash import minhash_batch
    from raydedup.hashing import generate_permutations

    sets = _MICRO_SETS
    a, bp = generate_permutations(32, 1)
    sig = minhash_batch(sets, a, bp)
    b_, r_ = optimal_param(0.5, 32)
    buckets = fold_band_buckets(sig, b_, r_).reshape(3, b_)
    cands = {j for j in range(3) if j != 0 and (buckets[0] == buckets[j]).any()}
    assert cands | {0} == {0, 1}


def test_lsh_micro_anchor_reference(reference_datasketch):
    """The live reference's own query on the F2 micro corpus returns the
    {0, 1} that ``test_lsh_micro_anchor`` pins for our fold."""
    sets = _MICRO_SETS
    lsh = reference_datasketch.MinHashLSH(threshold=0.5, num_perm=32)
    ms = []
    for i, s in enumerate(sets):
        m = reference_datasketch.MinHash(num_perm=32, seed=1)
        m.update_batch(s)
        ms.append(m)
        lsh.insert(i, m)
    assert set(lsh.query(ms[0])) == {0, 1}


def test_bit_length_u64_exact_vs_python():
    from raydedup.hll import _bit_length_u64

    edge = []
    for k in range(1, 64):
        edge += [(1 << k) - 1, 1 << k, (1 << k) + 1]
    edge += [0, 1, (1 << 64) - 1]
    vals = np.array([v & ((1 << 64) - 1) for v in edge], dtype=np.uint64)
    got = _bit_length_u64(vals)
    want = np.array([int(v).bit_length() for v in vals], dtype=np.int64)
    assert (got == want).all()


def test_content_hash_null_vs_empty_distinct():
    import pyarrow as pa

    from raydedup.stages.bands import _exact_key_hash128

    t = pa.table({"text": pa.array([None, "", "\x00"], pa.string()), "id": [1, 2, 3]})
    lo, hi = _exact_key_hash128(t, ("text",))
    h = list(zip(lo.tolist(), hi.tolist()))
    assert len(set(h)) == 3  # NULL, '' and literal '\x00' all distinct


def test_short_doc_shingles_empty():
    from raydedup.hashing import word_ngram_shingles

    assert word_ngram_shingles("one two", n=3) == set()
    assert word_ngram_shingles("", n=3) == set()
    assert word_ngram_shingles("a b c", n=3) == {b"a b c"}


def test_flat_ngram_hashes_match_python_shingles():
    """Vectorized window hashing is set-equivalent to the Python
    shingler: same distinct count per row, and equal shingle strings
    map to equal hashes ACROSS rows (randomized corpus)."""
    import numpy as np
    import pyarrow as pa

    from raydedup.hashing import word_ngram_shingles
    from raydedup.suffix import flat_ngram_hashes64, unique_per_row

    rng = np.random.default_rng(0)
    vocab = [f"w{i}" for i in range(30)] + ["W3", "ACCENTé", "x" * 40]
    texts = []
    for _ in range(200):
        k = int(rng.integers(0, 12))
        texts.append(" " * int(rng.integers(0, 3)) + "  ".join(rng.choice(vocab, k)))
    texts += ["", None, "one two", "a b c", "A  B\tC\nD"]
    col = pa.array(texts, pa.string())
    for n in (1, 2, 3):
        cnt, w = flat_ngram_hashes64(col, n)
        ucnt, uw = unique_per_row(cnt, w)
        off = np.cumsum(ucnt) - ucnt
        for i, t in enumerate(texts):
            sh = word_ngram_shingles(t or "", n=n)
            assert ucnt[i] == len(sh), (n, i, t)
            row = np.sort(uw[off[i] : off[i] + ucnt[i]])
            assert (row == uw[off[i] : off[i] + ucnt[i]]).all()  # sorted per row
        # cross-row consistency: rows sharing shingle strings share hashes
        a = pa.array(["the quick brown fox", "the quick brown cat"], pa.string())
        c2, w2 = flat_ngram_hashes64(a, n)
        u2c, u2 = unique_per_row(c2, w2)
        o2 = np.cumsum(u2c) - u2c
        r0 = set(u2[o2[0] : o2[0] + u2c[0]])
        r1 = set(u2[o2[1] : o2[1] + u2c[1]])
        shared = len(
            word_ngram_shingles("the quick brown fox", n)
            & word_ngram_shingles("the quick brown cat", n)
        )
        assert len(r0 & r1) == shared


def test_allpairs_kernel_property_random_thresholds():
    """Property test for the AllPairs kernels on one block (prefix +
    length + PPJoin positional filters, then code scoring) against
    exact brute force over random corpora and RANDOM thresholds — the
    boundary class where floor/ceil float error bites (the r04
    prefix-underflow bug fired only at binary-inexact thresholds).
    Pure numpy, no Ray: the operators run these same functions per
    block, with a count-min DF estimate in place of the exact DF."""
    import pyarrow as pa

    from raydedup.hashing import word_ngram_shingles
    from raydedup.stages.dedup import (
        _allpairs_window_pairs,
        _code_intersections,
        _containment_window_pairs,
        _prefix_explode,
        _scored_pairs,
    )
    from raydedup.suffix import flat_ngram_hashes64, unique_per_row

    rng = np.random.default_rng(3)
    vocab = [f"t{k}" for k in range(20)]
    for trial in range(6):
        docs, base = [], []
        for _ in range(40):
            L = int(rng.integers(3, 24))
            base.append([vocab[k] for k in rng.integers(0, len(vocab), L)])
            docs.append(" ".join(base[-1]))
        for _ in range(30):
            src = list(base[int(rng.integers(0, len(base)))])
            for _ in range(int(rng.integers(0, 3))):
                src[int(rng.integers(0, len(src)))] = vocab[
                    int(rng.integers(0, len(vocab)))
                ]
            docs.append(" ".join(src))
        t = pa.table({"doc_id": pa.array(range(len(docs)), pa.int64()), "text": docs})
        sets = [word_ngram_shingles(d, n=3) for d in docs]
        cnt, w = flat_ngram_hashes64(t.column("text"), 3)
        lens, hs = unique_per_row(cnt, w)
        uniq, codes, df = np.unique(hs, return_inverse=True, return_counts=True)
        offs = np.cumsum(lens) - lens
        threshold = float(rng.choice([0.3, 0.4, 0.6, 0.7, 0.8, 0.9, 2 / 3, 5 / 7]))
        for mode in ("jaccard", "containment"):
            rows = _prefix_explode(
                t, "doc_id", "text", 3, threshold,
                lambda h: df[np.searchsorted(uniq, h)], mode,
            ).sort_by("anchor")
            anc = rows.column("anchor").to_numpy()
            change = np.flatnonzero(anc[1:] != anc[:-1]) + 1
            starts, ends = np.r_[0, change], np.r_[change, len(anc)]
            szs = rows.column("sz").to_numpy().astype(np.float64)
            rems = rows.column("rem").to_numpy().astype(np.float64)
            if mode == "jaccard":
                a, b = _allpairs_window_pairs(
                    rows.column("doc_id"), szs, rems, starts, ends, threshold
                )
            else:
                a, b = _containment_window_pairs(
                    rows.column("doc_id"), rows.column("role").to_numpy(),
                    szs, rems, starts, ends, threshold,
                )
            cand = np.unique(np.stack([a.to_numpy(), b.to_numpy()], axis=1), axis=0)
            ia, ib = cand[:, 0], cand[:, 1]
            inter = _code_intersections(codes, offs, lens, ia, ib, len(uniq))
            out = _scored_pairs(
                pa.array(ia), pa.array(ib), inter, lens[ia], lens[ib], threshold, mode
            ).to_pydict()
            got = dict(zip(zip(out["id_a"], out["id_b"]), out[mode]))
            want = {}
            for x in range(len(docs)):
                for y in range(len(docs)):
                    A, B = sets[x], sets[y]
                    if not A or not B or x == y:
                        continue
                    inter_xy = len(A & B)
                    if mode == "jaccard":
                        if x < y and inter_xy / len(A | B) >= threshold:
                            want[(x, y)] = inter_xy / len(A | B)
                    elif inter_xy / len(A) >= threshold:
                        want[(x, y)] = inter_xy / len(A)
            assert got == want, (trial, mode, threshold, got.keys() ^ want.keys())


_SIG_STAGE_DOCS = (
    ["", None, "one two", "one two three", "a b c d e f", "的 一 是 了 我"]
    + ["Hello World hello WORLD x", "  padded   whitespace  doc  "]
    + [f"doc {i % 7} body text token{i % 11} tail words here" for i in range(40)]
)


def _signature_stage(hashfunc, force_rows=False):
    """word3 signatures of ``_SIG_STAGE_DOCS``; ``force_rows`` disables
    the flat word-shingle path so the per-row shingler runs."""
    import pyarrow as pa

    from raydedup.schema import sig_to_numpy
    from raydedup.stages.signatures import SignatureStage

    batch = pa.table({"caption": pa.array(_SIG_STAGE_DOCS, pa.string())})
    st = SignatureStage(
        num_perm=128, seed=1, shingle="word3", text_col="caption",
        phash_col=None, hashfunc=hashfunc,
    )
    if force_rows:
        st.word_n = None
    return sig_to_numpy(st(batch).column("minhash"), 128)


def test_signature_stage_flat_equals_rows_path():
    """r05 (VERDICT r04 next-#1): the vectorized word-shingle path
    (Arrow split/take/join + unique-only SHA1) must produce signatures
    identical to the per-row shingler path — including nulls, empties,
    sub-n docs, unicode, and within-batch duplicates (which now permute
    once). ``test_signature_stage_matches_reference`` checks the same
    signatures against the live reference."""
    stage = _signature_stage
    for hf in ("sha1", "md5"):
        assert np.array_equal(stage(hf), stage(hf, force_rows=True)), hf


def test_signature_stage_matches_reference(reference_datasketch):
    """The flat word-shingle signatures equal the live reference's
    ``MinHash`` at the same config, on the sha1 contract."""
    from raydedup.hashing import word_ngram_shingles

    docs = _SIG_STAGE_DOCS
    sigs = _signature_stage("sha1")
    for i, d in enumerate(docs):
        m = reference_datasketch.MinHash(num_perm=128, seed=1)
        for t in sorted(word_ngram_shingles(d or "", 3)):
            m.update(t)
        assert np.array_equal(sigs[i], m.hashvalues), f"doc {i}"


def test_signature_map_equals_driver_stage(ray_session, monkeypatch):
    """``signature_map`` over more input blocks than CPUs (several
    batches per block, one zero-row block), pinned and lazy, gives the
    driver-side stage's signatures row for row in the input's order, in
    at most P = 4 blocks (the test session's CPUs); it drops ``bytes``
    by default and whatever ``drop_cols`` names."""
    import pyarrow as pa
    import ray
    import ray.data as rd

    import raydedup.stages.signatures as S
    from raydedup.schema import sig_to_numpy

    monkeypatch.setattr(S, "SIGNATURE_BATCH_SIZE", 8)
    n = len(_SIG_STAGE_DOCS)
    table = pa.table(
        {
            "doc_id": pa.array(range(n), pa.int64()),
            "text": pa.array(_SIG_STAGE_DOCS, pa.string()),
            "bytes": pa.array([b"x"] * n, pa.binary()),
        }
    )
    cuts = [0, 5, 11, 11, 20, 26, 33, 41, n]  # 8 blocks, one with zero rows
    ds = rd.from_arrow([table.slice(s, e - s) for s, e in zip(cuts, cuts[1:])])
    assert ds.num_blocks() == 8 and ds._meta_count() == n
    lazy = rd.from_arrow(table).repartition(6)
    for kw in (
        dict(text_col="text", phash_col=None),
        dict(text_col="text", phash_col=None, hashfunc="md5"),
    ):
        want = sig_to_numpy(S.SignatureStage(**kw)(table).column("minhash"))
        for src in (ds, lazy):
            out_ds = S.signature_map(src, **kw)
            assert out_ds.num_blocks() <= 4, kw
            out = pa.concat_tables(ray.get(out_ds.to_arrow_refs()))
            assert sorted(out.column_names) == ["doc_id", "minhash", "text"], kw
            ids = out.column("doc_id").to_numpy()
            assert ids.tolist() == list(range(n)), kw
            assert np.array_equal(sig_to_numpy(out.column("minhash")), want[ids]), kw
    dropped = S.signature_map(ds, text_col="text", phash_col=None, drop_cols=("text",))
    assert sorted(dropped.schema().names) == ["bytes", "doc_id", "minhash"]
    both = S.signature_map(lazy, text_col="text", phash_col=None, drop_cols=("bytes", "text"))
    assert sorted(both.schema().names) == ["doc_id", "minhash"]
    assert both.count() == n


def test_query_signatures_equal_minhash_batch():
    """The query-row signatures of ``topk_similar_docs`` and
    ``forest_topk_docs`` (one driver-side ``SignatureStage`` call, md5
    profile) equal the sorted-shingle ``minhash_batch`` values for
    doc_ids 0..4."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from raydedup.hashing import word_ngram_shingles
    from raydedup.schema import sig_to_numpy
    from raydedup.stages.signatures import SignatureStage

    docs = pq.read_table("/root/testdata/sf0.001/documents.parquet", columns=["doc_id", "text"])
    rows = docs.filter(pc.is_in(docs.column("doc_id"), value_set=pa.array(range(5)))).sort_by("doc_id")
    assert rows.column("doc_id").to_pylist() == [0, 1, 2, 3, 4]
    texts = rows.column("text").to_pylist()
    stage = SignatureStage(text_col="text", phash_col=None, hashfunc="md5")
    got = sig_to_numpy(stage(pa.table({"text": pa.array(texts, pa.string())})).column("minhash"))
    a, b = generate_permutations(128, 1)
    want = minhash_batch([sorted(word_ngram_shingles(t, 3)) for t in texts], a, b, hashfunc="md5")
    assert np.array_equal(got, want)


def test_allpairs_window_pairs_matches_scalar_reference():
    """The flat AllPairs window kernel (merged searchsorted + PPJoin
    positional bound) must match the per-run scalar reference pair for
    pair — including the exact-threshold boundary class the r4 epsilon
    fix guards (15·0.2 → prefix underflow)."""
    import numpy as np
    import pyarrow as pa

    from raydedup.stages.dedup import (
        _allpairs_window_pairs,
        _allpairs_window_pairs_loop,
    )

    rng = np.random.default_rng(7)
    sizes = rng.integers(2, 9, 800)
    tot = int(sizes.sum())
    raw = rng.integers(0, tot // 2, tot)
    szs = rng.integers(3, 40, tot).astype(np.float64)
    rems = np.maximum(1, szs * rng.random(tot)).astype(np.float64)
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    ends = np.cumsum(sizes)
    for ids_arr, ids_np in (
        (pa.array([f"d{v:06d}" for v in raw]), np.array([f"d{v:06d}" for v in raw], dtype=object)),
        (pa.array(raw, pa.int64()), raw),
    ):
        for t in (0.8, 0.5, 0.2):
            a1, b1 = _allpairs_window_pairs(ids_arr, szs, rems, starts, ends, t)
            a0, b0 = _allpairs_window_pairs_loop(ids_np, szs, rems, starts, ends, t)
            got = sorted(zip(a1.to_pylist(), b1.to_pylist())) if a1 is not None else None
            want = sorted(zip(list(a0), list(b0))) if a0 is not None else None
            assert got == want, t
    # exact-threshold boundary sizes (equal sizes at the window edge)
    szs = np.array([15.0, 15.0, 12.0, 12.0])
    rems = szs.copy()
    ids = pa.array([1, 2, 3, 4], pa.int64())
    st, en = np.array([0]), np.array([4])
    for t in (0.8, 0.5):
        a1, b1 = _allpairs_window_pairs(ids, szs, rems, st, en, t)
        a0, b0 = _allpairs_window_pairs_loop(np.array([1, 2, 3, 4]), szs, rems, st, en, t)
        assert sorted(zip(a1.to_pylist(), b1.to_pylist())) == sorted(zip(list(a0), list(b0)))

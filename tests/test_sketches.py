"""Conformance for the wider sketch surface: weighted MinHash, b-bit,
cardinality, HLL++(64-bit), union aggregate, containment params."""

import numpy as np
import pytest

from raydedup.hll import HllPlusPlusSketch
from raydedup.minhash import cardinality_estimate, minhash_single
from raydedup.weighted import (
    WeightedMinHashGenerator,
    bbit_compress,
    bbit_jaccard,
    weighted_jaccard_estimate,
)


def test_weighted_minhash_matches_reference(reference_datasketch):
    ref_gen = reference_datasketch.WeightedMinHashGenerator(30, sample_size=64, seed=7)
    gen = WeightedMinHashGenerator(30, sample_size=64, seed=7)
    rng = np.random.default_rng(0)
    for _ in range(5):
        v = rng.integers(0, 10, 30).astype(float)
        if (v == 0).all():
            v[0] = 1
        ours = gen.minhash(v)
        theirs = ref_gen.minhash(v.copy())
        assert np.array_equal(ours, theirs.hashvalues)


def test_weighted_jaccard_matches_reference(reference_datasketch):
    ref_gen = reference_datasketch.WeightedMinHashGenerator(50, sample_size=128, seed=1)
    gen = WeightedMinHashGenerator(50, sample_size=128, seed=1)
    rng = np.random.default_rng(1)
    v1 = rng.integers(0, 5, 50).astype(float) + 1
    v2 = v1.copy()
    v2[:10] += 3
    ours = weighted_jaccard_estimate(gen.minhash(v1), gen.minhash(v2))
    theirs = ref_gen.minhash(v1.copy()).jaccard(ref_gen.minhash(v2.copy()))
    assert ours == pytest.approx(theirs)


def test_weighted_batch_empty_rows():
    gen = WeightedMinHashGenerator(10, sample_size=16, seed=1)
    X = np.array([[1, 0, 2, 0, 0, 0, 0, 0, 0, 0], [0] * 10], dtype=float)
    out = gen.minhash_batch(X)
    assert out[0] is not None and out[1] is None


def test_bbit_matches_reference(reference_datasketch):
    s1 = [f"w{i}".encode() for i in range(60)]
    s2 = [f"w{i}".encode() for i in range(30, 90)]
    m1 = reference_datasketch.MinHash(num_perm=128, seed=1)
    m2 = reference_datasketch.MinHash(num_perm=128, seed=1)
    m1.update_batch(s1)
    m2.update_batch(s2)
    for b in (1, 2, 4, 8, 16):
        ref1 = reference_datasketch.bBitMinHash(m1, b=b)
        ref2 = reference_datasketch.bBitMinHash(m2, b=b)
        ours1 = bbit_compress(minhash_single(s1), b)
        ours2 = bbit_compress(minhash_single(s2), b)
        assert np.array_equal(ours1.astype(np.uint32), ref1.hashvalues)
        j = bbit_jaccard(ours1, ours2, b=b)
        assert float(j) == pytest.approx(ref1.jaccard(ref2))


def test_cardinality_matches_reference(reference_datasketch):
    toks = [f"x{i}".encode() for i in range(500)]
    m = reference_datasketch.MinHash(num_perm=128, seed=1)
    m.update_batch(toks)
    ours = cardinality_estimate(minhash_single(toks))
    assert float(ours) == pytest.approx(m.count())


def test_hllpp_matches_reference_large_range(reference_datasketch):
    """Above the bias-correction band (e > 5m) HLL++ uses the raw
    estimator — registers and counts must match the reference exactly."""
    items = [f"item-{i}".encode() for i in range(30_000)]
    ref = reference_datasketch.HyperLogLogPlusPlus(p=8)
    for it in items:
        ref.update(it)
    ours = HllPlusPlusSketch(p=8)
    ours.update_tokens(items)
    assert np.array_equal(ours.reg, ref.reg)
    assert ours.count() == pytest.approx(ref.count())


def test_minhash_union_aggregate(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from raydedup.hashing import generate_permutations
    from raydedup.minhash import merge_signatures, minhash_batch, minhash_union_aggregate
    from raydedup.schema import numpy_to_sig

    a, b = generate_permutations(32, 1)
    docs = [[f"t{i}{j}".encode() for j in range(20)] for i in range(10)]
    sig = minhash_batch(docs, a, b)
    t = pa.table(
        {
            "grp": pa.array(["g1"] * 5 + ["g2"] * 5),
            "minhash": numpy_to_sig(sig, 32),
        }
    )
    out = (
        rd.from_arrow(t)
        .groupby("grp")
        .aggregate(minhash_union_aggregate("minhash", 32, alias_name="u"))
        .take_all()
    )
    got = {r["grp"]: np.array(r["u"], dtype=np.uint64) for r in out}
    assert np.array_equal(got["g1"], merge_signatures(sig[:5]))
    assert np.array_equal(got["g2"], merge_signatures(sig[5:]))


def test_optimal_containment_param_matches_reference(reference_datasketch):
    from datasketch.lshensemble import _optimal_param as ref_opt

    from raydedup.stages.topk import optimal_containment_param

    for thr in (0.5, 0.8):
        for xq in (0.5, 1.0, 2.0):
            assert optimal_containment_param(thr, 64, 8, xq) == ref_opt(thr, 64, 8, xq, 0.5, 0.5)


def test_containment_pairs_exact(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from raydedup.hashing import word_ngram_shingles
    from raydedup.stages.topk import containment_pairs_exact

    rng = np.random.default_rng(5)
    vocab = [f"w{i}" for i in range(40)]
    texts = [" ".join(vocab[j] for j in rng.integers(0, 40, size=rng.integers(6, 20))) for i in range(60)]
    # plant strict containments
    texts[50] = texts[0] + " " + texts[1]
    texts[51] = texts[2]
    ids = list(range(60))
    t = pa.table({"doc_id": pa.array(ids, pa.int64()), "text": pa.array(texts)})
    got = {
        (r["id_a"], r["id_b"])
        for r in containment_pairs_exact(
            rd.from_arrow(t), "doc_id", "text", n=3, threshold=0.5, num_partitions=4
        ).take_all()
    }
    # brute force oracle
    sh = [word_ngram_shingles(x, 3) for x in texts]
    want = {
        (i, j)
        for i in ids
        for j in ids
        if i != j and sh[i] and len(sh[i] & sh[j]) / len(sh[i]) >= 0.5
    }
    assert got == want


def test_topk_similar(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from raydedup.hashing import generate_permutations, word_ngram_shingles
    from raydedup.minhash import minhash_batch
    from raydedup.schema import numpy_to_sig
    from raydedup.stages.topk import topk_similar

    rng = np.random.default_rng(9)
    vocab = [f"w{i}" for i in range(50)]
    texts = [" ".join(vocab[j] for j in rng.integers(0, 50, size=15)) for _ in range(40)]
    a, b = generate_permutations(128, 1)
    sig = minhash_batch([sorted(word_ngram_shingles(x, 3)) for x in texts], a, b)
    t = pa.table(
        {"image_id": pa.array([f"d{i:03d}" for i in range(40)]), "minhash": numpy_to_sig(sig)}
    )
    out = topk_similar(rd.from_arrow(t), sig[:3], ["d000", "d001", "d002"], k=5).take_all()
    by_q = {}
    for r in out:
        by_q.setdefault(r["query_id"], []).append(r)
    for qid in ("d000", "d001", "d002"):
        rows = sorted(by_q[qid], key=lambda r: -r["jaccard"])
        assert len(rows) == 5
        assert rows[0]["image_id"] == qid and rows[0]["jaccard"] == 1.0


def test_lean_serialization_matches_reference(reference_datasketch):
    from raydedup.minhash import lean_deserialize, lean_serialize

    toks = [f"t{i}".encode() for i in range(40)]
    m = reference_datasketch.MinHash(num_perm=16, seed=3)
    m.update_batch(toks)
    lm = reference_datasketch.LeanMinHash(m)
    for order in ("@", "<", ">"):
        buf = bytearray(lm.bytesize(order))
        lm.serialize(buf, order)
        ours = lean_serialize(minhash_single(toks, num_perm=16, seed=3), seed=3, byteorder=order)
        assert bytes(buf) == ours
        seed, vals = lean_deserialize(ours, order)
        assert seed == 3 and np.array_equal(vals, m.hashvalues)


def test_remove_ids(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from raydedup.stages.dedup import remove_ids

    t = pa.table({"doc_id": pa.array(range(10), pa.int64()), "x": pa.array(range(10))})
    out = remove_ids(rd.from_arrow(t), {2, 5, 7}, "doc_id").take_all()
    assert sorted(r["doc_id"] for r in out) == [0, 1, 3, 4, 6, 8, 9]


def test_hllpp_bias_band_matches_reference(reference_datasketch):
    """Inside the bias-correction band (threshold < lc, e <= 5m) the
    estimate must match the reference's tabulated-bias subtraction
    exactly (tables from the published HLL++ companion data)."""
    for n in (5_000, 9_000, 15_000):
        items = [f"u{i}".encode() for i in range(n)]
        ref = reference_datasketch.HyperLogLogPlusPlus(p=12)
        for it in items:
            ref.update(it)
        ours = HllPlusPlusSketch(p=12)
        ours.update_tokens(items)
        assert np.array_equal(ours.reg, ref.reg)
        assert ours.count() == pytest.approx(ref.count(), rel=1e-12)


def test_hllpp_aggregate_distributed(ray_session):
    """hllpp_aggregate_fn == single-pass sketch over the same values."""
    import pyarrow as pa
    import ray.data as rd

    from raydedup.hll import hllpp_aggregate_fn

    vals = [f"user{i % 3000}" for i in range(20_000)]
    ds = rd.from_arrow(pa.table({"u": pa.array(vals)})).repartition(8)
    got = ds.aggregate(hllpp_aggregate_fn("u", p=12, alias_name="ndv"))["ndv"]
    sk = HllPlusPlusSketch(p=12)
    sk.update_tokens([v.encode() for v in set(vals)])
    assert got == pytest.approx(sk.count(), rel=1e-12)


def _nfp_total(parts, sizes, counts):
    """Expected false positives of a size partition (the DP objective)."""
    tot = 0.0
    for lo, up in parts:
        m = (sizes >= lo) & (sizes <= up)
        tot += float(np.sum((up - sizes[m]) / up * counts[m]))
    return tot


def _partition_cases():
    """Seeded random size histograms and partition counts, as
    ``(sizes, counts, npart)``."""
    rng = np.random.default_rng(7)
    for _ in range(6):
        sizes = np.unique(rng.integers(1, 100, size=int(rng.integers(5, 12))))
        counts = rng.integers(1, 50, size=len(sizes))
        for npart in (2, 3, 4):
            if npart >= len(sizes):
                continue
            yield sizes, counts, npart


def test_optimal_partitions_exhaustively_optimal():
    """Our size-partition DP must hit the exhaustive optimum of the
    expected-false-positive objective. The reference's DP backtrack can
    return suboptimal splits (observed on random histograms);
    ``test_optimal_partitions_not_worse_than_reference`` asserts ours is
    never WORSE than the reference's choice."""
    import itertools

    from raydedup.stages.topk import optimal_partitions as our_parts

    for sizes, counts, npart in _partition_cases():
        S = len(sizes)
        best = min(
            sum(
                _nfp_total([(sizes[b[i] + 1] if i else sizes[0], sizes[b[i + 1]])], sizes, counts)
                for i in range(npart)
            )
            for b in (
                [-1] + list(c) + [S - 1]
                for c in itertools.combinations(range(S - 1), npart - 1)
            )
        )
        ours = _nfp_total(our_parts(sizes, counts, npart), sizes, counts)
        assert ours == pytest.approx(best, abs=1e-9)


def test_optimal_partitions_not_worse_than_reference(reference_datasketch):
    """Our DP's expected false positives never exceed those of the
    reference's ``optimal_partitions`` on the same histograms."""
    from datasketch.lshensemble_partition import optimal_partitions as ref_parts

    from raydedup.stages.topk import optimal_partitions as our_parts

    for sizes, counts, npart in _partition_cases():
        ours = _nfp_total(our_parts(sizes, counts, npart), sizes, counts)
        ref = _nfp_total(ref_parts(sizes, counts, npart), sizes, counts)
        assert ours <= ref + 1e-9


def test_ensemble_salt_wraps_without_warning():
    """The ensemble bucket salt equals the wrapped ``np.uint64``
    products it was defined with, and computing it raises no overflow
    warning."""
    import warnings

    from raydedup.stages.topk import _salt

    for pi, r in [(0, 1), (1, 8), (5, 13), (15, 32), (1023, 128)]:
        # array products wrap silently; numpy scalar products warn
        want = np.array([pi + 1], np.uint64) * np.uint64(0x9E3779B97F4A7C15) ^ np.array([r], np.uint64) * np.uint64(0xC2B2AE3D27D4EB4F)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _salt(pi, r)
        assert isinstance(got, np.uint64) and got == want[0]


def test_ensemble_containment_recall(ray_session):
    """Full-semantics LSH Ensemble (DP partitions + xq-grid params):
    every indexed set must be retrievable by an identical twin query at
    its own size (the reference test_lshensemble acceptance), and
    planted high-containment subsets must be found."""
    import pyarrow as pa
    import ray.data as rd

    from raydedup.hashing import generate_permutations, word_ngram_shingles
    from raydedup.minhash import minhash_batch
    from raydedup.stages.topk import ensemble_containment_candidates

    rng = np.random.default_rng(5)
    vocab = [f"tok{i}" for i in range(2000)]
    docs = {}
    planted = []
    for i in range(60):
        size = int(rng.integers(8, 200))
        words = list(rng.choice(vocab, size=size, replace=False))
        docs[2 * i] = " ".join(words)
        docs[2 * i + 1] = " ".join(words)  # identical twin
        if size >= 20:
            sub = words[: size // 2]  # containment 1.0 subset
            docs[1000 + i] = " ".join(sub)
            planted.append((1000 + i, 2 * i))

    ids = sorted(docs)
    shingles = [sorted(word_ngram_shingles(docs[i], n=1)) for i in ids]
    a, b = generate_permutations(128, 1)
    sigs = minhash_batch(shingles, a, b)
    from raydedup.schema import numpy_to_sig

    t = pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "minhash": numpy_to_sig(np.asarray(sigs)),
            "set_size": pa.array([len(s) for s in shingles], pa.int64()),
        }
    )
    ds = rd.from_arrow(t).repartition(4)
    pairs = ensemble_containment_candidates(
        ds, "doc_id", "set_size", threshold=0.5, num_perm=128, num_part=4, max_r=8
    ).take_all()
    got = {(r["id_a"], r["id_b"]) for r in pairs}
    # twins: containment 1.0 both directions
    twin_hits = sum(1 for i in range(60) if (2 * i, 2 * i + 1) in got or (2 * i + 1, 2 * i) in got)
    assert twin_hits >= 59  # ≥ 0.98 recall on exact twins
    planted_hits = sum(1 for q, c in planted if (q, c) in got)
    assert planted_hits / max(len(planted), 1) >= 0.9


def test_bbit_block_packing_matches_reference(reference_datasketch):
    """bbit_pack produces the reference's exact uint64 block layout
    (b_bit_minhash.py __getstate__), vectorized; round-trips exactly."""
    import struct

    from raydedup.hashing import generate_permutations
    from raydedup.minhash import minhash_batch
    from raydedup.weighted import bbit_compress, bbit_pack, bbit_unpack

    tokens = sorted({f"t{i}".encode() for i in range(300)})
    a, b_ = generate_permutations(128, 1)
    sig = minhash_batch([tokens], a, b_)[0]

    ref_m = reference_datasketch.MinHash(num_perm=128, seed=1)
    ref_m.update_batch(tokens)
    for b in (1, 2, 3, 4, 7, 8, 12, 16, 32):
        ours_vals = bbit_compress(sig, b)
        blocks = bbit_pack(ours_vals, b)
        ref_bb = reference_datasketch.bBitMinHash(ref_m, b=b)
        state = bytes(ref_bb.__getstate__())
        off = struct.calcsize(ref_bb._serial_fmt_params)
        nblk = (len(state) - off) // 8
        ref_blocks = np.array(
            struct.unpack_from(f"{nblk}{ref_bb._serial_fmt_block}", state, off),
            dtype=np.uint64,
        )
        assert np.array_equal(blocks, ref_blocks), b
        assert np.array_equal(bbit_unpack(blocks, 128, b), ours_vals.astype(np.uint32))


def test_uint64_wraparound_folds_raise_no_overflow_warning(ray_session):
    """The forest prefix-table / query-prefix folds and the fingerprint
    powers wrap uint64 on purpose; they must not emit numpy's overflow
    RuntimeWarning (pytest output stays warning-free)."""
    import warnings

    import pyarrow as pa
    import ray.data as rd

    from raydedup.schema import numpy_to_sig
    from raydedup.stages.text import _FP_POWERS, _fp_powers
    from raydedup.stages.topk import forest_prefix_table, forest_topk

    sigs = np.random.default_rng(9).integers(0, 1 << 32, (8, 128), dtype=np.uint64)
    t = pa.table({"doc_id": pa.array(range(8), pa.int64()), "minhash": numpy_to_sig(sigs)})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # Ray's dataset loggers leave their log files to the GC
        warnings.simplefilter("ignore", ResourceWarning)
        _FP_POWERS.pop(23, None)  # the cache would skip the fold
        assert _fp_powers(23)[-1] == 1
        table = forest_prefix_table(rd.from_arrow(t), "doc_id", l=4, k=8).materialize()
        res = forest_topk(table, sigs[:2], [0, 1], topk=1, id_col="doc_id", l=4, k=8).take_all()
    assert sorted(r["doc_id"] for r in res) == [0, 1]


def test_forest_prefix_table_matches_reference(ray_session, reference_datasketch):
    """Per-depth candidate parity with MinHashLSHForest: a candidate
    matches at depth ≥ r in our prefix table iff the reference's
    ``_query(minhash, r, l)`` yields it; top-k self/twin retrieval."""
    import pyarrow as pa
    import ray.data as rd

    from raydedup.hashing import generate_permutations
    from raydedup.minhash import minhash_batch
    from raydedup.schema import numpy_to_sig
    from raydedup.stages.topk import forest_prefix_table, forest_topk

    rng = np.random.default_rng(4)
    vocab = [f"w{i}".encode() for i in range(800)]
    docs = {}
    for i in range(40):
        base = sorted(set(rng.choice(vocab, size=40, replace=False)))
        docs[2 * i] = base
        mutated = sorted(set(base[:-4]) | {f"x{i}".encode()})
        docs[2 * i + 1] = mutated  # near-dup twin
    ids = sorted(docs)
    a, b = generate_permutations(128, 1)
    sigs = minhash_batch([docs[i] for i in ids], a, b)

    l, k = 8, 16
    forest = reference_datasketch.MinHashLSHForest(num_perm=128, l=l)
    mhs = {}
    for i, row_id in enumerate(ids):
        m = reference_datasketch.MinHash(num_perm=128, seed=1)
        m.update_batch(docs[row_id])
        assert np.array_equal(m.hashvalues, sigs[i])
        mhs[row_id] = m
        forest.add(row_id, m)
    forest.index()

    t = pa.table({"doc_id": pa.array(ids, pa.int64()), "minhash": numpy_to_sig(np.asarray(sigs))})
    prefix_ds = rd.from_arrow(t).repartition(4)
    table = forest_prefix_table(prefix_ds, "doc_id", l=l, k=k).materialize()

    # per-depth parity for a few queries/depths: our matches at depth ≥ r
    # == reference _query(r) candidate set
    import pyarrow.compute as pc

    qsel = ids[:6]
    res = forest_topk(
        table, sigs[: len(qsel)], qsel, topk=len(ids), id_col="doc_id", l=l, k=k
    ).take_all()
    # rebuild per-candidate max depth from our own primitive result: use
    # reference comparison at r = k (exact twin depth) via top-1
    top1: dict = {}
    for r in res:
        top1.setdefault(r["query_id"], []).append(r["doc_id"])
    for q in qsel:
        # self always matches at full depth; an exact-tree-tying twin
        # can win the id tie-break, so self is within the tie group
        assert q in top1[q][:2]
    # depth parity: reference _query at full depth k == docs sharing a
    # whole-tree prefix; our rank-1..n ordering puts exactly those first
    for q in qsel[:3]:
        ref_full = set(forest._query(mhs[q], k, l))
        ours_sorted = top1[q]
        assert ref_full.issubset(set(ours_sorted[: max(len(ref_full), 1)]))

    # top-k query: twin of every even doc is retrieved in top-3
    res3 = forest_topk(table, sigs, ids, topk=3, id_col="doc_id", l=l, k=k).take_all()
    by_q: dict = {}
    for r in res3:
        by_q.setdefault(r["query_id"], set()).add(r["doc_id"])
    found = sum(1 for i in range(40) if (2 * i + 1) in by_q.get(2 * i, set()))
    assert found >= 30  # forest recall on near-dup twins


def test_hll_wire_format_round_trips_with_reference(reference_datasketch):
    """Byte-compatible serialize/deserialize vs the live reference
    (``hyperloglog.py:280-302``): bytes written by either side restore
    identical registers and counts in the other."""
    import numpy as np

    from raydedup.hll import HllPlusPlusSketch, HllSketch

    tokens = [f"tok-{i}".encode() for i in range(5000)]

    # 32-bit HLL, reference sha1-based default hash on both sides
    ref = reference_datasketch.HyperLogLog(p=10)
    for t in tokens:
        ref.update(t)
    mine = HllSketch(p=10, hashfunc="sha1")
    mine.update_tokens(tokens)
    assert np.array_equal(mine.reg, ref.reg)

    # mine -> reference
    buf = mine.serialize()
    ref2 = reference_datasketch.HyperLogLog.deserialize(buf)
    assert ref2.p == 10 and np.array_equal(ref2.reg, ref.reg)
    assert ref2.count() == ref.count()

    # reference -> mine
    rbuf = bytearray(ref.bytesize())
    ref.serialize(rbuf)
    back = HllSketch.deserialize(bytes(rbuf))
    assert back.p == 10 and np.array_equal(back.reg, mine.reg)
    assert back.count() == mine.count()

    # in-place pack like the reference API
    inplace = bytearray(mine.bytesize())
    mine.serialize(inplace)
    assert bytes(inplace) == buf

    # 64-bit HLL++ inherits the same layout
    refpp = reference_datasketch.HyperLogLogPlusPlus(p=12)
    for t in tokens:
        refpp.update(t)
    minepp = HllPlusPlusSketch(p=12, hashfunc="sha1")
    minepp.update_tokens(tokens)
    assert np.array_equal(minepp.reg, refpp.reg)
    backpp = HllPlusPlusSketch.deserialize(minepp.serialize())
    assert isinstance(backpp, HllPlusPlusSketch)
    assert np.array_equal(backpp.reg, refpp.reg)
    refpp2 = reference_datasketch.HyperLogLogPlusPlus.deserialize(minepp.serialize())
    assert np.array_equal(refpp2.reg, refpp.reg)


def test_batch_intersection_kernels(monkeypatch):
    """_blob_values + _code_intersections match per-pair np.intersect1d
    with both code sources: global codes (one np.unique over every set,
    the broadcast verify) and block-local codes (np.unique over a
    gathered block, the shuffle verify); a small chunk size covers
    chunk boundaries."""
    import pyarrow as pa

    import raydedup.stages.dedup as dd
    from raydedup.stages.dedup import _blob_values, _code_intersections

    rng = np.random.default_rng(11)
    sets = []
    for _ in range(200):
        k = int(rng.integers(0, 30))
        sets.append(np.unique(rng.integers(0, 50, size=k).astype(np.uint64)))
    blob_arr = pa.array([s.tobytes() for s in sets] + [None], pa.binary())
    sets.append(np.empty(0, np.uint64))  # the null row reads as an empty set
    # sliced array exercises the arr.offset path
    for arr, base in ((blob_arr, 0), (blob_arr.slice(3, 150), 3)):
        vals, lens = _blob_values(arr)
        off = np.cumsum(lens) - lens
        for i, (o, c) in enumerate(zip(off, lens)):
            assert np.array_equal(vals[o : o + c], sets[base + i])
    ia = rng.integers(0, len(sets), size=500)
    ib = rng.integers(0, len(sets), size=500)
    want = [len(np.intersect1d(sets[a], sets[b], assume_unique=True)) for a, b in zip(ia, ib)]

    def scored(arr, ra, rb):
        vals, lens = _blob_values(arr)
        uniq, codes = np.unique(vals, return_inverse=True)
        return _code_intersections(codes, np.cumsum(lens) - lens, lens, ra, rb, len(uniq)).tolist()

    block = blob_arr.take(pa.array(np.concatenate([ia, ib])))
    for chunk in (dd._SCORE_CHUNK, 64):
        monkeypatch.setattr(dd, "_SCORE_CHUNK", chunk)
        assert scored(blob_arr, ia, ib) == want  # global codes
        assert scored(block, np.arange(500), np.arange(500, 1000)) == want  # block-local
    none = np.empty(0, np.int64)
    assert scored(pa.array([], pa.binary()), none, none) == []


def test_ngram_jaccard_shuffle_branch_matches_broadcast(ray_session, monkeypatch):
    """The keyed-shuffle verify path (VERIFY_BROADCAST_DOCS=0) returns
    the same scored pairs as the broadcast path and as brute force."""
    import pyarrow as pa
    import ray.data as rd

    import raydedup.stages.dedup as dd
    from raydedup.hashing import word_ngram_shingles
    from raydedup.stages.dedup import ngram_jaccard_pairs

    rng = np.random.default_rng(7)
    vocab = [f"w{i}" for i in range(30)]
    texts = [
        " ".join(vocab[j] for j in rng.integers(0, 30, size=rng.integers(5, 18)))
        for _ in range(80)
    ]
    texts[70] = texts[0]  # exact dup
    texts[71] = texts[1] + " " + vocab[0]  # near dup
    t = pa.table({"doc_id": pa.array(range(80), pa.int64()), "text": pa.array(texts)})

    def run(limit):
        monkeypatch.setattr(dd, "VERIFY_BROADCAST_DOCS", limit)
        return {
            (r["id_a"], r["id_b"]): r["jaccard"]
            for r in ngram_jaccard_pairs(
                rd.from_arrow(t), "doc_id", "text", n=3, threshold=0.4,
                num_partitions=4,
            ).take_all()
        }

    broad, shuf = run(dd.VERIFY_BROADCAST_DOCS), run(0)
    assert broad == shuf
    sh = [word_ngram_shingles(x, 3) for x in texts]
    want = {}
    for i in range(80):
        for j in range(i + 1, 80):
            u = len(sh[i] | sh[j])
            val = len(sh[i] & sh[j]) / u if u else 0.0
            if val >= 0.4:
                want[(i, j)] = val
    assert broad == want


def test_ensemble_candidates_match_reference(ray_session, reference_datasketch):
    """r05 (VERDICT r04 next-#7): pair-for-pair candidate parity with
    the live ``MinHashLSHEnsemble`` at a fixed (threshold, num_perm,
    num_part, m) config — the Q7 analogue of
    test_minhash_lsh_matches_reference. Also pins the DP partition
    boundaries against the reference's ``optimal_partitions``."""
    import pyarrow as pa
    import ray.data as rd

    from raydedup.hashing import generate_permutations, word_ngram_shingles
    from raydedup.minhash import minhash_batch
    from raydedup.schema import numpy_to_sig
    from raydedup.stages.topk import ensemble_containment_candidates

    rng = np.random.default_rng(11)
    vocab = [f"tok{i}" for i in range(3000)]
    docs = {}
    for i in range(80):
        size = int(rng.integers(5, 300))
        words = list(rng.choice(vocab, size=size, replace=False))
        docs[i] = " ".join(words)
        if size >= 30 and i % 3 == 0:  # planted containment subsets
            docs[500 + i] = " ".join(words[: size // 2])

    ids = sorted(docs)
    shingles = [sorted(word_ngram_shingles(docs[i], n=1)) for i in ids]
    sizes = [len(s) for s in shingles]
    a, b = generate_permutations(128, 1)
    sigs = minhash_batch(shingles, a, b)

    threshold, num_part, m = 0.5, 4, 8

    # ---- reference: index all, query all
    ens = reference_datasketch.MinHashLSHEnsemble(
        threshold=threshold, num_perm=128, num_part=num_part, m=m
    )
    ref_mh = {}
    for i, toks in zip(ids, shingles):
        mh = reference_datasketch.MinHash(num_perm=128, seed=1)
        mh.update_batch(toks)
        ref_mh[i] = mh
    ens.index([(i, ref_mh[i], sz) for i, sz in zip(ids, sizes)])
    ref_pairs = {
        (q, c) for q, sz in zip(ids, sizes) for c in ens.query(ref_mh[q], sz) if c != q
    }

    # ---- our DP must DOMINATE the reference's boundaries under the
    # reference's own NFP objective (its backtrack reads the wrong
    # partition-count column — lshensemble_partition.py:167 vs :150 —
    # so it can return suboptimal splits; see topk.py docstring)
    from collections import Counter

    from raydedup.stages.topk import optimal_partitions

    hist = sorted(Counter(sizes).items())
    hs = np.array([s for s, _ in hist], np.float64)
    hc = np.array([c for _, c in hist], np.float64)

    def nfp(parts):
        return sum(
            float((hc[(hs >= lo) & (hs <= up)] * (up - hs[(hs >= lo) & (hs <= up)]) / up).sum())
            for lo, up in parts
        )

    ref_parts = list(zip(ens.lowers, ens.uppers))
    ours_parts = [tuple(p) for p in optimal_partitions(hs.astype(np.int64), hc.astype(np.int64), num_part)]
    assert nfp(ours_parts) <= nfp(ref_parts) + 1e-9, (ours_parts, ref_parts)

    # ---- our distributed candidates, pinned to the reference's exact
    # partition layout so the comparison isolates banding/xq semantics
    t = pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "minhash": numpy_to_sig(np.asarray(sigs)),
            "set_size": pa.array(sizes, pa.int64()),
        }
    )
    pairs = ensemble_containment_candidates(
        rd.from_arrow(t).repartition(4),
        "doc_id",
        "set_size",
        threshold=threshold,
        num_perm=128,
        num_part=num_part,
        max_r=m,
        partitions=ref_parts,
    ).take_all()
    ours = {(r["id_a"], r["id_b"]) for r in pairs}
    assert ours == ref_pairs, (
        len(ours - ref_pairs),
        len(ref_pairs - ours),
        sorted(ours ^ ref_pairs)[:5],
    )


# ------------------------------------------------------- quantile sketch
def test_kll_exact_below_capacity():
    """n ≤ k → no compaction ever runs → quantiles are EXACT
    percentile_disc values and the error bound is 0."""
    from raydedup.quantile import KllSketch

    rng = np.random.default_rng(7)
    v = rng.normal(size=200)
    sk = KllSketch(k=256).update_many(v)
    s = np.sort(v)
    for q in (0.01, 0.25, 0.5, 0.9, 1.0):
        assert sk.quantiles([q])[0] == s[int(np.ceil(q * len(s))) - 1]
    assert sk.rank_error_bound() == 0 and sk.n == 200


def test_kll_bound_holds_all_orders_and_merges():
    """Measured rank error stays within rank_error_bound() (+ weight
    drift) for sorted, reversed, shuffled and duplicate-heavy streams,
    built block-wise and merged in two different orders."""
    import functools

    from raydedup.quantile import KllSketch

    rng = np.random.default_rng(11)
    base = np.concatenate([rng.normal(size=40_000), np.full(5_000, 1.5)])
    for order in (np.sort(base), np.sort(base)[::-1], rng.permutation(base)):
        chunks = np.array_split(order, 17)
        sks = [KllSketch(k=128).update_many(c) for c in chunks]
        for mix in (sks, sks[::-1]):
            sk = functools.reduce(lambda a, b: a.merge(b), [KllSketch(k=128)] + list(mix))
            assert sk.n == len(base)
            slack = 2 * sk.rank_error_bound() + 1
            s = np.sort(base)
            for q in (0.1, 0.5, 0.9, 0.99):
                x = sk.quantiles([q])[0]
                r_le = np.searchsorted(s, x, side="right")
                r_lt = np.searchsorted(s, x, side="left")
                assert r_le >= q * len(s) - slack and r_lt <= q * len(s) + slack


def test_kll_aggregate_fn_grouped(ray_session):
    """The AggregateFn path (grouped) returns mergeable states whose
    median is within the per-state bound of the true group median."""
    import pyarrow as pa
    import ray.data as rd

    from raydedup.quantile import KllSketch, kll_aggregate_fn

    rng = np.random.default_rng(3)
    g = np.repeat(np.arange(4), 25_000)
    v = rng.normal(loc=g * 10.0, size=len(g))
    ds = rd.from_arrow(pa.table({"g": g, "v": v})).repartition(8)
    out = ds.groupby("g").aggregate(kll_aggregate_fn("v", k=128, alias_name="kll")).take_all()
    assert len(out) == 4
    for row in out:
        sk = KllSketch.from_bytes(row["kll"])
        sel = np.sort(v[g == row["g"]])
        assert sk.n == len(sel)
        x = sk.quantiles([0.5])[0]
        slack = 2 * sk.rank_error_bound() + 1
        r = np.searchsorted(sel, x, side="right")
        assert abs(r - 0.5 * len(sel)) <= slack


def test_kll_bytes_round_trip():
    """Wire form preserves every level, compaction count and n."""
    from raydedup.quantile import KllSketch

    rng = np.random.default_rng(5)
    sk = KllSketch(k=64).update_many(rng.normal(size=10_000))
    rt = KllSketch.from_bytes(sk.to_bytes())
    assert rt.k == sk.k and rt.n == sk.n and rt.compactions == sk.compactions
    assert all(np.array_equal(a, b) for a, b in zip(rt.levels, sk.levels))
    assert np.array_equal(rt.quantiles([0.1, 0.5, 0.9]), sk.quantiles([0.1, 0.5, 0.9]))
    empty = KllSketch.from_bytes(KllSketch(k=64).to_bytes())
    assert empty.n == 0 and np.isnan(empty.quantiles([0.5])[0])


def test_misra_gries_guarantees_and_wire():
    """Misra-Gries property test: random weighted streams split into
    random chunks, built per-chunk and merged in random order (the
    PODS'12 mergeable rule), must satisfy per-item guarantees vs an
    exact Counter — stored <= true <= stored + dec for retained items,
    true <= dec for dropped ones, dec <= n/(k+1) — and the Arrow-binary
    wire format round-trips exactly."""
    import numpy as np

    from collections import Counter

    from raydedup.heavyhitters import MisraGries

    rng = np.random.default_rng(11)
    for trial in range(20):
        k = int(rng.integers(4, 40))
        vocab = [f"t{j}" for j in range(int(rng.integers(10, 300)))]
        # zipf-ish weights so real heavy hitters exist
        n_items = int(rng.integers(50, 4000))
        toks = rng.choice(vocab, size=n_items, p=None)
        w = (rng.zipf(1.7, size=n_items) % 50 + 1).astype(np.int64)
        exact = Counter()
        for t, c in zip(toks, w):
            exact[t] += int(c)
        # random chunking + random-order pairwise merges
        n_chunks = int(rng.integers(1, 8))
        bounds = sorted(rng.integers(0, n_items, size=n_chunks - 1).tolist()) + [n_items]
        sks = []
        lo = 0
        for hi in bounds:
            sk = MisraGries(k)
            sk.update_counts(toks[lo:hi].tolist(), w[lo:hi])
            sks.append(MisraGries.from_bytes(sk.to_bytes()))  # wire round-trip
            lo = hi
        while len(sks) > 1:
            i = int(rng.integers(0, len(sks) - 1))
            sks[i] = sks.pop(i + 1).merge(sks[i])
        sk = sks[0]
        n = sum(exact.values())
        assert sk.n == n
        assert sk.dec <= n // (k + 1)
        assert len(sk.items) <= k
        for tb, stored in sk.items.items():
            true = exact[tb.decode()]
            assert stored <= true <= stored + sk.dec, (trial, tb, stored, true, sk.dec)
        retained = {tb.decode() for tb in sk.items}
        for t, true in exact.items():
            if t not in retained:
                assert true <= sk.dec, (trial, t, true, sk.dec)


def test_misra_gries_grouped_aggregate(ray_session):
    """MG as a grouped Ray aggregate (heavy hitters per source) — the
    same distributed shape the KLL grouped test pins: per-group states
    build/merge across blocks and each group's summary satisfies the
    per-item guarantee vs exact per-group counts."""
    import numpy as np
    import pyarrow.parquet as pq
    import ray.data as rd

    from collections import Counter, defaultdict

    from raydedup.heavyhitters import MisraGries, mg_aggregate_fn

    sf = "/root/testdata/sf0.001"
    tbl = pq.read_table(f"{sf}/documents.parquet", columns=["source", "text"])
    exact = defaultdict(Counter)
    for s, t in zip(tbl.column("source").to_pylist(), tbl.column("text").to_pylist()):
        exact[s].update(t.split())

    import pyarrow as pa
    import pyarrow.compute as pc

    def explode(batch: pa.Table) -> pa.Table:
        out_s, out_t, out_c = [], [], []
        for s in pc.unique(batch.column("source")).to_pylist():
            sub = batch.filter(pc.equal(batch.column("source"), s))
            toks = pc.list_flatten(pc.utf8_split_whitespace(sub.column("text")))
            toks = toks.filter(pc.not_equal(toks, ""))
            vc = toks.value_counts()
            out_s.append(pa.array([s] * len(vc), pa.string()))
            out_t.append(vc.field(0))
            out_c.append(vc.field(1))
        return pa.table(
            {
                "source": pa.concat_arrays(out_s),
                "token": pa.concat_arrays([a.cast(pa.string()) for a in out_t]),
                "n_part": pa.concat_arrays([a.cast(pa.int64()) for a in out_c]),
            }
        )

    pre = rd.read_parquet(f"{sf}/documents.parquet", columns=["source", "text"]).map_batches(
        explode, batch_format="pyarrow"
    )
    rows = (
        pre.groupby("source", num_partitions=4)
        .aggregate(mg_aggregate_fn("token", "n_part", k=8, alias_name="mg"))
        .take_all()
    )
    assert len(rows) == len(exact)
    saw_compression = False
    for r in rows:
        sk = MisraGries.from_bytes(r["mg"])
        ex = exact[r["source"]]
        assert sk.n == sum(ex.values())
        saw_compression |= sk.dec > 0
        for tb, stored in sk.items.items():
            true = ex[tb.decode()]
            assert stored <= true <= stored + sk.dec
    assert saw_compression, "k=8 must force compression per group"

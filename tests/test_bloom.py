"""BandBloomFilter (LSHBloom-parity) tests: no false negatives by
construction, measured FP rate within the configured budget, OR-merge
equivalence, wire round-trip, and the distributed aggregate build."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest


def _sigs(n, num_perm=128, seed=1):
    """Synthetic signatures drawn like real MinHash values (< 2**32)."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 1 << 32, size=(n, num_perm), dtype=np.uint64)


def test_band_values_match_reference_semantics():
    """The per-band value is sum(band hashvalues) % Mersenne-61
    (reference lsh_bloom.py:103-106), computed here without overflow."""
    from raydedup.bloom import MERSENNE61, band_values

    sig = _sigs(10)
    b, r = 16, 8
    got = band_values(sig, b, r)
    assert got.shape == (10, b)
    for i in range(3):
        for j in range(b):
            expect = int(sum(int(x) for x in sig[i, j * r : (j + 1) * r])) % int(MERSENNE61)
            assert int(got[i, j]) == expect


def test_no_false_negatives_and_fp_bound():
    from raydedup.bloom import BandBloomFilter

    b, r, n, fp = 16, 8, 5000, 1e-3
    f = BandBloomFilter(b, r, n_items=n, fp=fp)
    inserted = _sigs(n, seed=2)
    f.insert_signatures(inserted)

    # Bloom guarantee: every inserted signature queries True
    assert f.query_signatures(inserted).all()

    # disjoint signatures: per-band FP is ~fp, whole-query FP ≈ 1-(1-fp)^b
    # ≤ b*fp; allow 3x sampling slack on 20k trials
    probes = _sigs(20_000, seed=3)
    fp_rate = f.query_signatures(probes).mean()
    assert fp_rate <= 3 * b * fp, fp_rate

    # the filter really is space-bounded: size set by (n, fp), not inserts
    assert f.size_bytes == f.bits.nbytes == b * f.m_bits // 8


def test_merge_equals_bulk_insert_and_wire_round_trip():
    from raydedup.bloom import BandBloomFilter

    b, r, n = 9, 13, 2000
    s1, s2 = _sigs(1000, seed=4), _sigs(1000, seed=5)
    fa = BandBloomFilter(b, r, n, fp=1e-4)
    fb = BandBloomFilter(b, r, n, fp=1e-4)
    fa.insert_signatures(s1)
    fb.insert_signatures(s2)
    fa.merge(fb)
    bulk = BandBloomFilter(b, r, n, fp=1e-4)
    bulk.insert_signatures(np.vstack([s1, s2]))
    assert np.array_equal(fa.bits, bulk.bits)

    back = BandBloomFilter.deserialize(fa.serialize())
    assert np.array_equal(back.bits, fa.bits)
    assert (back.b, back.r, back.m_bits, back.k) == (fa.b, fa.r, fa.m_bits, fa.k)

    with pytest.raises(ValueError):
        fa.merge(BandBloomFilter(b, r, 4000, fp=1e-4))


def test_deserialize_rejects_tampered_header():
    """An outside buffer whose header disagrees with the filter its
    parameters rebuild (or that is cut short) raises ValueError — an
    explicit raise, so ``python -O`` keeps the check."""
    import struct

    from raydedup.bloom import BandBloomFilter

    buf = bytearray(BandBloomFilter(9, 13, 2000, fp=1e-4).serialize())
    m_bits = struct.unpack_from("<Q", buf, 16)[0]
    struct.pack_into("<Q", buf, 16, m_bits + 8)
    with pytest.raises(ValueError):
        BandBloomFilter.deserialize(bytes(buf))
    with pytest.raises(ValueError):
        BandBloomFilter.deserialize(bytes(buf[:10]))


def test_distributed_build_matches_local(ray_session):
    import ray
    import ray.data as rd

    from raydedup.bloom import BandBloomFilter, BloomDedupStage, build_band_bloom
    from raydedup.schema import numpy_to_sig

    b, r, n = 16, 8, 3000
    sigs = _sigs(n, seed=7)
    t = pa.table({"doc_id": pa.array(np.arange(n)), "minhash": numpy_to_sig(sigs)})
    ds = rd.from_arrow(t).repartition(6)

    built = build_band_bloom(ds, b, r, n_items=n, fp=1e-4)
    local = BandBloomFilter(b, r, n, fp=1e-4)
    local.insert_signatures(sigs)
    assert np.array_equal(built.bits, local.bits)

    # dedup_filter stage: inserted rows flag True, fresh rows mostly False
    probe = pa.table(
        {
            "doc_id": pa.array(np.arange(2000)),
            "minhash": numpy_to_sig(np.vstack([sigs[:1000], _sigs(1000, seed=8)])),
        }
    )
    ref = ray.put(built.serialize())
    out = (
        rd.from_arrow(probe)
        .map_batches(
            BloomDedupStage,
            fn_constructor_kwargs=dict(filter_ref=ref),
            batch_format="pyarrow",
            concurrency=(1, 2),
        )
        .to_pandas()
        .sort_values("doc_id")
    )
    assert out["is_dup"][:1000].all()
    assert out["is_dup"][1000:].mean() <= 3 * b * 1e-4

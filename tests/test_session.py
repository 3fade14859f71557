"""Online MinHashLshSession: the sharded-actor implementation of the
reference ``MinHashLSH`` (interleaved insert/query/remove — the
reference's ``test/test_lsh.py`` semantics).

Two tests compare against the live reference library and skip without
its checkout: ``test_interleaved_insert_query_matches_reference`` and
``test_weighted_minhash_session_matches_reference``. The rest check the
session on raydedup's own signatures."""

import numpy as np
import pytest

from raydedup.hashing import generate_permutations
from raydedup.minhash import minhash_batch
from raydedup.session import MinHashLshSession


def _sets(rng, n, universe=200, lo=8, hi=40):
    return [
        sorted(
            {f"tok{j}".encode() for j in rng.choice(universe, size=rng.integers(lo, hi), replace=False)}
        )
        for _ in range(n)
    ]


def _sigs(token_sets, num_perm=128, seed=1):
    a, b = generate_permutations(num_perm, seed)
    return minhash_batch(token_sets, a, b)


def _ref_lsh_and_minhashes(reference_datasketch, token_sets, threshold, num_perm=128, seed=1):
    ds = reference_datasketch
    ms = []
    for toks in token_sets:
        m = ds.MinHash(num_perm=num_perm, seed=seed)
        m.update_batch(toks)
        ms.append(m)
    lsh = ds.MinHashLSH(threshold=threshold, num_perm=num_perm)
    return lsh, ms


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(7)
    token_sets = _sets(rng, 60)
    return token_sets, _sigs(token_sets)


def test_interleaved_insert_query_matches_reference(ray_session, corpus, reference_datasketch):
    token_sets, sigs = corpus
    ref_lsh, ms = _ref_lsh_and_minhashes(reference_datasketch, token_sets, 0.5)
    sess = MinHashLshSession(threshold=0.5, num_perm=128, num_shards=4)
    assert sess.b == ref_lsh.b and sess.r == ref_lsh.r
    try:
        # interleave: after every insert, query a rotating probe in BOTH
        for i in range(40):
            ref_lsh.insert(i, ms[i])
            sess.insert(i, sigs[i])
            probe = i % 10
            assert set(sess.query(sigs[probe])) == set(ref_lsh.query(ms[probe]))
        # batched tail insert, then full query sweep
        sess.insert_batch(list(range(40, 60)), sigs[40:60])
        for i in range(40, 60):
            ref_lsh.insert(i, ms[i])
        got = sess.query_batch(sigs)
        for i in range(60):
            assert set(got[i]) == set(ref_lsh.query(ms[i])), i
    finally:
        sess.shutdown()


def test_duplicate_and_missing_keys_raise(ray_session, corpus):
    _, sigs = corpus
    sess = MinHashLshSession(threshold=0.5, num_perm=128, num_shards=2)
    try:
        sess.insert("a", sigs[0])
        with pytest.raises(ValueError):
            sess.insert("a", sigs[1])
        sess.insert("a2", sigs[0], check_duplication=False)  # same sig, new key ok
        with pytest.raises(ValueError):
            sess.remove("missing")
        with pytest.raises(ValueError):
            sess.insert("w", sigs[0][:64])  # wrong num_perm
        assert "a" in sess and "nope" not in sess
    finally:
        sess.shutdown()


def test_remove_then_query(ray_session, corpus):
    token_sets, sigs = corpus
    sess = MinHashLshSession(threshold=0.5, num_perm=128, num_shards=3)
    try:
        sess.insert_batch(list(range(20)), sigs[:20])
        assert 0 in sess.query(sigs[0])
        sess.remove(0)
        assert 0 not in sess
        assert 0 not in sess.query(sigs[0])
        # deletion session drains the rest
        with sess.deletion_session(buffer_size=5) as d:
            for i in range(1, 20):
                d.remove(i)
        assert sess.is_empty()
        # every bucket must be gone too (reference drops empty buckets)
        assert all(not c for c in sess.get_counts())
    finally:
        sess.shutdown()


def test_insertion_session_and_counts(ray_session, corpus):
    token_sets, sigs = corpus
    sess = MinHashLshSession(threshold=0.5, num_perm=128, num_shards=4)
    try:
        with sess.insertion_session(buffer_size=7) as ins:
            for i in range(30):
                ins.insert(i, sigs[i])
        assert sess.count_keys() == 30
        # get_counts parity: same per-band bucket-size map
        got = sess.get_counts()
        exp = [{} for _ in range(sess.b)]
        from raydedup.minhash import band_keys

        for i in range(30):
            for band, H in enumerate(band_keys(sigs[i][None, :], sess.b, sess.r)[0]):
                exp[band][H] = exp[band].get(H, 0) + 1
        assert got == exp
    finally:
        sess.shutdown()


def test_merge_sessions(ray_session, corpus):
    _, sigs = corpus
    a = MinHashLshSession(threshold=0.5, num_perm=128, num_shards=2)
    b = MinHashLshSession(threshold=0.5, num_perm=128, num_shards=3)
    try:
        a.insert_batch([f"a{i}" for i in range(10)], sigs[:10])
        b.insert_batch([f"b{i}" for i in range(10, 20)], sigs[10:20])
        a.merge(b)
        assert a.count_keys() == 20
        assert set(a.query(sigs[15])) >= set(b.query(sigs[15]))
        # overlap check fires on a shared key
        c = MinHashLshSession(threshold=0.5, num_perm=128, num_shards=2)
        try:
            c.insert("a0", sigs[0])
            with pytest.raises(ValueError):
                a.merge(c, check_overlap=True)
        finally:
            c.shutdown()
        # differing params refuse to merge
        d = MinHashLshSession(params=(16, 8), num_perm=128, num_shards=2)
        try:
            with pytest.raises(ValueError):
                a.merge(d)
        finally:
            d.shutdown()
    finally:
        a.shutdown()
        b.shutdown()


def test_weighted_minhash_session_matches_reference(ray_session, reference_datasketch):
    """The session accepts WeightedMinHash rows ((sample_size, 2) (k,t)
    samples) like the reference MinHashLSH does — candidate sets must
    match the live reference pair-for-pair."""
    rng = np.random.default_rng(3)
    dim, n = 40, 30
    vecs = rng.random((n, dim)) * (rng.random((n, dim)) < 0.4)
    from raydedup.weighted import WeightedMinHashGenerator

    gen = WeightedMinHashGenerator(dim, sample_size=128, seed=1)
    hvs = [gen.minhash(v) for v in vecs]

    ref_lsh = reference_datasketch.MinHashLSH(threshold=0.5, num_perm=128)
    sess = MinHashLshSession(threshold=0.5, num_perm=128, num_shards=3)
    try:
        for i in range(n):
            ref_lsh.insert(i, reference_datasketch.WeightedMinHash(1, hvs[i]))
            sess.insert(i, hvs[i])
        got = sess.query_batch(np.stack(hvs))
        for i in range(n):
            exp = set(ref_lsh.query(reference_datasketch.WeightedMinHash(1, hvs[i])))
            assert set(got[i]) == exp, i
    finally:
        sess.shutdown()


def test_session_save_restore(ray_session, tmp_path):
    """Insert → save → kill the session → restore: identical query
    results, counts, and remove semantics; restoring into a different
    shard count re-routes deterministically."""
    import numpy as np

    from raydedup.hashing import generate_permutations
    from raydedup.minhash import minhash_batch
    from raydedup.session import MinHashLshSession

    rng = np.random.default_rng(21)
    vocab = [f"w{i}" for i in range(60)]
    docs = [
        [vocab[j].encode() for j in rng.integers(0, 60, size=12)] for _ in range(40)
    ]
    docs[30] = docs[0]  # planted near-dups
    docs[31] = docs[1]
    a, b = generate_permutations(128, 1)
    sigs = minhash_batch(docs, a, b)
    keys = [f"k{i}" for i in range(20)] + list(range(20, 40))  # mixed key types

    sess = MinHashLshSession(threshold=0.8, num_perm=128, num_shards=4)
    sess.insert_batch(keys, sigs)
    before = {str(k): sorted(map(str, sess.query(sigs[i]))) for i, k in enumerate(keys)}
    counts_before = sess.get_counts()
    m = sess.save(str(tmp_path / "ckpt"))
    assert m["keys"] == 40
    sess.shutdown()

    for shards in (4, 3):  # same and different shard layouts
        back = MinHashLshSession.restore(str(tmp_path / "ckpt"), num_shards=shards)
        assert back.count_keys() == 40
        after = {str(k): sorted(map(str, back.query(sigs[i]))) for i, k in enumerate(keys)}
        assert after == before
        merged = [{} for _ in range(back.b)]
        for band, d in enumerate(back.get_counts()):
            merged[band] = d
        assert merged == counts_before
        assert "k0" in back and 25 in back
        back.remove("k0")
        assert "k0" not in back and back.count_keys() == 39
        back.shutdown()


def test_phash_session_matches_brute_force(ray_session):
    """Streaming image index: query results must equal brute-force
    Hamming<=k over everything inserted (recall 1.0 by pigeonhole at
    k = bands-1, precision 1.0 by the XOR-popcount verify), and
    remove/save/restore must behave like the MinHash session."""
    import numpy as np

    from raydedup.session import PhashSession
    from raydedup.synth import make_images_table

    table, _ = make_images_table(n_base=120, seed=7)
    ids = table.column("image_id").to_pylist()
    ph = np.array(table.column("phash").to_pylist(), dtype=np.int64)
    s = PhashSession(num_shards=3)
    s.insert_batch(ids, ph)
    assert s.count_keys() == len(ids)
    x = ph.view(np.uint64)
    res = s.query_batch(ph)
    for i in range(0, len(ids), 11):
        xx = x ^ x[i]
        d = np.zeros(len(x), np.int64)
        while xx.any():
            d += (xx & np.uint64(1)).astype(np.int64)
            xx = xx >> np.uint64(1)
        assert set(res[i]) == {ids[j] for j in np.flatnonzero(d <= 3)}, i
    # perturbations within the budget are found; self-match always
    q = int(np.int64(np.uint64(x[5]) ^ np.uint64(0b101)))  # 2 bit flips
    assert ids[5] in s.query(q)
    s.remove(ids[0], int(ph[0]))
    assert ids[0] not in s.query(int(ph[0]))
    with pytest.raises(ValueError):
        PhashSession(bands=5)  # must divide 64
    with pytest.raises(ValueError):
        PhashSession(hamming_k=4)  # breaks the pigeonhole guarantee


def test_phash_session_save_restore(ray_session, tmp_path):
    import numpy as np

    from raydedup.session import PhashSession

    rng = np.random.default_rng(3)
    ph = rng.integers(-(2**62), 2**62, 64).astype(np.int64)
    ids = [f"im-{i}" for i in range(64)]
    s = PhashSession(num_shards=2)
    s.insert_batch(ids, ph)
    s.save(str(tmp_path / "ck"))
    s2 = PhashSession.restore(str(tmp_path / "ck"), num_shards=4)
    for i in (0, 17, 63):
        assert sorted(s2.query(int(ph[i]))) == sorted(s.query(int(ph[i])))
    s2.insert("fresh", 12345)  # restored index stays mutable
    assert "fresh" in s2.query(12345)


def test_async_session_parity_and_concurrency(ray_session, corpus):
    """The asyncio facade (reference ``datasketch.aio.AsyncMinHashLSH``
    parity — aio/lsh.py:20-355): gather-concurrent inserts through the
    async insertion session, async queries equal the sync session's,
    buffered delete session removes, has_key/is_empty/get_counts work."""
    import asyncio

    from raydedup.aio import AsyncMinHashLshSession

    token_sets, sigs = corpus
    sync = MinHashLshSession(threshold=0.5, num_perm=128, num_shards=2)
    sync.insert_batch([f"k{i}" for i in range(len(sigs))], sigs)

    async def main():
        async with AsyncMinHashLshSession(
            threshold=0.5, num_perm=128, num_shards=2
        ) as lsh:
            assert await lsh.is_empty()
            # concurrent single inserts (first half) + buffered session
            # (second half, small batch_size to force mid-stream flushes)
            half = len(sigs) // 2
            await asyncio.gather(
                *(lsh.insert(f"k{i}", sigs[i]) for i in range(half))
            )
            async with lsh.insertion_session(batch_size=7) as ins:
                for i in range(half, len(sigs)):
                    await ins.insert(f"k{i}", sigs[i])
            assert not await lsh.is_empty()
            assert await lsh.count_keys() == len(sigs)
            assert await lsh.has_key("k0") and not await lsh.has_key("nope")
            got = await asyncio.gather(*(lsh.query(s) for s in sigs))
            want = sync.query_batch(sigs)
            for g, w in zip(got, want):
                assert sorted(g) == sorted(w)
            counts = await lsh.get_counts()
            assert sum(sum(d.values()) for d in counts) == len(sigs) * sync.b
            async with lsh.delete_session(batch_size=5) as dele:
                for i in range(0, len(sigs), 3):
                    await dele.remove(f"k{i}")
            assert not await lsh.has_key("k0")
            assert await lsh.count_keys() == len(sigs) - len(range(0, len(sigs), 3))
            await lsh.shutdown()

    asyncio.run(main())
    sync.shutdown()


def test_async_insertion_session_flushes_with_last_flag(ray_session):
    """The async buffered insert flushes its partial buffer on exit with
    the ``check_duplication`` flag of the last ``insert``, like the sync
    ``LshInsertionSession``: re-inserting an existing key with
    ``check_duplication=False`` exits cleanly."""
    import asyncio

    from raydedup.aio import AsyncMinHashLshSession

    sig = np.random.default_rng(1).integers(0, 1 << 32, 128, dtype=np.uint64)

    async def main():
        lsh = AsyncMinHashLshSession(threshold=0.5, num_perm=128, num_shards=1)
        await lsh.insert("a", sig)
        async with lsh.insertion_session(batch_size=100) as ins:
            await ins.insert("a", sig, check_duplication=False)
            await ins.insert("b", sig, check_duplication=False)
        assert await lsh.count_keys() == 2
        assert sorted(await lsh.query(sig)) == ["a", "b"]
        await lsh.shutdown()

    asyncio.run(main())

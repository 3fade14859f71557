"""Ground-truth conformance for the round-5 training-data operators
(``dup_ngram_fraction``, ``cross_source_neardup``,
``stratified_sample_docs``) — brute-force Python oracles over the
sf0.001 corpus, complementing the DuckDB driver oracles."""

from __future__ import annotations

import numpy as np
import pyarrow.parquet as pq

SF = "/root/testdata/sf0.001"


def test_dup_ngram_fraction_bruteforce(ray_session):
    """Exact per-doc (dup, total) distinct-5-gram counts vs a pure
    Python set oracle — pins the flat window-hash + per-row dedupe +
    two-shuffle fold end-to-end (str.split() matches the \\s+ profile
    the token_counts oracle pins)."""
    from raydedup.queries import QUERIES

    got = QUERIES["dup_ngram_fraction"](SF).to_pandas()
    tbl = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    grams = {}
    for did, txt in zip(tbl.column("doc_id").to_pylist(), tbl.column("text").to_pylist()):
        w = txt.lower().split()
        grams[did] = {tuple(w[i : i + 5]) for i in range(len(w) - 4)}
    from collections import Counter

    df = Counter(g for s in grams.values() for g in s)
    want = {
        did: (sum(1 for g in s if df[g] >= 2), len(s)) for did, s in grams.items()
    }
    assert len(got) == len(want)
    for row in got.itertuples(index=False):
        assert (row.dup_ngrams, row.total_ngrams) == want[row.doc_id], row.doc_id


def test_cross_source_neardup_consistency(ray_session):
    """The cross-source pair set must equal the full banded candidate
    set filtered to source-mismatched endpoints — two independent
    emit kernels (in-bucket hash filter vs post-hoc join) agreeing."""
    from raydedup.queries import QUERIES

    cross = QUERIES["cross_source_neardup"](SF).to_pandas()
    allp = QUERIES["lsh_candidate_pairs_docs"](SF).to_pandas()
    src = dict(
        zip(
            *(
                pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "source"])
                .column(c)
                .to_pylist()
                for c in ("doc_id", "source")
            )
        )
    )
    want = {
        (a, b)
        for a, b in zip(allp["id_a"], allp["id_b"])
        if src[a] != src[b]
    }
    got = set(zip(cross["id_a"], cross["id_b"]))
    assert got == want and len(got) > 0


def test_stratified_sample_exact_and_deterministic(ray_session):
    """The keep set is a pure function of (doc_id, source): replicate
    the wrap-multiply + Mersenne reduction in numpy and demand the
    exact id set, twice (reproducibility is the operator's point)."""
    from raydedup.hashing import MERSENNE_PRIME
    from raydedup.queries import QUERIES

    tbl = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "source"])
    x = np.asarray(tbl.column("doc_id").to_pylist(), dtype=np.uint64)
    v = np.uint64(6364136223846793005) * x + np.uint64(1442695040888963407)
    hi = v >> np.uint64(61)
    v = (v & MERSENNE_PRIME) + hi
    v[v >= MERSENNE_PRIME] -= MERSENNE_PRIME
    slot = (v % np.uint64(100)).astype(np.int64)
    rate = np.array(
        [10 + 7 * (int(s[3:]) % 8) for s in tbl.column("source").to_pylist()],
        dtype=np.int64,
    )
    want = {d for d, keep in zip(tbl.column("doc_id").to_pylist(), slot < rate) if keep}

    got1 = set(QUERIES["stratified_sample_docs"](SF).to_pandas()["doc_id"])
    got2 = set(QUERIES["stratified_sample_docs"](SF).to_pandas()["doc_id"])
    assert got1 == want and got2 == want and 0 < len(want) < len(x)


def test_source_mix_epochs_exact(ray_session):
    """Repeat factors, epoch numbering and interleave keys all exact vs
    a pure Python expansion; re-run identical (reproducibility is the
    operator's point)."""
    from raydedup.hashing import MERSENNE_PRIME
    from raydedup.queries import QUERIES

    tbl = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "source"])

    def key(d, e):
        v = (6364136223846793005 * (d * 8 + e) + 1442695040888963407) % (1 << 64)
        v = (v & int(MERSENNE_PRIME)) + (v >> 61)
        return v - int(MERSENNE_PRIME) if v >= int(MERSENNE_PRIME) else v

    want = {
        (d, e, key(d, e))
        for d, s in zip(tbl.column("doc_id").to_pylist(), tbl.column("source").to_pylist())
        for e in range(1 + int(s[3:]) % 4)
    }
    got1 = QUERIES["source_mix_epochs"](SF).to_pandas()
    got2 = QUERIES["source_mix_epochs"](SF).to_pandas()
    g1 = set(zip(got1["doc_id"], got1["epoch"], got1["interleave_key"]))
    g2 = set(zip(got2["doc_id"], got2["epoch"], got2["interleave_key"]))
    assert g1 == want == g2 and len(got1) == len(want) > len(tbl)


def test_length_quantiles_bruteforce(ray_session):
    """Exact grouped quantiles (percentile_disc semantics) vs a numpy
    ceil-rank oracle per source — pins the histogram pre-aggregation +
    cumulative-walk kernel, including repeated partial-count rows."""
    from raydedup.queries import QUERIES

    got = QUERIES["length_quantiles"](SF).to_pandas().set_index("source")
    tbl = pq.read_table(f"{SF}/documents.parquet", columns=["source", "n_chars"])
    src = np.asarray(tbl.column("source").to_pylist())
    nch = tbl.column("n_chars").to_numpy()
    for s in np.unique(src):
        v = np.sort(nch[src == s])
        row = got.loc[s]
        assert row["n_docs"] == len(v)
        for q, col in ((0.5, "p50_chars"), (0.9, "p90_chars"), (0.99, "p99_chars")):
            assert row[col] == v[int(np.ceil(q * len(v))) - 1], (s, q)
    assert len(got) == len(np.unique(src))


def test_normalize_docs_bruteforce(ray_session):
    """Arrow-kernel normalization == Python lower/split/filter/join."""
    from raydedup.queries import QUERIES
    from raydedup.stages.text import QualityStage

    got = QUERIES["normalize_docs"](SF).to_pandas().set_index("doc_id")["norm_text"]
    tbl = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    stop = QualityStage.STOPWORDS
    for did, txt in zip(tbl.column("doc_id").to_pylist(), tbl.column("text").to_pylist()):
        want = " ".join(w for w in txt.lower().split() if w not in stop)
        assert got[did] == want, did


def test_semantic_dedup_matches_independent_rule(ray_session):
    """The distributed SemDeDup flags equal the verifier's single-process
    evaluation (same seeded centroids -> same cells -> same in-cell
    smaller-id cosine rule), and a threshold above the corpus max
    similarity flags nothing."""
    from raydedup.oracles import VERIFIERS
    from raydedup.queries import QUERIES, q_semantic_dedup

    VERIFIERS["semantic_dedup"](SF, QUERIES["semantic_dedup"](SF))

    none = q_semantic_dedup(SF, threshold=1.01).to_pandas()
    assert none["is_dup"].sum() == 0


def test_top_docs_per_source_bruteforce(ray_session):
    """Grouped top-N == Python sort per source, ranks 1..k."""
    from raydedup.queries import QUERIES

    got = QUERIES["top_docs_per_source"](SF).to_pandas()
    tbl = pq.read_table(f"{SF}/documents.parquet", columns=["source", "doc_id", "n_chars"]).to_pandas()
    for s, g in tbl.groupby("source"):
        want = g.sort_values(["n_chars", "doc_id"], ascending=[False, True]).head(3)
        mine = got[got["source"] == s].sort_values("rank")
        assert list(mine["doc_id"]) == list(want["doc_id"]), s
        assert list(mine["rank"]) == list(range(1, len(want) + 1)), s


def test_uniform_sample_docs_bruteforce(ray_session):
    """Hash-bottom-k sample == numpy evaluation of the same key; two
    runs identical (determinism is the operator's point)."""
    from raydedup.hashing import MERSENNE_PRIME
    from raydedup.queries import QUERIES

    tbl = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id"])
    ids = tbl.column("doc_id").to_numpy()
    v = np.uint64(6364136223846793005) * ids.astype(np.uint64) + np.uint64(1442695040888963407)
    v = (v & MERSENNE_PRIME) + (v >> np.uint64(61))
    v[v >= MERSENNE_PRIME] -= MERSENNE_PRIME
    order = np.lexsort((ids, v))[:100]
    want = list(zip(ids[order].tolist(), v[order].tolist()))
    g1 = QUERIES["uniform_sample_docs"](SF).to_pandas()
    g2 = QUERIES["uniform_sample_docs"](SF).to_pandas()
    got1 = list(zip(g1["doc_id"], g1["sample_key"]))
    assert got1 == want and got1 == list(zip(g2["doc_id"], g2["sample_key"]))


def test_source_similarity_bruteforce(ray_session):
    """Pairwise source Jaccard estimates == numpy union-then-compare of
    the per-doc md5-profile signatures (same config as the query)."""
    from raydedup.hashing import generate_permutations, word_ngram_shingles
    from raydedup.minhash import minhash_batch
    from raydedup.queries import QUERIES

    got = QUERIES["source_similarity"](SF).to_pandas()
    tbl = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text", "source"])
    a, b = generate_permutations(128, seed=1)
    uni: dict = {}
    for txt, src in zip(tbl.column("text").to_pylist(), tbl.column("source").to_pylist()):
        toks = word_ngram_shingles(txt, n=3)
        if not toks:
            continue
        sig = minhash_batch([sorted(toks)], a, b, hashfunc="md5")[0]
        uni[src] = sig if src not in uni else np.minimum(uni[src], sig)
    srcs = sorted(uni)
    want = {
        (srcs[i], srcs[j]): int((uni[srcs[i]] == uni[srcs[j]]).sum())
        for i in range(len(srcs))
        for j in range(i + 1, len(srcs))
    }
    assert len(got) == len(want)
    for row in got.itertuples(index=False):
        assert want[(row.src_a, row.src_b)] == row.n_equal_slots, (row.src_a, row.src_b)
        assert row.jaccard_est == row.n_equal_slots / 128.0


def test_length_quantiles_both_shuffle_paths(ray_session, shuffle_mode):
    """The quantile walk is identical through the coalesced single-task
    path and the real hash shuffle (empty partitions included)."""
    from raydedup.queries import QUERIES

    got = QUERIES["length_quantiles"](SF).to_pandas().sort_values("source").reset_index(drop=True)
    tbl = pq.read_table(f"{SF}/documents.parquet", columns=["source", "n_chars"])
    src = np.asarray(tbl.column("source").to_pylist())
    nch = tbl.column("n_chars").to_numpy()
    for _, row in got.iterrows():
        v = np.sort(nch[src == row["source"]])
        assert row["n_docs"] == len(v)
        assert row["p50_chars"] == v[int(np.ceil(0.5 * len(v))) - 1]


def test_semantic_dedup_both_shuffle_paths(ray_session, shuffle_mode):
    """The flags pass the distributed/local parity verifier on both
    shuffle paths."""
    from raydedup.oracles import VERIFIERS
    from raydedup.queries import QUERIES

    got = QUERIES["semantic_dedup"](SF).to_pandas()
    assert len(got) == 500 and got["is_dup"].sum() > 0
    VERIFIERS["semantic_dedup"](SF, got)


def test_line_dedup_docs_bruteforce(ray_session, shuffle_mode):
    """C4-style line dedup vs a pure Python oracle: split on the
    delimiter, count exact line strings corpus-wide, drop lines with
    count >= 3, rejoin — exercised through BOTH shuffle paths (the
    hash-flag shuffle with empty partitions included)."""
    from collections import Counter

    from raydedup.queries import _LINE_DELIM, QUERIES

    got = QUERIES["line_dedup_docs"](SF).to_pandas().set_index("doc_id")
    tbl = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    docs = dict(zip(tbl.column("doc_id").to_pylist(), tbl.column("text").to_pylist()))
    freq = Counter(
        ln for txt in docs.values() for ln in txt.split(_LINE_DELIM)
    )
    assert len(got) == len(docs)
    n_dropped_total = 0
    for did, txt in docs.items():
        lines = txt.split(_LINE_DELIM)
        kept = [ln for ln in lines if freq[ln] < 3]
        row = got.loc[did]
        assert row["n_lines"] == len(lines)
        assert row["n_dropped"] == len(lines) - len(kept)
        assert row["clean_text"] == _LINE_DELIM.join(kept)
        n_dropped_total += len(lines) - len(kept)
    assert n_dropped_total > 0, "corpus must exercise real drops"


def test_event_debounce_bruteforce(ray_session, shuffle_mode):
    """TTL-debounce flags vs a pure Python LAG oracle over the event
    stream (ties broken by event_id on both sides), through both
    shuffle paths."""
    from collections import defaultdict

    from raydedup.queries import QUERIES

    got = QUERIES["event_debounce"](SF).to_pandas().set_index("event_id")["is_debounced"]
    tbl = pq.read_table(
        f"{SF}/events.parquet", columns=["event_id", "user_id", "event_type", "ts"]
    )
    rows = list(
        zip(
            tbl.column("event_id").to_pylist(),
            tbl.column("user_id").to_pylist(),
            tbl.column("event_type").to_pylist(),
            tbl.column("ts").cast("int64").to_pylist(),
        )
    )
    bykey = defaultdict(list)
    for eid, uid, et, us in rows:
        bykey[(uid, et)].append((us, eid))
    want = {}
    for evs in bykey.values():
        evs.sort()
        prev = None
        for us, eid in evs:
            want[eid] = int(prev is not None and us - prev < 3_600_000_000)
            prev = us
    assert len(got) == len(want)
    assert sum(want.values()) > 0, "corpus must exercise real debounces"
    for eid, w in want.items():
        assert got.loc[eid] == w, eid


def test_heavy_hitter_terms_forced_compression(ray_session):
    """The heavy-hitters query at k smaller than the corpus vocabulary,
    so Misra-Gries compression (dec > 0) actually fires distributively
    — the verifier's guarantees must hold over the output's own
    columns: est ≤ exact ≤ est + dec per reported term, and a term
    absent from the output has exact count ≤ min(est_count) + dec_total."""
    from raydedup.oracles import VERIFIERS
    from raydedup.queries import q_heavy_hitter_terms

    got = q_heavy_hitter_terms(SF, k=4, topm=3).to_pandas()
    assert len(got) == 3
    assert (got["dec_total"] > 0).all(), "k=4 must force compression on this corpus"
    VERIFIERS["heavy_hitter_terms"](SF, got)

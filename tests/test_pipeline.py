"""End-to-end pipeline conformance on the synthetic F1 corpus.

The gate (BASELINE.md): dup-pair recall ≥ 0.99 vs the reference's own
cluster assignments at identical shingle/signature config. Reference
clusters are derived exactly as a datasketch user would: insert every
row's MinHash into ``MinHashLSH(threshold=0.8, num_perm=128)``, query
every row, union-find over the candidate pairs (the reference returns
unfiltered candidates — ``datasketch/lsh.py:376-378``).
"""

import numpy as np
import pyarrow as pa
import pytest

from raydedup.hashing import word_ngram_shingles
from raydedup.pipeline import SIMHASH_BANDS, DedupConfig, dedup_pipeline
import raydedup.stages.signatures as S
from raydedup.stages.components import DSU
from raydedup.synth import make_images_table


@pytest.fixture(scope="module")
def corpus():
    table, truth = make_images_table(n_base=150, seed=42)
    return table, truth


def _reference_clusters(reference_datasketch, table: pa.Table, threshold=0.8, num_perm=128):
    ids = table.column("image_id").to_pylist()
    caps = table.column("caption").to_pylist()
    lsh = reference_datasketch.MinHashLSH(threshold=threshold, num_perm=num_perm)
    sigs = {}
    for iid, cap in zip(ids, caps):
        m = reference_datasketch.MinHash(num_perm=num_perm, seed=1)
        m.update_batch(sorted(word_ngram_shingles(cap, n=3)))
        sigs[iid] = m
        lsh.insert(iid, m, check_duplication=False)
    dsu = DSU()
    pairs = set()
    for iid in ids:
        for cand in lsh.query(sigs[iid]):
            if cand != iid:
                pairs.add(tuple(sorted((iid, cand))))
                dsu.union(iid, cand)
    return pairs, dsu.labels()


def test_minhash_lsh_matches_reference(ray_session, reference_datasketch, corpus, monkeypatch):
    """Candidate pairs and clusters equal the reference's, pair-for-pair."""
    import ray.data as rd

    table, _ = corpus
    ref_pairs, ref_labels = _reference_clusters(reference_datasketch, table)

    monkeypatch.setattr(S, "SIGNATURE_BATCH_SIZE", 64)  # several batches per block
    cfg = DedupConfig(
        phash_col=None,
        use_substring=False,
        use_exact=False,
    )
    out = dedup_pipeline(rd.from_arrow(table).repartition(4), cfg)
    our_pairs = {
        tuple(sorted((r["id_a"], r["id_b"]))) for r in out["pairs"].take_all()
    }
    missing = ref_pairs - our_pairs
    extra = our_pairs - ref_pairs
    recall = 1 - len(missing) / max(1, len(ref_pairs))
    assert recall >= 0.99, f"missing {len(missing)} of {len(ref_pairs)} reference pairs"
    assert not extra, f"{len(extra)} pairs the reference does not produce"

    clusters = out["clusters"].to_pandas()
    ours = dict(zip(clusters.image_id, clusters.cluster_id))
    same = lambda lab, a, b: lab.get(a) is not None and lab.get(a) == lab.get(b)
    for a, b in ref_pairs:
        assert same(ours, a, b), f"reference co-clusters {(a, b)}, we don't"


def test_minhash_lsh_matches_reference_threshold05(ray_session, reference_datasketch, corpus):
    """Same parity at threshold 0.5 → (b, r) = (25, 5): exercises the
    parameter plumbing end-to-end."""
    import ray.data as rd

    table, _ = corpus
    ref_pairs, _ = _reference_clusters(reference_datasketch, table, threshold=0.5)
    cfg = DedupConfig(
        threshold=0.5,
        phash_col=None,
        use_substring=False,
        use_exact=False,
        num_partitions=4,
    )
    assert cfg.band_params == (25, 5)
    out = dedup_pipeline(rd.from_arrow(table), cfg)
    our_pairs = {tuple(sorted((r["id_a"], r["id_b"]))) for r in out["pairs"].take_all()}
    assert our_pairs == ref_pairs


def test_fused_pipeline_covers_planted_structure(ray_session, corpus, monkeypatch):
    """The full pipeline (minhash ∪ simhash ∪ exact ∪ substring) finds
    every *detectable* planted pair: exact dups, substring dups (≥window
    tokens), image near-dups within the simhash Hamming radius, and the
    skew-probe rows."""
    import ray.data as rd

    from raydedup.media import decode_image
    from raydedup.simhash import hamming_distance64, simhash_from_phash

    table, truth = corpus
    monkeypatch.setattr(S, "SIGNATURE_BATCH_SIZE", 64)  # several batches per block
    cfg = DedupConfig()
    out = dedup_pipeline(rd.from_arrow(table).repartition(4), cfg)
    clusters = out["clusters"].to_pandas()
    lab = dict(zip(clusters.image_id, clusters.cluster_id))

    phash = dict(zip(table.column("image_id").to_pylist(), table.column("phash").to_pylist()))
    caps = dict(zip(table.column("image_id").to_pylist(), table.column("caption").to_pylist()))

    def detectable(vid, base, kind):
        if kind in ("exact_dup", "skew_exact_caption"):
            return True
        if kind == "substring_dup":
            return len(caps[vid].split()) >= cfg.substring_window
        if kind in ("image_near_dup", "exif_rotated_dup", "format_dup"):
            d = hamming_distance64(
                simhash_from_phash(np.array([phash[vid]])),
                simhash_from_phash(np.array([phash[base]])),
            )[0]
            return d <= SIMHASH_BANDS - 1
        return False  # caption_near_dup: probabilistic, covered by the reference test

    must = [(v, b) for v, b in truth.root.items() if detectable(v, b, truth.kind[v])]
    assert len(must) > 20
    for v, b in must:
        assert lab.get(v) is not None and lab.get(v) == lab.get(b), (
            f"{truth.kind[v]} pair {(v, b)} not co-clustered"
        )

    # the same gate through the shipping recall machinery (bench.py
    # reports this at corpus scale): the persisted truth table's
    # detectability gates must agree with the explicit logic above,
    # and the must-pair recall must be exactly 1.0 here
    from raydedup.synth import planted_recall, truth_pairs_table

    rec = planted_recall(
        out["clusters"],
        truth_pairs_table(table, truth),
        substring_window=cfg.substring_window,
        simhash_bands=SIMHASH_BANDS,
    )
    assert rec["must_pairs"] == len(must)
    assert rec["dup_pair_recall"] == 1.0
    assert rec["planted_pairs"] == len(truth.root)


def test_checkpoint_resume(ray_session, corpus, tmp_path):
    """Second run with the same checkpoint dir reuses every stage;
    changed config invalidates."""
    import ray.data as rd

    table, _ = corpus
    cfg = DedupConfig(
        phash_col=None,
        use_substring=False,
        checkpoint_dir=str(tmp_path / "ck"),
    )
    out1 = dedup_pipeline(rd.from_arrow(table), cfg)
    c1 = out1["clusters"].to_pandas().sort_values("image_id").reset_index(drop=True)
    assert all(not m.get("reused", False) for m in out1["metrics"] if "stage" in m)

    # per-partition lineage: every persisted stage manifest carries one
    # record per parquet fragment, and their row sums equal the total
    import json

    for m in out1["metrics"]:
        if "partitions" in m:
            assert m["partitions"] and sum(p["rows"] for p in m["partitions"]) == m["rows"]
            assert all(p["bytes"] > 0 and p["file"].endswith(".parquet") for p in m["partitions"])
    sig_manifest = json.loads((tmp_path / "ck" / "signatures.manifest.json").read_text())
    assert sig_manifest["partitions"]

    out2 = dedup_pipeline(rd.from_arrow(table), cfg)
    c2 = out2["clusters"].to_pandas().sort_values("image_id").reset_index(drop=True)
    reused = [m for m in out2["metrics"] if m.get("reused")]
    assert {m["stage"] for m in reused} == {"signatures", "pairs_bands", "pairs"}
    assert c1.equals(c2)

    cfg3 = DedupConfig(
        phash_col=None,
        use_substring=False,
        checkpoint_dir=str(tmp_path / "ck"),
        threshold=0.5,
    )
    out3 = dedup_pipeline(rd.from_arrow(table), cfg3)
    assert not [m for m in out3["metrics"] if m.get("reused")]


def test_pinned_stage_metrics(ray_session, corpus):
    """Without a checkpoint dir each pinned stage's metrics record
    carries the rows and blocks of the Dataset it returns."""
    import ray.data as rd

    table, _ = corpus
    out = dedup_pipeline(rd.from_arrow(table), DedupConfig())
    pinned = {m["stage"]: m for m in out["metrics"] if "rows" in m}
    assert set(pinned) == {"signatures", "pairs_bands", "pairs_substring", "pairs"}
    assert pinned["signatures"]["rows"] == table.num_rows
    assert pinned["signatures"]["blocks"] == out["signatures"].num_blocks() >= 1
    assert pinned["pairs"]["rows"] == pinned["pairs_bands"]["rows"] + pinned["pairs_substring"]["rows"]
    assert all(m["blocks"] >= 1 for m in pinned.values())


def test_decode_invariant(corpus):
    """Per-row invariant (input_hint): decode every payload; lossless
    rows bit-exact, lossy rows PSNR ≥ 40 dB vs the pre-quantization
    reference pixels."""
    from raydedup.media import decode_image, psnr
    from raydedup.synth import _pixels

    table, truth = corpus
    corrupt = set(truth.corrupt_ids)
    n_lossy = 0
    for i in range(table.num_rows):
        row = {c: table.column(c)[i].as_py() for c in ("image_id", "bytes", "w", "h", "fmt")}
        if row["image_id"] in corrupt:
            with pytest.raises(Exception):
                decode_image(row["bytes"], row["w"], row["h"], row["fmt"])
            continue
        img = decode_image(row["bytes"], row["w"], row["h"], row["fmt"])
        assert img.shape == (row["h"], row["w"], 3)
        if row["fmt"] == "png":
            idx = int(row["image_id"].split("-")[1])
            if idx < 150:  # base row: reference pixels regenerable from seed
                ref = _pixels(idx, row["w"], row["h"], 42)
                p = psnr(img, ref)
                assert p >= 40.0, f"{row['image_id']} PSNR {p:.1f} < 40"
                if p != float("inf"):
                    n_lossy += 1
    assert n_lossy >= 0  # lossy slice is small and probabilistic at this n


def test_docs_query_matches_reference(ray_session, reference_datasketch):
    """The driver-graded documents query (lsh_candidate_pairs_docs at
    sf0.001) equals the reference's candidate pairs on the real table."""
    import duckdb

    from raydedup.queries import q_lsh_candidate_pairs_docs
    from raydedup.hashing import word_ngram_shingles

    sf = "/root/testdata/sf0.001"
    rows = duckdb.sql(f"SELECT doc_id, text FROM read_parquet('{sf}/documents.parquet')").fetchall()
    lsh = reference_datasketch.MinHashLSH(threshold=0.8, num_perm=128)
    sigs = {}
    for doc_id, text in rows:
        m = reference_datasketch.MinHash(num_perm=128, seed=1)
        m.update_batch(sorted(word_ngram_shingles(text, n=3)))
        sigs[doc_id] = m
        lsh.insert(doc_id, m, check_duplication=False)
    ref_pairs = set()
    for doc_id, _ in rows:
        for cand in lsh.query(sigs[doc_id]):
            if cand != doc_id:
                ref_pairs.add(tuple(sorted((doc_id, cand))))
    ours = {
        tuple(sorted((r["id_a"], r["id_b"])))
        for r in q_lsh_candidate_pairs_docs(sf).take_all()
    }
    assert ours == ref_pairs


def test_partial_checkpoint_resume(ray_session, corpus, tmp_path):
    """Simulates a run killed mid-pipeline: later stage checkpoints are
    missing, earlier ones present → earlier stages reused, rest rebuilt."""
    import os
    import shutil

    import ray.data as rd

    table, _ = corpus
    cfg = DedupConfig(
        phash_col=None,
        use_substring=False,
        num_partitions=4,
        checkpoint_dir=str(tmp_path / "ck"),
    )
    out1 = dedup_pipeline(rd.from_arrow(table), cfg)
    c1 = out1["clusters"].to_pandas().sort_values("image_id").reset_index(drop=True)

    # "crash" after the signature stage: drop every pair checkpoint
    for name in ("pairs_bands", "pairs"):
        shutil.rmtree(tmp_path / "ck" / name, ignore_errors=True)
        m = tmp_path / "ck" / f"{name}.manifest.json"
        if m.exists():
            os.remove(m)

    out2 = dedup_pipeline(rd.from_arrow(table), cfg)
    c2 = out2["clusters"].to_pandas().sort_values("image_id").reset_index(drop=True)
    reused = {m["stage"] for m in out2["metrics"] if m.get("reused")}
    rebuilt = {m["stage"] for m in out2["metrics"] if "stage" in m and not m.get("reused", False)}
    assert "signatures" in reused
    assert {"pairs_bands", "pairs"} <= rebuilt
    assert c1.equals(c2)


def test_pipeline_degenerate_inputs(ray_session):
    """Empty and single-row corpora short-circuit cleanly (an empty
    materialized dataset has schema()=None, which used to crash the
    substring stage's type lookup)."""
    import ray.data as rd

    from raydedup.pipeline import DedupConfig, dedup_pipeline

    empty = pa.table(
        {
            "image_id": pa.array([], pa.string()),
            "caption": pa.array([], pa.string()),
            "phash": pa.array([], pa.int64()),
        }
    )
    single = pa.table(
        {
            "image_id": pa.array(["a"]),
            "caption": pa.array(["hello world foo bar"]),
            "phash": pa.array([5], pa.int64()),
        }
    )
    for t in (empty, single):
        out = dedup_pipeline(rd.from_arrow(t), DedupConfig())
        clusters = out["clusters"]
        n = clusters.num_rows if hasattr(clusters, "num_rows") else clusters.count()
        assert n == 0
        assert out["pairs"].count() == 0


def test_stage_functions_accept_empty_inputs(ray_session):
    """Library users call the stage functions directly — empty datasets
    (whose materialized form reports schema()=None) must yield empty
    results, not AttributeErrors."""
    import ray.data as rd

    import raydedup.stages.dedup as dd
    from raydedup.stages.components import connected_components

    ed = rd.from_arrow(
        pa.table({"doc_id": pa.array([], pa.int64()), "text": pa.array([], pa.string())})
    )
    assert dd.exact_dedup(ed, ["text"], "doc_id").count() == 0
    assert dd.substring_pairs(ed, "doc_id", "text").count() == 0
    assert dd.ngram_jaccard_pairs(ed, "doc_id", "text").count() == 0
    ee = rd.from_arrow(
        pa.table({"id_a": pa.array([], pa.string()), "id_b": pa.array([], pa.string())})
    )
    assert connected_components(ee).num_rows == 0


@pytest.mark.parametrize("threshold", [0.5, 0.8])
def test_ngram_pairs_match_bruteforce(ray_session, threshold, monkeypatch):
    """Ground-truth conformance for the AllPairs join at BOTH common
    thresholds (the SQL oracle pins t=0.5 only): exact Python
    shingle-set Jaccard/containment over all O(n²) pairs vs the
    operators on BOTH verify branches (broadcast, then keyed shuffle)
    — validates the prefix, length and PPJoin positional filters and
    both code sources end-to-end."""
    import ray.data as rd

    import raydedup.stages.dedup as dd
    from raydedup.hashing import word_ngram_shingles
    from raydedup.stages.topk import containment_pairs_exact

    rng = np.random.default_rng(11)
    vocab = [f"w{k}" for k in range(30)]
    docs, base = [], []
    for i in range(90):
        L = int(rng.integers(4, 30))
        words = [vocab[k] for k in rng.integers(0, len(vocab), L)]
        base.append(words)
        docs.append(" ".join(words))
    for i in range(60):  # planted near-dups: light edits of earlier docs
        src = list(base[int(rng.integers(0, len(base)))])
        for _ in range(int(rng.integers(0, 3))):
            src[int(rng.integers(0, len(src)))] = vocab[int(rng.integers(0, len(vocab)))]
        docs.append(" ".join(src))
    ids = [f"d{i:03d}" for i in range(len(docs))]
    tbl = pa.table({"doc_id": pa.array(ids), "text": pa.array(docs)})

    sets = {i: word_ngram_shingles(t, n=3) for i, t in zip(ids, docs)}
    want_j, want_c = set(), set()
    for x in range(len(ids)):
        for y in range(len(ids)):
            A, B = sets[ids[x]], sets[ids[y]]
            if not A or not B:
                continue
            inter = len(A & B)
            if x < y:
                un = len(A | B)
                if un and inter / un >= threshold:
                    want_j.add((ids[x], ids[y]))
            if x != y and inter / len(A) >= threshold:
                want_c.add((ids[x], ids[y]))

    for limit in (dd.VERIFY_BROADCAST_DOCS, 0):  # broadcast, then shuffle
        monkeypatch.setattr(dd, "VERIFY_BROADCAST_DOCS", limit)
        got_j = {
            (r["id_a"], r["id_b"])
            for r in dd.ngram_jaccard_pairs(
                rd.from_arrow(tbl), "doc_id", "text", n=3, threshold=threshold
            ).take_all()
        }
        assert got_j == want_j
        got_c = {
            (r["id_a"], r["id_b"])
            for r in containment_pairs_exact(
                rd.from_arrow(tbl), "doc_id", "text", n=3, threshold=threshold
            ).take_all()
        }
        assert got_c == want_c
    assert want_j and want_c  # the corpus must actually plant matches


@pytest.mark.parametrize("blocks", [1, 8], ids=["one_block", "many_blocks"])
def test_substring_short_doc_heavy_corpus(ray_session, blocks):
    """Short docs (< window tokens, here ~35% of the corpus) are
    anchored on their whole token list and found by the containers'
    short-length windows. Compared against the SQL-oracle semantics
    brute-forced in Python: strict char-length + space-delimited
    containment. Runs the corpus as ONE input block and as many, so
    queries and their containers also sit in different map batches."""
    import ray.data as rd

    from raydedup.stages.dedup import substring_pairs

    rng = np.random.default_rng(13)
    vocab = [f"t{i}" for i in range(25)]
    texts = []
    for i in range(65):  # long docs (>= window)
        k = int(rng.integers(4, 14))
        texts.append(" ".join(vocab[j] for j in rng.integers(0, 25, size=k)))
    for i in range(35):  # short docs: 1..3 tokens
        k = int(rng.integers(1, 4))
        texts.append(" ".join(vocab[j] for j in rng.integers(0, 25, size=k)))
    # planted cases
    texts[65] = "t1 t2"                       # short contained mid-doc
    texts[0] = "t9 t8 t1 t2 t7 t6 t5"
    texts[66] = "t3"                          # 1-token doc in many docs
    texts[67] = "t3 t4 t3"                    # short containing texts[66]
    texts[68] = texts[69] = "t4 t5"           # identical shorts: no pair
    # a 5-token slice of a 65-token container whose remainder shares
    # nothing with it: containment holds however dissimilar the rest is
    texts.append("zq zw ze zr zt")
    texts.append(texts[-1] + " " + " ".join(f"w{i}" for i in range(60)))
    n = len(texts)
    ids = [f"d{i:03d}" for i in range(n)]
    t = pa.table({"doc_id": pa.array(ids), "text": pa.array(texts)})

    got = {
        (r["id_a"], r["id_b"])
        for r in substring_pairs(
            rd.from_arrow(t).repartition(blocks), "doc_id", "text", window=4
        ).take_all()
    }
    want = {
        (ids[i], ids[j])
        for i in range(n)
        for j in range(n)
        if i != j
        and len(texts[i]) < len(texts[j])
        and f" {texts[i]} " in f" {texts[j]} "
    }
    assert got == want
    assert ("d065", "d000") in want  # the planted short-in-long pair
    assert ("d066", "d067") in want  # short-in-short
    assert ("d100", "d101") in want  # slice of a long, dissimilar container

"""Self-tests of the benchmark: its checks reject corrupted results, its
inputs are reproducible, and a traced run reports every per-layer
metric of the layers each workload runs.

    python3 -m pytest perfbench -q      # from the checkout root

The traced-run tests start a Ray session per workload (1-2 min each).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pyarrow as pa
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, ROOT]

import corpus  # noqa: E402
import workloads as W  # noqa: E402


# ------------------------------------------------------------- checks
def _labels(pairs):
    ids, cl = [], []
    for i, c in pairs:
        ids.append(i)
        cl.append(c)
    return pa.table({"image_id": ids, "cluster_id": cl})


def test_same_partition_accepts_relabelling_and_rejects_corruption():
    good = _labels([("a", "x"), ("b", "x"), ("c", "y"), ("d", "y")])
    relabelled = _labels([("a", "q"), ("b", "q"), ("c", "r"), ("d", "r")])
    dropped = _labels([("a", "x"), ("b", "x"), ("c", "y")])
    moved = _labels([("a", "x"), ("b", "y"), ("c", "y"), ("d", "y")])
    assert W.same_partition(good, relabelled)
    assert not W.same_partition(good, dropped)
    assert not W.same_partition(good, moved)


def _star_pairs(labels: pa.Table) -> pa.Table:
    """One edge from each cluster's smallest id to every other member."""
    rep = W.canonical_labels(labels)
    edges = sorted((r, i) for i, r in rep.items() if i != r)
    return pa.table({"id_a": [a for a, _ in edges], "id_b": [b for _, b in edges]})


def test_pair_partition_is_the_connected_components():
    pairs = pa.table({"id_a": ["b", "c", "e", "x"], "id_b": ["a", "b", "d", "x"]})
    expected = _labels([("a", 1), ("b", 1), ("c", 1), ("d", 2), ("e", 2), ("x", 3)])
    assert W.same_partition(W.pair_partition(pairs), expected)


def test_cluster_checks_reject_a_dropped_cluster_label():
    from raydedup.synth import make_images_table, truth_pairs_table

    table, gt = make_images_table(n_base=300, seed=5, with_images=False)
    truth = truth_pairs_table(table, gt)
    pairs = _star_pairs(_labels(sorted(gt.clusters().items())))
    clusters = W.pair_partition(pairs)
    recall, why = W.cluster_failures(clusters, truth, pairs=pairs)
    assert recall == 1.0 and why == []
    # drop the label of one member of a duplicate pair
    must = truth.filter(pa.compute.equal(truth.column("kind"), "exact_dup"))
    victim = must.column("image_id")[0].as_py()
    dropped = clusters.filter(pa.compute.not_equal(clusters.column("image_id"), victim))
    assert W.cluster_failures(dropped, truth, pairs=pairs)[1]
    # excluding a kind removes its pairs from the must set
    assert W.cluster_failures(clusters, truth, exclude_kinds=("substring_dup",))[0] == 1.0


def test_result_signature_rejects_a_wrong_query_row():
    import pandas as pd

    oracle = pd.DataFrame({"doc_id": [1, 2, 3], "score": [0.5, 0.25, 1.0]})
    shuffled = oracle.iloc[[2, 0, 1]].reset_index(drop=True)[["score", "doc_id"]]
    wrong = oracle.copy()
    wrong.loc[1, "score"] = 0.3
    missing = oracle.iloc[:2]
    assert W.result_signature(shuffled) == W.result_signature(oracle)
    assert W.result_signature(wrong) != W.result_signature(oracle)
    assert W.result_signature(missing) != W.result_signature(oracle)


def test_stable_values_reject_a_changed_value(tmp_path):
    path = str(tmp_path / "stable.json")
    assert W.StableValues(path).check("pairs", 10)
    again = W.StableValues(path)  # a later run at the same seed
    assert again.check("pairs", 10)
    assert not again.check("pairs", 11)


# ------------------------------------------------------------- inputs
def test_corpus_digest_reproducible_per_seed():
    i1, t1 = corpus.make_images(7, n_base=300)
    i2, t2 = corpus.make_images(7, n_base=300)
    i3, _ = corpus.make_images(8, n_base=300)
    assert corpus.table_digest(i1) == corpus.table_digest(i2)
    assert corpus.table_digest(t1) == corpus.table_digest(t2)
    assert corpus.table_digest(i1) != corpus.table_digest(i3)


# --------------------------------------------------------- traced run
STAGE_METRICS = [n for n, _ in W.PER_LAYER if n.startswith("stage.")]
EVERYWHERE = [n for n, _ in W.PER_LAYER if n.split(".")[0] in ("kernel", "grouped", "trace")]
RUNS_ON = {
    "flagship": EVERYWHERE
    + [n for n in STAGE_METRICS if n != "stage.components.distributed"]
    + [f"query.{q}.s" for q in W.QUERY_MIX],
    "lsh-distributed": EVERYWHERE + [n for n in STAGE_METRICS if "substring" not in n],
}


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=200,
    )
    assert p.returncode == 0, p.stderr[-2000:]
    out = json.loads(p.stdout.strip().splitlines()[-1])
    assert out["correct"] and out["failed"] == 0, p.stderr[-2000:]
    m = {k: v["value"] for k, v in out["metrics"].items()}
    assert set(m) == {n for n, _ in W.PER_LAYER}
    for name in RUNS_ON[workload]:
        assert m[name] != 0, name
    stages = {k: m[f"stage.{k}.s"] for k in ("signatures", "pairs_bands", "pairs_substring", "pairs", "components")}
    if workload == "flagship":
        assert max(stages, key=stages.get) == "pairs_substring"
        assert m["stage.components.distributed"] == 0
    if workload == "lsh-distributed":
        assert m["stage.pairs_substring.s"] == 0 and m["stage.components.distributed"] == 1

"""Substring kernels without Ray: the per-batch query kernel, the class
table and the per-batch verify kernel, driven over in-memory Arrow
batches exactly as ``substring_pairs`` wires them, against the
brute-force oracle ``f" {a} " in f" {b} " and len(a) < len(b)``."""

from __future__ import annotations

import itertools

import numpy as np
import pyarrow as pa
import pytest

from raydedup.stages.dedup import (
    substring_query_classes,
    substring_query_rows,
    substring_verify_batch,
)


def _kernel_pairs(texts, ids=None, batches=1, window=4, id_type=pa.int64()):
    """Split the corpus into ``batches`` batches, collect the query rows
    of all of them, then verify each batch against the one class table.
    Asserts the pairs come out globally unique."""
    ids = list(range(len(texts))) if ids is None else ids
    t = pa.table({"doc_id": pa.array(ids, id_type), "text": pa.array(texts, pa.string())})
    step = max(1, -(-len(t) // batches))
    parts = [t.slice(i, step) for i in range(0, len(t), step)]
    queries = pa.concat_tables([substring_query_rows(b, "doc_id", "text", window) for b in parts])
    classes = substring_query_classes(queries, "doc_id", window)
    out = pa.concat_tables(
        [substring_verify_batch(b, "doc_id", "text", window, classes) for b in parts]
    )
    assert out.schema.field("id_a").type == id_type
    got = list(zip(out.column("id_a").to_pylist(), out.column("id_b").to_pylist()))
    assert len(got) == len(set(got)), "pairs must be globally unique"
    return set(got)


def _oracle(texts, ids=None):
    ids = list(range(len(texts))) if ids is None else ids
    return {
        (ids[i], ids[j])
        for i, j in itertools.permutations(range(len(texts)), 2)
        if texts[i] is not None
        and texts[j] is not None
        and len(texts[i]) < len(texts[j])
        and f" {texts[i]} " in f" {texts[j]} "
    }


@pytest.mark.parametrize("batches", [1, 3])
def test_kernels_match_oracle_random(batches):
    rng = np.random.default_rng(7)
    for _ in range(100):
        n, vocab = int(rng.integers(1, 30)), int(rng.integers(2, 7))
        texts = [
            " ".join(f"t{x}" for x in rng.integers(0, vocab, size=int(rng.integers(1, 9))))
            for _ in range(n)
        ]
        assert _kernel_pairs(texts, batches=batches) == _oracle(texts)


def _query_anchored_inside(window=4):
    """A (window + 2)-token query whose min anchor is its middle window,
    so a container that changes only its first or only its last token
    still holds the anchor window."""
    for k in range(200):
        toks = [f"q{k}x{i}" for i in range(window + 2)]
        row = substring_query_rows(
            pa.table({"doc_id": [0], "text": [" ".join(toks)]}), "doc_id", "text", window
        )
        if row.column("qoff")[0].as_py() == 1:
            return toks
    raise AssertionError("no query anchored on its middle window")


@pytest.mark.parametrize("batches", [1, 2])
def test_near_miss_at_either_end(batches):
    """The anchor window matches inside the container, but the query's
    first or last token differs there: no pair."""
    q = _query_anchored_inside()
    texts = [
        " ".join(q),
        " ".join(["pre", "zz", *q[1:], "post"]),  # first token differs
        " ".join(["pre", *q[:-1], "zz", "post"]),  # last token differs
        " ".join(["pre", *q, "post"]),  # the true container
    ]
    got = _kernel_pairs(texts, batches=batches)
    assert got == _oracle(texts) == {(0, 3)}


@pytest.mark.parametrize("window", [2, 4])
def test_query_at_container_edges(window):
    """A query at token 0 and one ending on the container's last token;
    a short (< window) query at both edges too."""
    texts = [
        "p q r s t u v w",
        "p q r s t",  # st = 0
        "s t u v w",  # ends at the last token
        "p",  # short, at token 0
        "w",  # short, the last token
    ]
    assert _kernel_pairs(texts, window=window) == _oracle(texts)
    assert {(1, 0), (2, 0), (3, 0), (4, 0)} <= _oracle(texts)


def test_container_holding_query_twice_gives_one_pair():
    texts = ["k l m n", "k l m n z k l m n", "k l"]
    got = _kernel_pairs(texts)
    assert got == _oracle(texts)
    assert (0, 1) in got and (2, 1) in got and (2, 0) in got


@pytest.mark.parametrize("batches", [1, 3])
def test_identical_flood_inside_one_container(batches):
    """5 identical docs inside one container: 5 pairs, none among the 5."""
    texts = ["c d e f g"] * 5 + ["a b c d e f g h"]
    got = _kernel_pairs(texts, batches=batches)
    assert got == _oracle(texts) == {(i, 5) for i in range(5)}


def test_empty_and_null_captions():
    texts = ["", None, "a b c d e", "b c d", None, ""]
    assert _kernel_pairs(texts, batches=2) == _oracle(texts) == {(3, 2)}
    assert _kernel_pairs(["", None]) == set()


def test_int64_ids_beyond_int32():
    base = 1 << 40
    texts = ["u v w x y z", "v w x y", "w"]
    ids = [base + 3, base + 1, base + 2]
    assert _kernel_pairs(texts, ids=ids, batches=2) == _oracle(texts, ids)
    assert _kernel_pairs(texts, ids=ids) == {(base + 1, base + 3), (base + 2, base + 3), (base + 2, base + 1)}


def test_string_ids():
    texts = ["one two three four five", "two three four", "nothing here at all"]
    ids = ["d0", "d1", "d2"]
    assert _kernel_pairs(texts, ids=ids, id_type=pa.string()) == {("d1", "d0")}

"""`python -m raydedup.job` — the `ray job submit` entrypoint.

Runs the CLI main() in-process against the shared Ray session (the
entrypoint only inits when no session exists, per the driver contract)
and checks the resumable output layout."""

import json
import os

import pyarrow.parquet as pq
import pytest

from raydedup import job
from raydedup.synth import make_images_table


@pytest.fixture(scope="module")
def input_parquet(tmp_path_factory):
    root = tmp_path_factory.mktemp("jobin")
    table, truth = make_images_table(n_base=120, seed=7)
    path = str(root / "images.parquet")
    pq.write_table(table, path)
    return path, truth


@pytest.mark.parametrize("extra", [[], ["--no-simhash"]], ids=["default", "no-simhash"])
def test_job_entrypoint_writes_clusters(ray_session, input_parquet, tmp_path, extra):
    path, truth = input_parquet
    out = str(tmp_path / "out")
    summary = job.main(["--input", path, "--output", out, "--write-pairs", *extra])
    # --no-simhash turns SimHash off by dropping the phash column
    assert json.loads(summary["config_fingerprint"])["phash_col"] == (None if extra else "phash")

    assert summary["clustered_rows"] > 0
    assert summary["pair_rows"] > 0
    clusters = pq.read_table(os.path.join(out, "clusters"))
    assert set(clusters.column_names) == {"image_id", "cluster_id"}
    # every planted exact-dup row lands in a cluster
    clustered = set(clusters.column("image_id").to_pylist())
    planted = {i for i, k in truth.kind.items() if k == "exact_dup"}
    assert planted <= clustered
    with open(os.path.join(out, "job_summary.json")) as f:
        assert json.load(f)["clustered_rows"] == summary["clustered_rows"]


def test_job_resumes_from_checkpoint(ray_session, input_parquet, tmp_path):
    path, _ = input_parquet
    out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    ckpt = str(tmp_path / "ckpt")
    first = job.main(["--input", path, "--output", out1, "--checkpoint-dir", ckpt])
    assert first["resumed_stages"] == []
    second = job.main(["--input", path, "--output", out2, "--checkpoint-dir", ckpt])
    # every checkpointable stage is reused, results identical
    assert set(second["resumed_stages"]) == set(first["stage_walls"]) - {"components"}
    assert second["clustered_rows"] == first["clustered_rows"]
    # a config change invalidates the checkpoint (fingerprint mismatch)
    third = job.main(
        ["--input", path, "--output", str(tmp_path / "o3"), "--checkpoint-dir", ckpt,
         "--threshold", "0.5"]
    )
    assert third["resumed_stages"] == []

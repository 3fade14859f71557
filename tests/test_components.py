"""Connected components: the distributed path must equal the driver
DSU; bucket stats; bucket-cap stars."""

import numpy as np
import pyarrow as pa


def _random_edges(n_nodes=300, n_edges=500, seed=11):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, n_nodes, n_edges)
    b = rng.integers(0, n_nodes, n_edges)
    keep = a != b
    lo = np.minimum(a[keep], b[keep])
    hi = np.maximum(a[keep], b[keep])
    return pa.table({"id_a": pa.array(lo), "id_b": pa.array(hi)})


def test_distributed_components_equal_dsu(ray_session):
    import ray.data as rd

    from raydedup.stages.components import components_distributed, components_driver

    edges = _random_edges()
    want = components_driver(rd.from_arrow(edges))
    got = (
        components_distributed(rd.from_arrow(edges), num_partitions=4)
        .to_pandas()
        .sort_values("image_id")
        .reset_index(drop=True)
    )
    want_df = want.to_pandas().sort_values("image_id").reset_index(drop=True)
    assert got["image_id"].tolist() == want_df["image_id"].tolist()
    assert got["cluster_id"].tolist() == want_df["cluster_id"].tolist()


def test_bucket_stats(ray_session):
    import ray.data as rd

    from raydedup.stages.bands import bucket_stats

    t = pa.table(
        {
            "image_id": pa.array([f"i{k}" for k in range(6)]),
            "bucket": pa.array([1, 1, 1, 2, 2, 3], pa.uint64()),
        }
    )
    got = {r["bucket"]: r["size"] for r in bucket_stats(rd.from_arrow(t)).take_all()}
    assert got == {1: 3, 2: 2, 3: 1}


def test_distributed_components_chain(ray_session):
    """Worst-case diameter: a 300-node path (would exceed any fixed
    round cap with plain neighbor-min) converges in a few star rounds,
    because each kernel contracts whole block-local components.
    ``driver_finish_rows=0`` keeps the driver from taking the peel
    output."""
    import ray.data as rd

    from raydedup.stages.components import components_distributed

    edges = pa.table({"id_a": pa.array(range(299)), "id_b": pa.array(range(1, 300))})
    got = components_distributed(
        rd.from_arrow(edges), num_partitions=4, driver_finish_rows=0
    ).to_pandas()
    assert len(got) == 300
    assert (got["cluster_id"] == 0).all()


def test_driver_components_chain_scales_logarithmically(ray_session):
    """Driver kernel on a 100k-node path with scrambled codes: plain
    neighbor-min propagation needs ~n/4 rounds here (145 s measured);
    hook-to-min + full compression converges in O(log n). Equality vs
    the per-edge Python DSU is asserted on a prefix; the full run just
    has to finish fast."""
    import time

    import ray.data as rd

    from raydedup.stages.components import DSU, components_driver

    n = 100_000
    rng = np.random.default_rng(3)
    name = rng.permutation(n)  # scrambled ids → worst-case label order
    edges = pa.table(
        {
            "id_a": pa.array([f"img{name[i]:06d}" for i in range(n - 1)]),
            "id_b": pa.array([f"img{name[i]:06d}" for i in range(1, n)]),
        }
    )
    # prefix equality vs DSU
    k = 2000
    sl = edges.slice(0, k)
    dsu = DSU()
    for x, y in zip(sl.column("id_a").to_pylist(), sl.column("id_b").to_pylist()):
        dsu.union(x, y)
    got = components_driver(rd.from_arrow(sl))
    gd = dict(zip(got.column("image_id").to_pylist(), got.column("cluster_id").to_pylist()))
    assert gd == dsu.labels()
    # full path: one component, wall bounded (pre-fix: minutes)
    t0 = time.perf_counter()
    full = components_driver(rd.from_arrow(edges))
    assert time.perf_counter() - t0 < 20.0
    assert full.num_rows == n
    assert len(set(full.column("cluster_id").to_pylist())) == 1


def test_bucket_cap_star_is_component_equivalent(ray_session):
    """Buckets above bucket_cap emit a star instead of O(m²) pairs —
    same connected components, far fewer edges. 60 identical
    signatures share every MinHash band; one more identical pair
    shares a different set of buckets."""
    import ray.data as rd

    from raydedup.params import optimal_param
    from raydedup.schema import numpy_to_sig
    from raydedup.stages.bands import fused_candidate_pairs
    from raydedup.stages.components import components_driver
    from raydedup.stages.grouped import unique_rows_partitioned

    m = 60
    rng = np.random.default_rng(0)
    sig_x, sig_y = rng.integers(0, 1 << 32, (2, 128), dtype=np.uint64)
    table = pa.table(
        {
            "image_id": pa.array([f"x{i:03d}" for i in range(m)] + ["y0", "y1"]),
            "minhash": numpy_to_sig(np.stack([sig_x] * m + [sig_y] * 2)),
        }
    )
    b, r = optimal_param(0.8, 128)

    def pairs(cap):
        return unique_rows_partitioned(
            fused_candidate_pairs(
                rd.from_arrow(table), "image_id", b, r, bucket_cap=cap, num_partitions=2
            ),
            ["id_a", "id_b"],
            2,
        )

    full, star = pairs(512), pairs(8)
    n_full, n_star = full.count(), star.count()
    assert n_full == m * (m - 1) // 2 + 1
    assert n_star == (m - 1) + 1  # star + the identical pair
    lab_full = components_driver(full).to_pandas()
    lab_star = components_driver(star).to_pandas()
    assert lab_full.equals(lab_star)


def test_distributed_deep_forest(ray_session):
    """Many ascending 4-node paths: the peel sets each path's last edge
    aside, and that leaf hangs under a node that is not its
    component's root, so the relabel must give it the star root, not
    its parent. ``driver_finish_rows=0`` forces the relabel."""
    import ray.data as rd

    from raydedup.stages.components import components_distributed, components_driver

    a, b = [], []
    for k in range(50):  # paths n0<n1<n2<n3
        ids = [f"n{k:03d}{j}" for j in range(4)]
        a += ids[:-1]
        b += ids[1:]
    edges = pa.table({"id_a": pa.array(a), "id_b": pa.array(b)})
    want = components_driver(rd.from_arrow(edges)).to_pandas()
    got = (
        components_distributed(rd.from_arrow(edges), num_partitions=4, driver_finish_rows=0)
        .to_pandas()
        .sort_values("image_id")
        .reset_index(drop=True)
    )
    assert got.equals(want.sort_values("image_id").reset_index(drop=True))


def test_distributed_components_random_stress(ray_session):
    """Randomized parity vs the Python DSU across the shapes that broke
    earlier designs: mixed stars + chains + random blobs + duplicate
    edges + reversed orientations, on every ending: driver finish on
    the peel output, driver finish after a star round (a budget one row
    under the distinct edge count, which the peel output misses), and
    the fully distributed relabel."""
    import ray.data as rd

    from raydedup.stages.components import DSU, components_distributed

    rng = np.random.default_rng(17)
    a_parts, b_parts = [], []
    nid = 0

    def take(k):
        nonlocal nid
        out = np.arange(nid, nid + k)
        nid += k
        return out

    for _ in range(8):  # stars
        s = take(int(rng.integers(2, 30)))
        a_parts += [np.full(len(s) - 1, s[0])]
        b_parts += [s[1:]]
    for _ in range(4):  # chains (scrambled ids)
        c = rng.permutation(take(int(rng.integers(5, 40))))
        a_parts += [c[:-1]]
        b_parts += [c[1:]]
    blob = take(60)  # random blob
    a_parts += [rng.choice(blob, 80)]
    b_parts += [rng.choice(blob, 80)]
    a = np.concatenate(a_parts)
    b = np.concatenate(b_parts)
    keep = a != b
    a, b = a[keep], b[keep]
    dup = rng.integers(0, len(a), len(a) // 2)  # duplicates, half reversed
    a, b = np.concatenate([a, b[dup]]), np.concatenate([b, a[dup]])
    ids_a = [f"s{x:05d}" for x in a]
    ids_b = [f"s{x:05d}" for x in b]
    edges = pa.table({"id_a": pa.array(ids_a), "id_b": pa.array(ids_b)})

    dsu = DSU()
    for x, y in zip(ids_a, ids_b):
        dsu.union(x, y)
    want = dict(sorted(dsu.labels().items()))
    n_distinct = len({(min(x, y), max(x, y)) for x, y in zip(ids_a, ids_b)})

    for finish_rows in (4_000_000, n_distinct - 1, 0):
        got_tbl = (
            components_distributed(
                rd.from_arrow(edges), num_partitions=4, driver_finish_rows=finish_rows
            )
            .to_pandas()
            .sort_values("image_id")
        )
        got = dict(zip(got_tbl["image_id"], got_tbl["cluster_id"]))
        assert got == want, f"finish_rows={finish_rows}"


def test_distributed_components_string_ids(ray_session):
    """The flagship id column is a STRING — the distributed path (and
    its fixpoint test) must work on non-numeric ids. Every cluster has
    size 2, so the peel leaves no residue: with the default
    ``driver_finish_rows`` the driver finishes on the peel output, and
    with 0 the relabel runs over an empty star set."""
    import ray.data as rd

    from raydedup.stages.components import components_distributed, components_driver

    edges = pa.table(
        {
            "id_a": pa.array([f"img-{i:04d}" for i in range(0, 60, 2)]),
            "id_b": pa.array([f"img-{i:04d}" for i in range(1, 61, 2)]),
        }
    )
    want = components_driver(rd.from_arrow(edges)).to_pandas().sort_values("image_id").reset_index(drop=True)
    for finish_rows in (4_000_000, 0):
        got = (
            components_distributed(
                rd.from_arrow(edges), num_partitions=4, driver_finish_rows=finish_rows
            )
            .to_pandas()
            .sort_values("image_id")
            .reset_index(drop=True)
        )
        assert got["image_id"].tolist() == want["image_id"].tolist()
        assert got["cluster_id"].tolist() == want["cluster_id"].tolist()


def test_connected_components_distributed_raw_multiset(ray_session):
    """``connected_components`` hands a raw multiset (duplicate and
    reversed edges) over the driver budget straight to the distributed
    path, whose peel pass is the only dedupe."""
    import ray.data as rd

    from raydedup.stages.components import components_driver, connected_components

    a = [f"d{i:03d}" for i in [0, 0, 1, 2, 4, 5, 7, 7, 8, 11, 12, 12]]
    b = [f"d{i:03d}" for i in [1, 2, 3, 3, 5, 6, 8, 9, 9, 12, 13, 14]]
    a, b = a + b[:6] + a[6:], b + a[:6] + b[6:]  # reversed + duplicate edges
    edges = rd.from_arrow(pa.table({"id_a": pa.array(a), "id_b": pa.array(b)}))
    want = components_driver(edges).to_pandas()
    got = (
        connected_components(edges, max_driver_edges=0, num_partitions=4)
        .to_pandas()
        .sort_values("image_id")
        .reset_index(drop=True)
    )
    assert got.equals(want.sort_values("image_id").reset_index(drop=True))

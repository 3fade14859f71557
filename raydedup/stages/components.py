"""Connected components over the candidate-pair edge list.

The reference stops at candidate sets (``MinHashLSH.query``); clustering
is user-land (SURVEY.md §2.5). Here:

- **driver union-find** (``_min_code_labels``, a vectorized
  hook-and-compress over dictionary codes) when the edge list is small
  enough to collect — candidate edges are tiny relative
  to the corpus (each near-dup cluster contributes O(cluster²) edges),
  so this covers test and most production scales;
- **distributed** otherwise, in three steps: one degree-1 peel pass
  that dedupes the edges and sets the leaf edges aside (on dedup graphs
  nearly all of them), alternating large-star / small-star rounds over
  the residue (Kiveris et al., *Connected Components in MapReduce and
  Beyond*, SoCC'14 — see PAPERS.md) that contract every block-local
  component with the driver's same kernel, and a changed-counter
  actor. Each of the peel, star and relabel passes is one
  ``grouped.map_key_runs``. As soon as
  residue plus leaves fit ``driver_finish_rows`` (checked on the peel
  output and after every round) the driver union-find finishes;
  otherwise, at the star fixpoint, one relabel shuffle gives each leaf
  its parent's star root.

Cluster id = min member id (deterministic, order-insensitive).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


class DSU:
    """Union-find with path halving + union by attaching larger root to
    smaller (so the root is always the MIN id — deterministic labels)."""

    def __init__(self):
        self.parent: dict = {}

    def find(self, x):
        p = self.parent
        if x not in p:
            p[x] = x
            return x
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra

    def labels(self) -> dict:
        return {x: self.find(x) for x in list(self.parent)}


def _min_code_labels(u, v, n: int):
    """Vectorized hook-and-compress union-find over int-coded edges
    ``(u[i], v[i])`` on nodes ``0..n-1`` (Shiloach–Vishkin shape): each
    round fully path-compresses the parent forest (pointer jumping),
    then hooks every edge's larger root onto the smaller via one
    scatter-min, dropping edges whose endpoints already share a root.
    Hooking onto the *minimum* adjacent root merges every edge-bearing
    component with at least one other per round → O(log n) rounds on
    ANY graph shape (a plain neighbor-min propagation is O(diameter):
    ~28k rounds on a 100k-node chain vs 17 here). Tolerates duplicate
    edges. Returns ``lab`` with ``lab[x]`` the smallest CODE in x's
    component."""
    lab = np.arange(n, dtype=np.int64)
    while True:
        while True:  # full path compression (lab is monotone: lab[x] <= x)
            ll = lab[lab]
            if np.array_equal(ll, lab):
                break
            lab = ll
        ru, rv = lab[u], lab[v]
        act = ru != rv
        if not act.any():
            return lab
        # merged endpoints stay merged — shrink the active edge set
        u, v = u[act], v[act]
        ru, rv = ru[act], rv[act]
        # hook larger root onto the smallest adjacent root (scatter-min)
        np.minimum.at(lab, np.maximum(ru, rv), np.minimum(ru, rv))


def _component_min_ids(lab, ids: pa.Array) -> pa.Array:
    """The min id of every node's component, per node code: ``lab``
    holds min CODES (first-occurrence order, arbitrary), and the
    contract is min ID, so one Arrow group-min over (label, id) fixes
    the representative per component."""
    g = pa.table({"g": pa.array(lab), "id": ids}).group_by("g").aggregate([("id", "min")])
    pos = np.empty(len(ids), np.int64)
    pos[g.column("g").to_numpy()] = np.arange(len(g))
    return g.column("id_min").combine_chunks().take(pa.array(pos[lab]))


def components_driver(pairs_ds) -> pa.Table:
    """Collect the (bounded — ``max_driver_edges``) edge list, intern
    the ids as dictionary codes and solve CC with ``_min_code_labels``.
    Tolerates duplicate edges (band multiplicity). Returns
    (image_id, cluster_id) for every node that appears in an edge,
    cluster id = min member id — identical labels to the per-edge
    Python DSU this replaces."""
    batches = [
        b.select(["id_a", "id_b"])
        for b in pairs_ds.iter_batches(batch_size=1 << 20, batch_format="pyarrow")
        if len(b)
    ]
    if not batches:
        return pa.table({"image_id": pa.array([]), "cluster_id": pa.array([])})
    t = pa.concat_tables(batches)
    # intern ids with Arrow's hash-based dictionary encode (sorting 2E
    # Python strings via np.unique measured 2× slower than the whole
    # rest of this function)
    both = pa.chunked_array(
        [t.column("id_a").combine_chunks(), t.column("id_b").combine_chunks()]
    ).combine_chunks()
    enc = both.dictionary_encode()
    ids_dict = enc.dictionary  # V unique ids, first-occurrence order
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    e = len(t)
    cluster = _component_min_ids(_min_code_labels(codes[:e], codes[e:], len(ids_dict)), ids_dict)
    out = pa.table({"image_id": ids_dict, "cluster_id": cluster})
    # deterministic row order (the previous DSU emitted sorted ids) —
    # Arrow C++ sort, not a Python-object sort
    return out.take(pc.sort_indices(out, sort_keys=[("image_id", "ascending")]))


def _flat(col, typ=None):
    """Table column (ChunkedArray) → plain Array (zero-copy when the
    column has one chunk, which is the common case post-sort)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
        if isinstance(col, pa.ChunkedArray):
            col = col.chunk(0) if col.num_chunks else pa.array([], typ or col.type)
    return col


class _Counter:
    """Tiny accumulator actor: per-pass changed-edge counts reported
    synchronously from block kernels (a separate ``Dataset.sum``
    execution costs ~1.2 s per pass in this sandbox). Task retries can
    only over-count — never under-count — so the zero test that stops
    the iteration stays sound."""

    def __init__(self):
        self.vals: dict = {}

    def add(self, key: str, n: int) -> None:
        self.vals[key] = self.vals.get(key, 0) + int(n)

    def get(self, key: str) -> int:
        return int(self.vals.get(key, 0))


_MAX_STAR_ROUNDS = 60


def components_distributed(
    pairs_ds,
    num_partitions: int = 32,
    driver_finish_rows: int = 4_000_000,
    n_edges: int | None = None,
):
    """Distributed connected components in three steps. ``pairs_ds`` is
    a raw (id_a, id_b) edge multiset: duplicates, either orientation.

    1. **Peel** — one shuffle keyed by node orients every edge child >
       parent and sends it to its child, with one marker row per
       distinct parent per block; it dedupes the edges globally and sets
       aside each LEAF edge: its child is the child of exactly one
       distinct edge and nobody's parent. Dedup pair tables are
       dominated by these (exact-dup stars, capped hot buckets, size-2
       clusters); a leaf is never a component min and connects nothing
       else, so only the residue needs contraction.
    2. **Star rounds** over the residue (Kiveris, Lattanzi, Mirrokni,
       Rastogi, Vassilvitskii: *Connected Components in MapReduce and
       Beyond*, SoCC'14 — see PAPERS.md). The state is the edge list
       itself, oriented child > parent, and each round is ONE staged
       execution of two keyed shuffles with vectorized Arrow kernels:

       - large-star(u): over symmetrized edges grouped by ``u``, emit
         ``(v, m)`` for every neighbor ``v > u``;
       - small-star(u): over canonical edges grouped at the LARGER
         endpoint, emit ``(u, m)`` and ``(x, m)`` for ``x ∈ N(u) \\ {m}``.

       Both kernels use ``m`` = the min id of u's whole BLOCK-LOCAL
       component (``_min_code_labels``, the driver's kernel, over the
       block's dictionary codes) — strictly stronger contraction than the
       paper's 1-hop ``min(N(u) ∪ {u})`` at identical shuffle cost; when
       u has no smaller neighbor and ``m < u``, large-star additionally
       emits ``(u, m)`` so u stays attached. Both passes preserve
       connectivity, keep parents strictly smaller than children, and
       report a changed-edge count through a zero-CPU accumulator actor
       (no extra aggregate execution). A joint no-op is exactly the star
       fixpoint: small-star no-op ⇒ every node has ≤ 1 smaller neighbor
       (a down-pointing forest); large-star no-op ⇒ any node with a
       larger neighbor heads its local component ⇒ depth-1 stars
       centered at component minima. The leaf edges plus the peel
       residue, or plus any round's edges, span the original
       components, so as soon as they fit under ``driver_finish_rows``
       (slim 2-column rows; the default bounds driver memory to
       ~100 MB) ``components_driver`` solves them and no further star
       round or relabel runs. Pass 0 to run to the fixpoint.
    3. **Relabel** — one shuffle keyed by node gives each leaf edge
       ``(c, p)`` p's star root when p is a star child, else p itself.
       That is exact: a leaf's parent is never a leaf, so p is either in
       the residue (a star child or a root) or only a parent of leaves,
       and then the min of its component. One slim distinct shuffle
       adds the roots' own rows.

    Returns a Dataset (image_id, cluster_id); like the driver path,
    only nodes that appear in at least one edge are labeled. All
    kernels are Arrow compute — string and numeric ids alike.
    """
    import ray
    import ray.data as rd

    from raydedup.stages.grouped import (
        effective_partitions,
        map_key_runs,
        staged,
        unique_rows_partitioned,
    )

    cap = effective_partitions(num_partitions)
    rows_per_part = 400_000  # slim 2-string-column rows ≈ 25 B each

    def _P(rows):
        return max(2, min(cap, rows // rows_per_part + 1))

    if n_edges is None:
        pairs_ds = staged(pairs_ds)
        n_edges = pairs_ds.count()

    id_type = pairs_ds.schema().base_schema.field("id_a").type
    counter = ray.remote(_Counter).options(num_cpus=0).remote()

    def _empty(cols=("c", "p")) -> pa.Table:
        return pa.table({c: pa.array([], id_type) for c in cols})

    def _run_of(starts, ends):
        return np.repeat(np.arange(len(starts)), ends - starts)

    def _expand_large(t: pa.Table) -> pa.Table:
        c, p = _flat(t.column("c"), id_type), _flat(t.column("p"), id_type)
        return pa.table({"u": pa.concat_arrays([c, p]), "v": pa.concat_arrays([p, c])})

    def _expand_small(t: pa.Table) -> pa.Table:
        return pa.table({"u": t.column("c"), "v": t.column("p")})

    def _star_block(large: bool, pass_key: str):
        def per_runs(block: pa.Table, starts, ends) -> pa.Table:
            n = len(block)
            if n == 0:
                return _empty()
            u, v = _flat(block.column("u"), id_type), _flat(block.column("v"), id_type)
            # drop duplicate (u, v) rows; partitioning is by u, so
            # consecutive-dedupe here is globally exact. A run start
            # differs in u from the row before it, so it is always kept.
            keep = np.ones(n, dtype=bool)
            keep[1:] = ~pc.and_(
                pc.equal(u.slice(1), u.slice(0, n - 1)), pc.equal(v.slice(1), v.slice(0, n - 1))
            ).to_numpy(zero_copy_only=False)
            if not keep.all():
                starts = (np.cumsum(keep) - 1)[starts]
                sel = pa.array(np.flatnonzero(keep))
                u, v = u.take(sel), v.take(sel)
                n = len(u)
            # block-local component min ids over dictionary codes
            enc = pc.dictionary_encode(pa.concat_arrays([u, v]))
            codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
            iu = codes[:n]
            lab = _min_code_labels(iu, codes[n:], len(enc.dictionary))
            node_min = _component_min_ids(lab, enc.dictionary)
            m_row = node_min.take(pa.array(iu))
            first = pa.array(starts)
            u_first, v_first, m_run = u.take(first), v.take(first), m_row.take(first)
            if large:
                mask = pc.greater(v, u)
                child, parent = v.filter(mask), m_row.filter(mask)
                chg = int(pc.sum(pc.and_(mask, pc.not_equal(m_row, u))).as_py() or 0)
                # every run whose component-min m < u emits (u, m): the
                # rewritten edges (v, m) drop u, so u must attach to m
                # directly (attaching only via u's smaller neighbor can
                # strand u on the wrong side — found by the random-graph
                # conformance test). When m == u's min neighbor this
                # duplicates a canonical edge (deduped next pass) and
                # counts as no change, keeping the star fixpoint quiet.
                ex = pc.less(m_run, u_first)
                if pc.any(ex).as_py():
                    child = pa.concat_arrays([child, u_first.filter(ex)])
                    parent = pa.concat_arrays([parent, m_run.filter(ex)])
                    chg += int(
                        pc.sum(pc.and_(ex, pc.not_equal(m_run, v_first))).as_py() or 0
                    )
            else:
                mask = pc.not_equal(v, m_row)
                child = pa.concat_arrays([v.filter(mask), u_first])
                parent = pa.concat_arrays([m_row.filter(mask), m_run])
                chg = int(pc.sum(mask).as_py() or 0)
            if chg:
                ray.get(counter.add.remote(pass_key, chg))
            return pa.table({"c": child, "p": parent})

        return per_runs

    def _star_plan(eds, rows, large, pass_key):
        expand = _expand_large if large else _expand_small
        return map_key_runs(
            eds.map_batches(expand, batch_format="pyarrow"),
            "u",
            _star_block(large, pass_key),
            _P(rows * (2 if large else 1)),
            min_run=1,
            sort_extra=["v"],
        )

    # --- 1: one degree-1 peel pass, which is also the global dedupe ---
    def _peel_expand(t: pa.Table) -> pa.Table:
        a, b = t.column("id_a"), t.column("id_b")
        keep = pc.not_equal(a, b)
        a, b = a.filter(keep), b.filter(keep)
        swap = pc.less(a, b)  # a < b → child is b
        c = _flat(pc.if_else(swap, b, a), id_type)
        p = _flat(pc.if_else(swap, a, b), id_type)
        # one parent-marker row per distinct parent in the block
        par = pc.unique(p)
        n, m = len(c), len(par)
        return pa.table(
            {
                "k": pa.concat_arrays([c, par]),
                "p": pa.concat_arrays([p, pa.nulls(m, id_type)]),
                "s": pa.array(np.concatenate([np.zeros(n, np.int8), np.ones(m, np.int8)])),
            }
        )

    def _peel_runs(block: pa.Table, starts, ends) -> pa.Table:
        n = len(block)
        if n == 0:
            return _empty().append_column("peel", pa.array([], pa.int8()))
        k = _flat(block.column("k"), id_type)
        p = _flat(block.column("p"), id_type)
        s = block.column("s").to_numpy(zero_copy_only=False)
        run_of = _run_of(starts, ends)
        child_np = s == 0  # child rows sort first within each run
        # distinct (c, p) edges: child rows minus consecutive duplicates
        # (all duplicates of an edge land in the child's run, adjacent
        # after the sort)
        dup = np.zeros(n, dtype=bool)
        if n > 1:
            # marker rows carry a null p
            same_p = pc.fill_null(pc.equal(p.slice(1), p.slice(0, n - 1)), False)
            same_p = same_p.to_numpy(zero_copy_only=False)
            dup[1:] = same_p & child_np[1:] & child_np[:-1] & (run_of[1:] == run_of[:-1])
        distinct_child = child_np & ~dup
        n_child = np.bincount(run_of[distinct_child], minlength=len(starts))
        is_parent = np.bincount(run_of[~child_np], minlength=len(starts)) > 0
        peelable = (n_child == 1) & ~is_parent
        sel = np.nonzero(distinct_child)[0]
        sel_pa = pa.array(sel)
        return pa.table(
            {
                "c": k.take(sel_pa),
                "p": p.take(sel_pa),
                "peel": pa.array(peelable[run_of[sel]].astype(np.int8)),
            }
        )

    def _peel_take(flag):
        def f(t: pa.Table) -> pa.Table:
            return t.filter(pc.equal(t.column("peel"), flag)).select(["c", "p"])

        return f

    split = staged(
        map_key_runs(
            pairs_ds.map_batches(_peel_expand, batch_format="pyarrow"),
            "k",
            _peel_runs,
            _P(n_edges * 2),
            min_run=1,
            sort_extra=["s", "p"],
        )
    )
    eds = staged(split.map_batches(_peel_take(0), batch_format="pyarrow"))
    rows = eds.count()
    peeled = split.map_batches(_peel_take(1), batch_format="pyarrow")
    peeled_rows = split.count() - rows

    # --- 2: alternating star rounds over the residue ---
    for rnd in range(_MAX_STAR_ROUNDS):
        if rows + peeled_rows <= driver_finish_rows:
            both = eds.union(peeled).rename_columns({"c": "id_a", "p": "id_b"})
            return rd.from_arrow(components_driver(both))
        if not rows:
            break
        k_l, k_s = f"l{rnd}", f"s{rnd}"
        mid = _star_plan(eds, rows, large=True, pass_key=k_l)
        eds = staged(_star_plan(mid, rows, large=False, pass_key=k_s))
        rows = eds.count()
        if ray.get([counter.get.remote(k_l), counter.get.remote(k_s)]) == [0, 0]:
            break
    else:
        raise RuntimeError("components_distributed: star rounds did not converge")

    # --- 3: relabel the leaves through the stars, then the root rows ---
    def _relabel_rows(s: int):
        # a star edge (s=0) is keyed by its child and carries the root;
        # a leaf edge (s=1) is keyed by its parent and carries the leaf
        def f(t: pa.Table) -> pa.Table:
            c, p = t.column("c"), t.column("p")
            k, v = (p, c) if s else (c, p)
            return pa.table({"k": k, "v": v, "s": pa.array(np.full(len(t), s, np.int8))})

        return f

    def _relabel_runs(block: pa.Table, starts, ends) -> pa.Table:
        if len(block) == 0:
            return _empty(("image_id", "cluster_id"))
        k, v = _flat(block.column("k"), id_type), _flat(block.column("v"), id_type)
        star = _flat(pc.equal(block.column("s"), 0))
        # a run's label: its star row's root (the node is a star child,
        # and that row sorts first), else the node itself
        first = pa.array(starts)
        root = pc.if_else(star.take(first), v.take(first), k.take(first))
        return pa.table(
            {
                "image_id": pc.if_else(star, k, v),
                "cluster_id": root.take(pa.array(_run_of(starts, ends))),
            }
        )

    finals = staged(
        map_key_runs(
            eds.map_batches(_relabel_rows(0), batch_format="pyarrow").union(
                peeled.map_batches(_relabel_rows(1), batch_format="pyarrow")
            ),
            "k",
            _relabel_runs,
            _P(rows + peeled_rows),
            min_run=1,
            sort_extra=["s"],
        )
    )

    # children rows are globally unique; root rows need one slim
    # single-column distinct shuffle
    def _to_roots(t: pa.Table) -> pa.Table:
        # per-block pre-distinct (combiner): the root shuffle moves
        # ~n_components rows per block instead of n_edges rows
        return pa.table({"image_id": _flat(t.column("cluster_id")).unique()})

    def _root_rows(t: pa.Table) -> pa.Table:
        return pa.table(
            {"image_id": t.column("image_id"), "cluster_id": t.column("image_id")}
        )

    roots = unique_rows_partitioned(
        finals.map_batches(_to_roots, batch_format="pyarrow"),
        ["image_id"],
        _P(n_edges),
    ).map_batches(_root_rows, batch_format="pyarrow")
    return finals.union(roots)


def connected_components(pairs_ds, max_driver_edges: int = 5_000_000, num_partitions: int = 32):
    """Auto-select: driver union-find up to ``max_driver_edges`` edges,
    else ``components_distributed``. Returns an Arrow table or Dataset
    of (image_id, cluster_id).

    The input may be a raw edge MULTISET (band/mode duplicates — the
    pipeline skips the dedupe shuffle for exactly this consumer): the
    driver path tolerates duplicates, and the distributed peel pass
    dedupes, so both take the raw count. The driver finish is allowed
    at least ``max_driver_edges`` distinct edges, so a multiset whose
    distinct set fits the driver budget costs one peel shuffle before
    the driver union-find."""
    n = pairs_ds.count()
    if n <= max_driver_edges:
        return components_driver(pairs_ds)
    return components_distributed(
        pairs_ds,
        num_partitions=num_partitions,
        driver_finish_rows=max(max_driver_edges, 4_000_000),
        n_edges=n,
    )

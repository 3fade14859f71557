"""Connected components over the candidate-pair edge list.

The reference stops at candidate sets (``MinHashLSH.query``); clustering
is user-land (SURVEY.md §2.5). Here:

- **driver DSU** (union-find with path halving) when the edge list is
  small enough to collect — candidate edges are tiny relative to the
  corpus (each near-dup cluster contributes O(cluster²) edges), so this
  covers test and most production scales;
- **distributed alternating large-star / small-star** otherwise
  (Kiveris et al., *Connected Components in MapReduce and Beyond*,
  SoCC'14 — see PAPERS.md), with three engineering upgrades measured
  against driver DSU in this sandbox: block-local vectorized min-label
  contraction inside each kernel (each pass merges whole block-local
  components, not just 1-hop neighborhoods), a changed-counter actor
  instead of a per-pass aggregate execution, and a pointer-jumping
  *forest endgame* that peels settled star edges out of the iteration
  (with a bounded driver finish for the geometric-tail remainder).

Cluster id = min member id (deterministic, order-insensitive).
"""

from __future__ import annotations

import pyarrow as pa


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


def components_driver(pairs_ds) -> pa.Table:
    """Collect the (bounded — ``max_driver_edges``) edge list and solve
    CC with a VECTORIZED hook-and-compress union-find (Shiloach–Vishkin
    shape): each round fully path-compresses the parent forest
    (pointer jumping), then hooks every edge's larger root onto the
    smaller via one scatter-min, dropping edges whose endpoints already
    share a root. Hooking onto the *minimum* adjacent root merges every
    edge-bearing component with at least one other per round → O(log n)
    rounds on ANY graph shape (a plain neighbor-min propagation is
    O(diameter): ~28k rounds on a 100k-node chain vs 17 here).
    Tolerates duplicate edges (band multiplicity). Returns
    (image_id, cluster_id) for every node that appears in an edge,
    cluster id = min member id — identical labels to the per-edge
    Python DSU this replaces."""
    import numpy as np

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
    u, v = codes[:e], codes[e:]
    lab = np.arange(len(ids_dict), dtype=np.int64)
    while True:
        while True:  # full path compression (lab is monotone: lab[x] <= x)
            ll = lab[lab]
            if np.array_equal(ll, lab):
                break
            lab = ll
        ru, rv = lab[u], lab[v]
        act = ru != rv
        if not act.any():
            break
        # merged endpoints stay merged — shrink the active edge set
        u, v = u[act], v[act]
        ru, rv = ru[act], rv[act]
        # hook larger root onto the smallest adjacent root (scatter-min)
        np.minimum.at(lab, np.maximum(ru, rv), np.minimum(ru, rv))
    # propagation labels are min-CODE (first-occurrence order, arbitrary);
    # the contract is min-ID — one Arrow group-min over (root, id) fixes
    # the representative per component
    node_tbl = pa.table({"r": pa.array(lab), "image_id": ids_dict})
    gmin = node_tbl.group_by("r").aggregate([("image_id", "min")])
    r_arr = gmin.column("r").to_numpy(zero_copy_only=False)
    sort_idx = np.argsort(r_arr)
    pos = sort_idx[np.searchsorted(r_arr[sort_idx], lab)]
    cluster = gmin.column("image_id_min").combine_chunks().take(pa.array(pos))
    out = pa.table({"image_id": ids_dict, "cluster_id": cluster})
    # deterministic row order (the previous DSU emitted sorted ids) —
    # Arrow C++ sort, not a Python-object sort
    import pyarrow.compute as _pc

    return out.take(_pc.sort_indices(out, sort_keys=[("image_id", "ascending")]))


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


def _local_min_labels(iu, iv, n_local):
    """Vectorized min-label propagation over int-coded block-local
    edges: relax every node from its neighbors (both directions are
    synthesized here) via one ``np.minimum.reduceat`` per sweep, with
    pointer jumping between sweeps. Returns ``lab[n_local]`` where
    ``lab[x]`` is the smallest dictionary CODE in x's block-local
    component (codes are first-appearance order, so the caller resolves
    the min *id* per component separately)."""
    import numpy as np

    su = np.concatenate([iu, iv])
    sv = np.concatenate([iv, iu])
    o = np.argsort(su, kind="stable")
    su, sv = su[o], sv[o]
    starts = np.concatenate(([0], np.flatnonzero(np.diff(su)) + 1))
    ukeys = su[starts]
    lab = np.arange(n_local, dtype=np.int64)
    for _ in range(200):
        m = np.minimum.reduceat(lab[sv], starts)
        new = np.minimum(lab[ukeys], m)
        if not (new < lab[ukeys]).any():
            break
        lab[ukeys] = new
        for _ in range(3):  # pointer jumping: lab ← lab[lab]
            l2 = lab[lab]
            if np.array_equal(l2, lab):
                break
            lab = l2
    return lab


def components_distributed(
    pairs_ds,
    num_partitions: int = 32,
    max_rounds: int = 60,
    stats: list | None = None,
    driver_finish_rows: int = 4_000_000,
    n_edges: int | None = None,
):
    """Alternating large-star / small-star connected components
    (Kiveris, Lattanzi, Mirrokni, Rastogi, Vassilvitskii: *Connected
    Components in MapReduce and Beyond*, SoCC'14 — see PAPERS.md).

    The distributed state is the EDGE LIST itself, canonically oriented
    child > parent — no separate label table, so each round is exactly
    TWO keyed shuffles with fully vectorized Arrow kernels (the round-2
    design ran 4 staged shuffles per round with Python row loops and
    measured ~12× slower than driver DSU at 1.8M rows):

    - large-star(u): over symmetrized edges grouped by ``u``, emit
      ``(v, m)`` for every neighbor ``v > u``;
    - small-star(u): over canonical edges grouped at the LARGER
      endpoint, emit ``(u, m)`` and ``(x, m)`` for ``x ∈ N(u) \\ {m}``.

    Both kernels use ``m`` = the min id of u's whole BLOCK-LOCAL
    component (vectorized in-block min-label propagation over
    dictionary codes) — strictly stronger contraction than the paper's
    1-hop ``min(N(u) ∪ {u})`` at identical shuffle cost; when u has no
    smaller neighbor and ``m < u``, large-star additionally emits
    ``(u, m)`` so u stays attached. Both passes preserve connectivity,
    keep parents strictly smaller than children, and report a
    changed-edge count through a zero-CPU accumulator actor (no extra
    aggregate execution). A joint no-op is exactly the star fixpoint:
    small-star no-op ⇒ every node has ≤ 1 smaller neighbor (a
    down-pointing forest); large-star no-op ⇒ any node with a larger
    neighbor heads its local component ⇒ forest depth 1, centered at
    component minima.

    **Forest endgame:** the moment a small-star pass no-ops, the state
    is a parent forest, and the remaining work (flattening chains) is
    pure pointer DOUBLING: each jump pass rewrites ``(c, u) → (c,
    parent(u))`` for every record at once — nothing is retired
    mid-loop (an early-retirement rule mislabels depth-≥3 forests
    whose retired records hold stale parents), so the active set stays
    constant and the loop stops when a pass changes zero parents
    (depth halves each pass ⇒ O(log depth) passes). Records peeled in
    pass 0 (globally never parents) skip their self rows, halving jump
    bytes on star-shaped dedup graphs. Whenever the residual forest
    fits under ``driver_finish_rows`` (slim 2-column rows; the default
    bounds driver memory to ~100 MB) it is solved on the driver by
    ``components_driver`` instead — every root is its tree's minimum id
    (parents are smaller than children), so the labels are the same —
    and the root-distinct shuffle below is skipped. Pass 0 to force the
    fully distributed endgame.

    Returns a Dataset (image_id, cluster_id); like the driver path,
    only nodes that appear in at least one edge are labeled. All
    kernels are Arrow compute — string and numeric ids alike.
    """
    import time as _time

    import numpy as np
    import pyarrow.compute as pc
    import ray

    from raydedup.stages.grouped import (
        effective_partitions,
        ensure_hash_shuffle,
        staged,
        tune_for_session,
        unique_rows_partitioned,
    )

    ensure_hash_shuffle()
    tune_for_session(pairs_ds)
    cap = effective_partitions(num_partitions)
    rows_per_part = 400_000  # slim 2-string-column rows ≈ 25 B each

    def _P(rows):
        return max(2, min(cap, rows // rows_per_part + 1))

    if n_edges is None:
        pairs_ds = staged(pairs_ds)
        n_edges = pairs_ds.count()

    sch = pairs_ds.schema().base_schema
    id_type = sch.field("id_a").type if "id_a" in sch.names else sch.field("c").type
    counter = ray.remote(_Counter).options(num_cpus=0).remote()

    def _canon_cols(t: pa.Table):
        if "id_a" in t.column_names:  # first pass: canonicalize raw pairs
            a, b = t.column("id_a"), t.column("id_b")
            keep = pc.not_equal(a, b)
            a, b = a.filter(keep), b.filter(keep)
            swap = pc.less(a, b)  # a < b → child is b
            return pc.if_else(swap, b, a), pc.if_else(swap, a, b)
        return t.column("c"), t.column("p")

    def _expand_large(t: pa.Table) -> pa.Table:
        c, p = _canon_cols(t)
        c, p = _flat(c, id_type), _flat(p, id_type)
        return pa.table({"u": pa.concat_arrays([c, p]), "v": pa.concat_arrays([p, c])})

    def _expand_small(t: pa.Table) -> pa.Table:
        c, p = _canon_cols(t)
        return pa.table({"u": c, "v": p})

    def _star_block(large: bool, pass_key: str):
        def per_block(block: pa.Table) -> pa.Table:
            n = len(block)
            if n == 0:
                return pa.table({"c": pa.array([], id_type), "p": pa.array([], id_type)})
            block = block.sort_by([("u", "ascending"), ("v", "ascending")])
            u, v = _flat(block.column("u"), id_type), _flat(block.column("v"), id_type)
            if n > 1:
                # drop duplicate (u, v) rows; partitioning is by u, so
                # consecutive-dedupe here is globally exact
                dup = pc.and_(
                    pc.equal(u.slice(1), u.slice(0, n - 1)),
                    pc.equal(v.slice(1), v.slice(0, n - 1)),
                ).to_numpy(zero_copy_only=False)
                if dup.any():
                    keep = np.ones(n, dtype=bool)
                    keep[1:] = ~dup
                    sel = pa.array(np.nonzero(keep)[0])
                    u, v = u.take(sel), v.take(sel)
                    n = len(u)
            if n > 1:
                change = pc.not_equal(u.slice(1), u.slice(0, n - 1)).to_numpy(
                    zero_copy_only=False
                )
                idx = np.nonzero(change)[0] + 1
            else:
                idx = np.empty(0, np.int64)
            starts = np.concatenate(([0], idx))
            lens = np.diff(np.concatenate((starts, [n])))
            # block-local component labels over dictionary codes
            enc = pc.dictionary_encode(pa.concat_arrays([u, v]))
            codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
            ids_dict = enc.dictionary
            iu, iv = codes[:n], codes[n:]
            lab = _local_min_labels(iu, iv, len(ids_dict))
            # per-component min ID (codes are first-appearance order,
            # not value order — resolve with one C++ hash aggregation)
            g = pa.table({"g": pa.array(lab), "id": ids_dict}).group_by("g").aggregate(
                [("id", "min")]
            )
            g_lab = g.column("g").to_numpy(zero_copy_only=False)
            g_min = _flat(g.column("id_min"), id_type)
            pos = np.empty(len(ids_dict), np.int64)
            pos[g_lab] = np.arange(len(g_lab))
            m_row = g_min.take(pa.array(pos[lab[iu]]))
            u_first = u.take(pa.array(starts))
            v_first = v.take(pa.array(starts))
            m_run = g_min.take(pa.array(pos[lab[iu[starts]]]))
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

        return per_block

    pass_seq = [0]

    def _star_plan(eds, rows, large, pass_key):
        expand = _expand_large if large else _expand_small
        parted = eds.map_batches(expand, batch_format="pyarrow").repartition(
            _P(rows * (2 if large else 1)), keys=["u"]
        )
        return parted.map_batches(
            _star_block(large, pass_key), batch_size=None, batch_format="pyarrow"
        )

    def star_pass(eds, rows, large):
        pass_key = f"s{pass_seq[0]}"
        pass_seq[0] += 1
        out = staged(_star_plan(eds, rows, large, pass_key))
        return out, out.count(), ray.get(counter.get.remote(pass_key))

    # Below this many edges, each round's large+small passes run as ONE
    # staged execution (two HashShuffleOperators in one plan): at small
    # scale the per-execution fixed cost (~1.3 s in this sandbox)
    # dominates, so halving the execution count wins; at large scale two
    # live shuffle operators contend (~2× variable cost, round-2 notes)
    # so the passes stay separately staged.
    fuse_below = 3_000_000

    # --- phase 0: degree-1 peel ---
    # Dedup pair tables are dominated by edges whose child is a LEAF
    # (exact-dup stars, capped hot buckets, substring containment stars,
    # size-2 clusters): nodes that appear exactly once as a child and
    # never as a parent. Such an edge can't influence any contraction —
    # the child is the larger endpoint, so it is never a component min,
    # and it connects nothing else — so it is EXACT to route it straight
    # to the pointer-jump phase and run the star rounds only on the
    # structural residue (on the 8M-edge bench graph this cuts the star
    # phase from 8 rounds × 8M rows to 8 rounds × ~200k rows). One keyed
    # shuffle per peel pass, which also performs the global edge dedupe;
    # repeated while it keeps removing ≥30% of edges.
    def _peel_block(block: pa.Table) -> pa.Table:
        n = len(block)
        if n == 0:
            return pa.table(
                {
                    "c": pa.array([], id_type),
                    "p": pa.array([], id_type),
                    "peel": pa.array([], pa.int8()),
                }
            )
        block = block.sort_by(
            [("k", "ascending"), ("s", "ascending"), ("p", "ascending")]
        )
        k = _flat(block.column("k"), id_type)
        p = _flat(block.column("p"), id_type)
        s = block.column("s").to_numpy(zero_copy_only=False)
        if n > 1:
            change = pc.not_equal(k.slice(1), k.slice(0, n - 1)).to_numpy(
                zero_copy_only=False
            )
            idx = np.nonzero(change)[0] + 1
        else:
            idx = np.empty(0, np.int64)
        starts = np.concatenate(([0], idx))
        ends = np.concatenate((idx, [n]))
        run_of = np.repeat(np.arange(len(starts)), ends - starts)
        child_np = s == 0  # child rows sort first within each run
        # distinct (c, p) edges: child rows minus consecutive duplicates
        # (all duplicates of an edge land in the child's run, adjacent
        # after the sort — this pass doubles as the global edge dedupe)
        dup = np.zeros(n, dtype=bool)
        if n > 1:
            same_p = pc.equal(p.slice(1), p.slice(0, n - 1)).to_numpy(
                zero_copy_only=False
            )
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

    peeled_parts: list = []
    peeled_rows = 0
    eds, rows = pairs_ds, n_edges
    while rows:
        def _peel_expand(t: pa.Table) -> pa.Table:
            c, p = _canon_cols(t)
            c, p = _flat(c, id_type), _flat(p, id_type)
            n = len(c)
            return pa.table(
                {
                    "k": pa.concat_arrays([c, p]),
                    "p": pa.concat_arrays([p, c]),
                    "s": pa.array(
                        np.concatenate([np.zeros(n, np.int8), np.ones(n, np.int8)])
                    ),
                }
            )

        t0 = _time.time()
        out = staged(
            eds.map_batches(_peel_expand, batch_format="pyarrow")
            .repartition(_P(rows * 2), keys=["k"])
            .map_batches(_peel_block, batch_size=None, batch_format="pyarrow")
        )
        kept = staged(out.map_batches(_peel_take(0), batch_format="pyarrow"))
        kept_rows = kept.count()
        n_peeled = out.count() - kept_rows
        if n_peeled:
            peeled_parts.append(out.map_batches(_peel_take(1), batch_format="pyarrow"))
            peeled_rows += n_peeled
        if stats is not None:
            stats.append(
                {
                    "phase": "peel",
                    "peeled": int(n_peeled),
                    "kept": int(kept_rows),
                    "sec": round(_time.time() - t0, 3),
                }
            )
        prev_rows, eds, rows = rows, kept, kept_rows
        if n_peeled < 0.3 * prev_rows:
            break

    # --- phase 1: alternating star ---
    converged = False
    for rnd in range(max_rounds):
        t0 = _time.time()
        if rows < fuse_below:
            k_l, k_s = f"s{pass_seq[0]}", f"s{pass_seq[0] + 1}"
            pass_seq[0] += 2
            mid = _star_plan(eds, rows, large=True, pass_key=k_l)
            eds = staged(_star_plan(mid, rows, large=False, pass_key=k_s))
            rows = eds.count()
            t1 = _time.time()
            chg_l, chg_s = ray.get([counter.get.remote(k_l), counter.get.remote(k_s)])
        else:
            eds, rows, chg_l = star_pass(eds, rows, large=True)
            t1 = _time.time()
            eds, rows, chg_s = star_pass(eds, rows, large=False)
        if stats is not None:
            stats.append(
                {
                    "phase": "star",
                    "round": rnd,
                    "large_sec": round(t1 - t0, 3),
                    "small_sec": round(_time.time() - t1, 3),
                    "chg_large": chg_l,
                    "chg_small": chg_s,
                    "rows": rows,
                }
            )
        if chg_s == 0:
            converged = chg_l == 0
            break
    else:
        raise RuntimeError("components_distributed: star phase did not reach a forest")

    # --- phase 2: pointer-jump peeling on the forest ---
    import ray.data as rd

    finals = None  # (c, p) dataset of settled star edges

    def _jump_expand(t: pa.Table) -> pa.Table:
        # Every record emits an edge row (queries its parent's group);
        # self rows — which tell OTHER records "my child has a parent" —
        # are emitted only for leaf=0 records. A leaf=1 record's child
        # was peeled in pass 0 because it is nobody's parent in the FULL
        # original graph (a global, permanent property), so no edge row
        # can ever query it: dropping its self row halves the jump
        # volume on star-shaped dedup graphs with zero information loss.
        # (Pass ≥1 peels are leaf only w.r.t. the residual kept graph — earlier
        # peeled edges may point at them — so they stay leaf=0.)
        c, p = _flat(t.column("c"), id_type), _flat(t.column("p"), id_type)
        n = len(c)
        if "leaf" in t.column_names:
            # fill_null(0): schema unification across an empty pass-through
            # block can surface the column as all-null
            lf = (
                pc.fill_null(t.column("leaf"), 0)
                .to_numpy(zero_copy_only=False)
                .astype(np.int8)
            )
        else:
            lf = np.zeros(n, np.int8)
        sel = pa.array(np.flatnonzero(lf == 0))
        return pa.table(
            {
                "k": pa.concat_arrays([p, c.take(sel)]),
                "c": pa.concat_arrays([c, c.take(sel)]),
                "p": pa.concat_arrays([p, p.take(sel)]),
                "leaf": pa.array(np.concatenate([lf, np.zeros(len(sel), np.int8)])),
                "s": pa.array(
                    np.concatenate([np.zeros(n, np.int8), np.ones(len(sel), np.int8)])
                ),
            }
        )

    def _jump_block(pass_key: str):
        # Pure pointer doubling — every record (c, p) is rewritten to
        # (c, parent(p)) when p has a parent, else kept. NOTHING retires
        # mid-phase: an earlier design finalized records whose parent had
        # no self row in the group, but after a rewrite the new parent's
        # own record may have finalized a round earlier, making "no self
        # row" ambiguous (true root vs retired child) — on any forest of
        # depth ≥ 3 that mislabels the chain tail (found by the peel
        # phase, which routinely feeds depth-3 chains here). With the
        # full record set present every round, absence of a self row
        # proves a root, and the changed-counter reaching zero proves
        # every parent is a root. Depth halves per round, so the loop is
        # ~⌈log₂(forest depth)⌉ + 1 passes — and the peel/star phases
        # keep that depth small (≤ peel passes + 2).
        def per_block(block: pa.Table) -> pa.Table:
            n = len(block)
            if n == 0:
                return pa.table({"c": pa.array([], id_type), "p": pa.array([], id_type), "leaf": pa.array([], pa.int8())})
            block = block.sort_by([("k", "ascending"), ("s", "ascending")])
            k = _flat(block.column("k"), id_type)
            c = _flat(block.column("c"), id_type)
            p = _flat(block.column("p"), id_type)
            s = block.column("s").to_numpy(zero_copy_only=False)
            if n > 1:
                change = pc.not_equal(k.slice(1), k.slice(0, n - 1)).to_numpy(
                    zero_copy_only=False
                )
                idx = np.nonzero(change)[0] + 1
            else:
                idx = np.empty(0, np.int64)
            starts = np.concatenate(([0], idx))
            ends = np.concatenate((idx, [n]))
            last = ends - 1
            has_par = s[last] == 1  # self row sorts last in its run
            g = p.take(pa.array(last))  # run node's own parent, where has_par
            rep = np.repeat(np.arange(len(starts)), ends - starts)
            edge_np = s == 0
            hs_edge = has_par[rep][edge_np]
            em = pa.array(edge_np)
            g_edge = g.take(pa.array(rep[edge_np]))
            p_out = pc.if_else(pa.array(hs_edge), g_edge, p.filter(em))
            chg = int(pc.sum(pc.not_equal(p_out, p.filter(em))).as_py() or 0)
            if chg:
                ray.get(counter.add.remote(pass_key, chg))
            return pa.table(
                {"c": c.filter(em), "p": p_out, "leaf": block.column("leaf").filter(em)}
            )

        return per_block

    if converged and not peeled_parts and rows > driver_finish_rows:
        finals = eds  # already stars; children globally unique
    else:
        # peeled children are globally unique and absent from the star
        # edges (degree-1 by construction), so the union is still a
        # forest and the jump loop resolves peeled chains exactly.
        # leaf=1 marks PASS-0 peeled records only: their children are
        # nobody's parent in the full original graph, so their self rows
        # can be skipped forever (see _jump_expand). Later passes peel
        # relative to the reduced graph and stay leaf=0.
        def _with_leaf(flag: int):
            def f(t: pa.Table) -> pa.Table:
                import numpy as _np

                return t.append_column(
                    "leaf", pa.array(_np.full(len(t), flag, dtype=_np.int8))
                )

            return f

        active, act_rows = eds.map_batches(_with_leaf(0), batch_format="pyarrow"), rows
        for i, pp_ds in enumerate(peeled_parts):
            active = active.union(
                pp_ds.map_batches(_with_leaf(1 if i == 0 else 0), batch_format="pyarrow")
            )
        if peeled_parts:
            active = staged(active)
            act_rows = rows + peeled_rows
        for j in range(max_rounds):
            if act_rows <= driver_finish_rows:
                # the full record set is in `active` (no mid-phase
                # retirement), so it is the whole residual forest
                t0 = _time.time()
                labels = components_driver(
                    active.select_columns(["c", "p"]).rename_columns({"c": "id_a", "p": "id_b"})
                )
                if stats is not None:
                    stats.append(
                        {
                            "phase": "driver_finish",
                            "rows": act_rows,
                            "sec": round(_time.time() - t0, 3),
                        }
                    )
                return rd.from_arrow(labels)
            t0 = _time.time()
            pass_key = f"j{j}"
            active = staged(
                active.map_batches(_jump_expand, batch_format="pyarrow")
                .repartition(_P(act_rows * 2), keys=["k"])
                .map_batches(_jump_block(pass_key), batch_size=None, batch_format="pyarrow")
            )
            chg = ray.get(counter.get.remote(pass_key))
            if stats is not None:
                stats.append(
                    {
                        "phase": "jump",
                        "round": j,
                        "sec": round(_time.time() - t0, 3),
                        "changed": chg,
                    }
                )
            if chg == 0:  # every parent is a root
                # select_columns (a projection, not a skippable UDF)
                # restores the (c, p) schema for the finalize
                finals = active.select_columns(["c", "p"])
                break
        else:
            raise RuntimeError("components_distributed: jump phase did not converge")

    # --- finalize: children rows pass through (globally unique); root
    # self-rows need one slim single-column distinct shuffle ---
    def _to_roots(t: pa.Table) -> pa.Table:
        # per-block pre-distinct (combiner): the root shuffle moves
        # ~n_components rows per block instead of n_edges rows
        return pa.table({"image_id": t.column("p").unique() if isinstance(t.column("p"), pa.Array) else t.column("p").combine_chunks().unique()})

    def _root_rows(t: pa.Table) -> pa.Table:
        return pa.table(
            {"image_id": t.column("image_id"), "cluster_id": t.column("image_id")}
        )

    def _child_rows(t: pa.Table) -> pa.Table:
        return pa.table({"image_id": t.column("c"), "cluster_id": t.column("p")})

    roots = unique_rows_partitioned(
        finals.map_batches(_to_roots, batch_format="pyarrow"),
        ["image_id"],
        _P(n_edges),
    ).map_batches(_root_rows, batch_format="pyarrow")
    return finals.map_batches(_child_rows, batch_format="pyarrow").union(roots)


def connected_components(pairs_ds, max_driver_edges: int = 5_000_000, num_partitions: int = 32):
    """Auto-select: driver DSU below ``max_driver_edges``, else
    distributed alternating-star with a driver finish. Returns an Arrow
    table or Dataset of (image_id, cluster_id).

    The input may be a raw edge MULTISET (band/mode duplicates — the
    pipeline skips the dedupe shuffle for exactly this consumer); if the
    raw count is over the driver budget, one dedupe shuffle usually
    collapses it back under (band multiplicity is ~b×), so the fast
    driver path is re-tested on the distinct edge set before falling
    back to the distributed path."""
    from raydedup.stages.grouped import auto_partitions, staged, unique_rows_partitioned

    n = pairs_ds.count()
    if n <= max_driver_edges:
        return components_driver(pairs_ds)
    uniq = staged(
        unique_rows_partitioned(pairs_ds, ["id_a", "id_b"], auto_partitions(n))
    )
    n_uniq = uniq.count()
    if n_uniq <= max_driver_edges:
        return components_driver(uniq)
    return components_distributed(uniq, num_partitions=num_partitions, n_edges=n_uniq)

"""Query oracles: DuckDB oracle-SQL generators for the sketch queries,
and ``VERIFIERS`` for the rows-only queries whose results are checked
against a truth computed on the driver (end of this module).

The sketches themselves are deterministic functions of (hashfunc,
permutation seed), so with ``hashfunc="md5"`` (DuckDB's
``md5_number_lower``) every MinHash slot, SimHash bit and HLL register
is reproducible in ANSI SQL — the permutation constants are inlined
into the generated statement. The reference library treats the hash
function as a user-pluggable parameter (``datasketch/hashfunc.py``),
so the md5 profile is first-class, while pytest keeps verifying the
sha1 profile bit-exactly against the reference.

Floating-point notes (the correctness driver hashes values):
- every emitted float is either a single division/multiplication chain
  of exactly representable values (slot estimates, cardinalities) or a
  single libm call (linear-counting log), identical in both engines;
- MinHash slot arithmetic needs uint64 wrap-around, emulated with
  HUGEINT modulo 2^64 before the Mersenne reduction.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from raydedup.hashing import MAX_HASH, MERSENNE_PRIME, generate_permutations

# shared CTE: distinct word-3gram shingles per doc with md5-based hashes
_SHINGLES = r"""
words AS (
  SELECT doc_id, list_filter(str_split(lower(text), ' '), x -> x <> '') AS w
  FROM documents
),
sh AS (
  SELECT doc_id,
         unnest(list_distinct(list_transform(
           generate_series(1, greatest(len(w) - 2, 0)),
           i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2]
         ))) AS s
  FROM words
),
hashed AS (
  SELECT doc_id,
         md5_number_lower(s) AS h64,
         md5_number_lower(s) & 4294967295 AS h32
  FROM sh
)
"""


def _perm_values(num_perm: int = 128, seed: int = 1) -> str:
    a, b = generate_permutations(num_perm, seed)
    rows = ", ".join(f"({j}, {int(a[j])}, {int(b[j])})" for j in range(num_perm))
    return f"perms(j, a, b) AS (VALUES {rows})"


def _sig_cte(num_perm: int = 128, seed: int = 1) -> str:
    """CTE chain ending in ``sig(doc_id, j, hv)`` — the md5-profile
    MinHash signature of every document (empty docs = MAX_HASH)."""
    return f"""{_SHINGLES},
{_perm_values(num_perm, seed)},
slots AS (
  SELECT doc_id, j,
         min((((a::HUGEINT * h32 + b) % 18446744073709551616)::UBIGINT
              % {int(MERSENNE_PRIME)}) & {int(MAX_HASH)}) AS hv
  FROM hashed CROSS JOIN perms
  GROUP BY doc_id, j
),
sig AS (
  SELECT d.doc_id, p.j, coalesce(s.hv, {int(MAX_HASH)}) AS hv
  FROM (SELECT doc_id FROM documents) d
  CROSS JOIN perms p
  LEFT JOIN slots s ON s.doc_id = d.doc_id AND s.j = p.j
)"""


def minhash_cardinality_sql(num_perm: int = 128, seed: int = 1) -> str:
    """Per-doc distinct-shingle estimate from the MinHash signature:
    ``P·MAX/Σhv − 1`` — the reference estimator (minhash.py:326-335)
    rearranged so the float result is one exact product over one exact
    integer sum (order-independent in both engines)."""
    return f"""WITH {_sig_cte(num_perm, seed)}
SELECT doc_id,
       ({float(num_perm)} * {float(int(MAX_HASH))}) / CAST(sum(hv) AS DOUBLE) - 1.0
         AS cardinality_est
FROM sig GROUP BY doc_id"""


def source_union_sql(num_perm: int = 128, seed: int = 1) -> str:
    """Group-level union signature (elementwise min per source) and its
    cardinality estimate."""
    return f"""WITH {_sig_cte(num_perm, seed)},
by_source AS (
  SELECT d.source, s.j, min(s.hv) AS hv
  FROM sig s JOIN documents d USING (doc_id)
  GROUP BY d.source, s.j
)
SELECT source,
       ({float(num_perm)} * {float(int(MAX_HASH))}) / CAST(sum(hv) AS DOUBLE) - 1.0
         AS ndv_shingles_est
FROM by_source GROUP BY source"""


def source_similarity_sql(num_perm: int = 128, seed: int = 1) -> str:
    """Pairwise corpus-level Jaccard estimates between per-source union
    signatures: slot-equality count over the ``source < source`` upper
    triangle (reference ``MinHash.jaccard`` over ``MinHash.union`` —
    minhash.py:299-324, 411-462 — lifted to source granularity)."""
    return f"""WITH {_sig_cte(num_perm, seed)},
by_source AS (
  SELECT d.source, s.j, min(s.hv) AS hv
  FROM sig s JOIN documents d USING (doc_id)
  GROUP BY d.source, s.j
)
SELECT a.source AS src_a, b.source AS src_b,
       CAST(count(*) FILTER (WHERE a.hv = b.hv) AS BIGINT) AS n_equal_slots,
       CAST(count(*) FILTER (WHERE a.hv = b.hv) AS DOUBLE) / {float(num_perm)}
         AS jaccard_est
FROM by_source a JOIN by_source b ON a.j = b.j AND a.source < b.source
GROUP BY a.source, b.source"""


def topk_similar_sql(query_ids=(0, 1, 2, 3, 4), k: int = 10, num_perm: int = 128, seed: int = 1) -> str:
    """Estimated-Jaccard top-k per query id: slot-equality count / P,
    ties broken by doc_id (self-matches kept, as in the engine)."""
    ids = ", ".join(str(i) for i in query_ids)
    return f"""WITH {_sig_cte(num_perm, seed)},
q AS (SELECT doc_id AS query_id, j, hv FROM sig WHERE doc_id IN ({ids})),
est AS (
  SELECT q.query_id, s.doc_id,
         CAST(count(*) FILTER (WHERE q.hv = s.hv) AS DOUBLE) / {float(num_perm)} AS jaccard
  FROM q JOIN sig s USING (j)
  GROUP BY q.query_id, s.doc_id
)
SELECT query_id, doc_id, jaccard FROM (
  SELECT *, row_number() OVER (PARTITION BY query_id ORDER BY jaccard DESC, doc_id ASC) AS rk
  FROM est
) WHERE rk <= {k}"""


def forest_topk_sql(query_ids=(0, 1, 2, 3, 4), topk: int = 10, l: int = 8, k: int = 16, num_perm: int = 128, seed: int = 1) -> str:
    """Forest top-k oracle: candidate rank = deepest common slot prefix
    over the ``l`` trees (LCP per tree = count of depths r whose whole
    r-prefix matches, since prefix equality is monotone in r), ties by
    doc_id. Only candidates sharing ≥ 1 first-slot value (depth ≥ 1)
    are retrievable — identical to the prefix-table semantics."""
    ids = ", ".join(str(i) for i in query_ids)
    return f"""WITH {_sig_cte(num_perm, seed)},
tree_slots AS (
  SELECT doc_id, j // {k} AS t, j % {k} AS jj, hv
  FROM sig WHERE j < {l * k}
),
q AS (SELECT doc_id AS query_id, t, jj, hv FROM tree_slots WHERE doc_id IN ({ids})),
mismatch AS (
  SELECT q.query_id, s.doc_id, q.t,
         coalesce(min(CASE WHEN q.hv <> s.hv THEN q.jj END), {k}) AS lcp
  FROM q JOIN tree_slots s ON q.t = s.t AND q.jj = s.jj
  GROUP BY q.query_id, s.doc_id, q.t
),
depth AS (
  SELECT query_id, doc_id, max(lcp) AS d FROM mismatch GROUP BY query_id, doc_id
)
SELECT query_id, doc_id FROM (
  SELECT query_id, doc_id,
         row_number() OVER (PARTITION BY query_id ORDER BY d DESC, doc_id ASC) AS rk
  FROM depth WHERE d >= 1
) WHERE rk <= {topk}"""


def simhash_sql() -> str:
    """Charikar simhash over the md5-64 shingle hashes: bit b set iff
    2·(count of set bits) > shingle count; packed to signed int64."""
    return f"""WITH {_SHINGLES},
bits AS (
  SELECT doc_id, b.b AS b,
         sum(CAST((h64 >> b.b) & 1 AS HUGEINT)) AS ones,
         count(*) AS n
  FROM hashed CROSS JOIN (SELECT unnest(generate_series(0, 63)) AS b) b
  GROUP BY doc_id, b.b
),
words64 AS (
  SELECT doc_id,
         sum(CASE WHEN 2 * ones > n THEN (1::HUGEINT << b) ELSE 0::HUGEINT END) AS uw
  FROM bits GROUP BY doc_id
)
SELECT d.doc_id,
       CAST(CASE WHEN coalesce(w.uw, 0) >= 9223372036854775808::HUGEINT
                 THEN coalesce(w.uw, 0) - 18446744073709551616::HUGEINT
                 ELSE coalesce(w.uw, 0) END AS BIGINT) AS simhash
FROM documents d LEFT JOIN words64 w USING (doc_id)"""


def lsh_candidate_pairs_sql(b: int = 9, r: int = 13, num_perm: int = 128, seed: int = 1) -> str:
    """Banded-LSH candidate pairs: two docs are candidates iff some band
    of r consecutive slots is identical (the engine's uint64 bucket fold
    is injective w.h.p., so grouping on the exact slot tuple gives the
    same pair set)."""
    return f"""WITH {_sig_cte(num_perm, seed)},
bands AS (
  SELECT doc_id, j // {r} AS band,
         string_agg(CAST(hv AS VARCHAR), ',' ORDER BY j) AS key
  FROM sig WHERE j < {b * r}
  GROUP BY doc_id, j // {r}
)
SELECT DISTINCT x.doc_id AS id_a, y.doc_id AS id_b
FROM bands x JOIN bands y ON x.band = y.band AND x.key = y.key AND x.doc_id < y.doc_id"""


def ann_lsh_topk_sql(bits: int = 4, seed: int = 7, dim: int = 64, k: int = 10, query_ids=(0, 1, 2)) -> str:
    """Hyperplane-LSH ANN oracle: the plane matrix is deterministic
    from seed (``stages/ann.add_hyperplane_bucket``), so the bucket
    assignment is SQL-reproducible by inlining the dim×bits constants
    as explicit dot-product expressions; candidates are same-bucket
    rows reranked by exact cosine. Sign agreement between the numpy
    and SQL dot products holds unless a projection lands within float
    round-off of zero (~1e-13 relative — negligible for random data)."""
    planes = np.random.default_rng(seed).standard_normal((dim, bits))
    cases = []
    for b in range(bits):
        dot = " + ".join(f"e[{j + 1}]*{planes[j, b]!r}" for j in range(dim))
        cases.append(f"CASE WHEN ({dot}) > 0 THEN {1 << b} ELSE 0 END")
    bucket_expr = "\n     + ".join(cases)
    qlist = ", ".join(str(q) for q in query_ids)
    return f"""WITH emb AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS e FROM embeddings),
bkt AS (
  SELECT vec_id, e,
     ({bucket_expr}) AS bucket
  FROM emb
),
q AS (SELECT vec_id AS qid, e AS qe, bucket FROM bkt WHERE vec_id IN ({qlist})),
s AS (
  SELECT q.qid AS query_id, x.vec_id,
         list_cosine_similarity(x.e, q.qe) AS cos
  FROM bkt x JOIN q ON x.bucket = q.bucket AND x.vec_id <> q.qid
)
SELECT query_id, vec_id FROM (
  SELECT query_id, vec_id,
         row_number() OVER (PARTITION BY query_id ORDER BY cos DESC, vec_id ASC) AS rk
  FROM s
) WHERE rk <= {k}"""


def cross_source_neardup_sql(b: int = 9, r: int = 13, num_perm: int = 128, seed: int = 1) -> str:
    """Cross-source fuzzy-join oracle: the banded-LSH candidate-pair
    set restricted to pairs whose endpoints carry DIFFERENT ``source``
    values. The engine compares 64-bit source hashes inside the bucket
    kernel; a hash collision could only *drop* a pair (w.h.p. caveat
    shared with every band oracle), so grouping on the exact strings
    here gives the same pair set."""
    return f"""WITH {_sig_cte(num_perm, seed)},
bands AS (
  SELECT doc_id, j // {r} AS band,
         string_agg(CAST(hv AS VARCHAR), ',' ORDER BY j) AS key
  FROM sig WHERE j < {b * r}
  GROUP BY doc_id, j // {r}
)
SELECT DISTINCT x.doc_id AS id_a, y.doc_id AS id_b
FROM bands x JOIN bands y ON x.band = y.band AND x.key = y.key AND x.doc_id < y.doc_id
JOIN documents dx ON dx.doc_id = x.doc_id
JOIN documents dy ON dy.doc_id = y.doc_id
WHERE dx.source <> dy.source"""


def lsh_session_dedup_sql(b: int = 9, r: int = 13, num_perm: int = 128, seed: int = 1) -> str:
    """Streaming first-seen dedup oracle: doc i is a dup iff some
    earlier doc (doc_id ascending — the engine's arrival order) shares
    a band. Matches the online query-then-insert semantics of
    ``q_lsh_session_dedup`` exactly."""
    return f"""WITH {_sig_cte(num_perm, seed)},
bands AS (
  SELECT doc_id, j // {r} AS band,
         string_agg(CAST(hv AS VARCHAR), ',' ORDER BY j) AS key
  FROM sig WHERE j < {b * r}
  GROUP BY doc_id, j // {r}
),
dups AS (
  SELECT DISTINCT y.doc_id
  FROM bands x JOIN bands y ON x.band = y.band AND x.key = y.key AND x.doc_id < y.doc_id
)
SELECT d.doc_id,
       CAST(CASE WHEN dp.doc_id IS NULL THEN 0 ELSE 1 END AS INTEGER) AS is_dup
FROM documents d LEFT JOIN dups dp ON d.doc_id = dp.doc_id"""


def fingerprint_sql(window: int = 16, base: int = 0x100000001B3) -> str:
    """Winnowing fingerprint oracle: min over byte windows of the
    polynomial hash Σ byte·B^(w-1-j) mod 2^64. Valid for ASCII corpora
    (codepoint == utf-8 byte — true of the test tables; the engine
    hashes utf-8 bytes) with every doc ≥ ``window`` bytes (the short-doc
    FNV branch is unreachable on these tables, min length 48)."""
    m64 = 1 << 64
    pows = [(j, pow(base, window - 1 - j, m64)) for j in range(window)]
    vals = ", ".join(f"({j}, {p}::HUGEINT)" for j, p in pows)
    return f"""WITH pos AS (
  SELECT doc_id, text, unnest(generate_series(1, length(text))) AS i FROM documents
),
chars AS (
  SELECT doc_id, i, unicode(substr(text, CAST(i AS INTEGER), 1)) AS c FROM pos
),
offs(j, pw) AS (VALUES {vals}),
terms AS (
  SELECT doc_id, i - j AS p, CAST(c AS HUGEINT) * pw AS term
  FROM chars CROSS JOIN offs
),
wh AS (
  SELECT doc_id, p, CAST(sum(term) % {m64} AS UBIGINT) AS h
  FROM terms WHERE p >= 1
  GROUP BY doc_id, p HAVING count(*) = {window}
),
fp AS (SELECT doc_id, min(h) AS uh FROM wh GROUP BY doc_id)
SELECT doc_id,
       CAST(CASE WHEN uh >= 9223372036854775808 THEN uh::HUGEINT - 18446744073709551616::HUGEINT
                 ELSE uh::HUGEINT END AS BIGINT) AS fingerprint
FROM fp"""


def _clusters_cte(b: int, r: int, num_perm: int, seed: int) -> str:
    """Shared CTE chain ending in ``labels(doc_id, cluster_id)``: the
    transitive closure of LSH-candidate ∪ exact-dup edges (the
    end-to-end clustering oracle body, reused by the representative
    oracle)."""
    return f"""{_sig_cte(num_perm, seed)},
bands AS (
  SELECT doc_id, j // {r} AS band,
         string_agg(CAST(hv AS VARCHAR), ',' ORDER BY j) AS key
  FROM sig WHERE j < {b * r}
  GROUP BY doc_id, j // {r}
),
lsh_pairs AS (
  SELECT DISTINCT x.doc_id AS a, y.doc_id AS b
  FROM bands x JOIN bands y ON x.band = y.band AND x.key = y.key AND x.doc_id < y.doc_id
),
exact_groups AS (
  SELECT doc_id, min(doc_id) OVER (PARTITION BY md5(text)) AS rep FROM documents
),
exact_pairs AS (
  SELECT rep AS a, doc_id AS b FROM exact_groups WHERE doc_id <> rep
),
edges AS (
  SELECT a, b FROM lsh_pairs UNION SELECT b, a FROM lsh_pairs
  UNION SELECT a, b FROM exact_pairs UNION SELECT b, a FROM exact_pairs
),
reach(src, dst) AS (
  SELECT a, a FROM edges
  UNION
  SELECT reach.src, e.b FROM reach JOIN edges e ON reach.dst = e.a
),
labels AS (
  SELECT src AS doc_id, min(dst) AS cluster_id FROM reach GROUP BY src
)"""


def minhash_clusters_sql(b: int = 9, r: int = 13, num_perm: int = 128, seed: int = 1) -> str:
    """End-to-end dedup CLUSTER oracle: edges = banded-LSH candidate
    pairs (md5 profile) ∪ exact-duplicate stars (md5(text) groups);
    cluster id = min reachable doc id via a recursive transitive
    closure — exactly the engine's union-find semantics."""
    return f"""WITH RECURSIVE {_clusters_cte(b, r, num_perm, seed)}
SELECT doc_id, cluster_id FROM labels"""


def cluster_representatives_sql(b: int = 9, r: int = 13, num_perm: int = 128, seed: int = 1) -> str:
    """Quality-aware canonicalization oracle: one row per cluster
    (unclustered docs are their own singleton cluster), representative
    = the longest member (C4-style keep-longest), ties → smallest
    doc_id."""
    return f"""WITH RECURSIVE {_clusters_cte(b, r, num_perm, seed)},
all_docs AS (
  SELECT d.doc_id, COALESCE(l.cluster_id, d.doc_id) AS cluster_id, d.n_chars
  FROM documents d LEFT JOIN labels l ON d.doc_id = l.doc_id
)
SELECT cluster_id, rep_id, n_docs FROM (
  SELECT cluster_id, doc_id AS rep_id,
         CAST(count(*) OVER (PARTITION BY cluster_id) AS BIGINT) AS n_docs,
         row_number() OVER (PARTITION BY cluster_id ORDER BY n_chars DESC, doc_id ASC) AS rk
  FROM all_docs
) WHERE rk = 1"""


def langid_sql(profiles: dict[str, str]) -> str:
    """Language-ID oracle: per-language profile-hit counting with
    non-overlapping substring counts ((len − len(replace))/len(gram) —
    the same semantics as Python ``str.count``), scored by hits/len,
    first-language-wins ties, 'und' when no profile hits."""
    selects = []
    for rank, (lang, grams) in enumerate(profiles.items()):
        gs = grams.split("|")
        hit_terms = " + ".join(
            f"(length(lt) - length(replace(lt, '{g}', ''))) / {len(g)}" for g in gs
        )
        selects.append(
            f"SELECT doc_id, '{lang}' AS lang, {rank} AS pri, "
            f"CAST({hit_terms} AS DOUBLE) / greatest(length(lt), 1) AS score FROM lt"
        )
    union = " UNION ALL ".join(selects)
    return f"""WITH lt AS (SELECT doc_id, lower(text) AS lt FROM documents),
scores AS ({union}),
best AS (
  SELECT doc_id, lang, score,
         row_number() OVER (PARTITION BY doc_id ORDER BY score DESC, pri ASC) AS rk
  FROM scores
)
SELECT doc_id,
       CASE WHEN score > 0 THEN lang ELSE 'und' END AS lang_pred,
       CASE WHEN score > 0 THEN score ELSE 0.0 END AS lang_score
FROM best WHERE rk = 1"""


def _hll_registers(table: str, key_expr: str, group_cols: str, p: int, word_bits: int) -> str:
    """CTE chain ending in ``regs({group_cols,} idx, rank)``: the HLL
    register file of md5-hashed distinct keys. rank uses DuckDB's
    ``bin()`` for an exact integer bit length."""
    m = 1 << p
    max_rank = word_bits - p
    h = "md5_number_lower(" + key_expr + ")"
    if word_bits == 32:
        h = f"({h} & 4294967295)"
    grp = f"{group_cols}, " if group_cols else ""
    return f"""keys AS (
  SELECT DISTINCT {grp}{key_expr} AS kv FROM {table}
),
hashes AS (
  SELECT {grp}{h.replace(key_expr, 'kv')} AS h FROM keys
),
regs AS (
  SELECT {grp}h & {m - 1} AS idx,
         max(CASE WHEN (h >> {p}) = 0 THEN {max_rank + 1}
                  ELSE {max_rank} - length(bin(h >> {p})) + 1 END) AS rank
  FROM hashes
  GROUP BY {grp}h & {m - 1}
)"""


def _hll_estimate(p: int, word_bits: int, grp: str) -> str:
    """Estimate select over ``regs``: linear counting when zero
    registers exist and the raw estimate is small — the only branch
    exercised at driver scale (documented; both engines share it)."""
    m = 1 << p
    alpha = f"(0.7213 / (1.0 + 1.079 / {float(m)}))"
    grp_sel = f"{grp}, " if grp else ""
    grp_by = f"GROUP BY {grp}" if grp else ""
    return f"""est AS (
  SELECT {grp_sel}
         {m} - count(*) AS zeros,
         {alpha} * {float(m * m)} / ({m} - count(*) + sum(power(2.0, -rank))) AS e_raw
  FROM regs {grp_by}
)
SELECT {grp_sel}
       round(CASE WHEN e_raw <= {2.5 * m} AND zeros > 0
                  THEN {float(m)} * ln({float(m)} / CAST(zeros AS DOUBLE))
                  ELSE e_raw END, 6) AS __EST__
FROM est"""


def hll_users_per_type_sql(p: int = 12) -> str:
    regs = _hll_registers("events", "CAST(user_id AS VARCHAR)", "event_type", p, 32)
    est = _hll_estimate(p, 32, "event_type").replace("__EST__", "ndv_users")
    return f"WITH {regs},\n{est}"


def hllpp_distinct_users_sql(p: int = 12) -> str:
    """Full HLL++ estimator in SQL, mirroring every branch of
    ``HllPlusPlusSketch.count`` (hll.py:212-223): linear counting only
    when ``zeros > 0 AND lc <= thresholds[p-4]`` (the published per-p
    threshold, NOT 2.5m), and the 6-nearest-neighbor bias subtraction
    for ``e_raw <= 5m``. The published raw-estimate/bias tables are
    inlined as a VALUES list from the same npz asset the engine loads,
    so both sides share the data; the nearest-6 mean is an avg over 6
    doubles (order differences ~1e-16 relative, far below the 1e-6
    output rounding)."""
    from raydedup.hll import _hllpp_const

    const = _hllpp_const()
    threshold = float(const["thresholds"][p - 4])
    raw = const[f"raw_estimate_p{p}"]
    bias = const[f"bias_p{p}"]
    vals = ",".join(
        f"({i},{float(r)!r},{float(b)!r})" for i, (r, b) in enumerate(zip(raw, bias))
    )
    m = 1 << p
    regs = _hll_registers("events", "CAST(user_id AS VARCHAR)", "", p, 64)
    alpha = f"(0.7213 / (1.0 + 1.079 / {float(m)}))"
    return f"""WITH {regs},
est AS (
  SELECT {m} - count(*) AS zeros,
         {alpha} * {float(m * m)} / ({m} - count(*) + sum(power(2.0, -rank))) AS e_raw
  FROM regs
),
biastab(i, r, b) AS (VALUES {vals}),
nearest AS (
  SELECT avg(b) AS bias_est FROM (
    SELECT b FROM biastab, est
    ORDER BY (est.e_raw - biastab.r) * (est.e_raw - biastab.r), biastab.i
    LIMIT 6
  )
)
SELECT round(CASE WHEN zeros > 0 AND {float(m)} * ln({float(m)} / CAST(zeros AS DOUBLE)) <= {threshold!r}
                  THEN {float(m)} * ln({float(m)} / CAST(zeros AS DOUBLE))
                  WHEN e_raw <= {float(5 * m)} THEN e_raw - bias_est
                  ELSE e_raw END, 6) AS ndv_users_hllpp
FROM est, nearest"""


# ------------------------------------------------------------- verifiers
# Rows-only queries whose result is checkable against a truth the driver
# computes from the parquet tables with numpy / pyarrow, at test scale,
# independent of the engine's shuffles and broadcasts.
# ``VERIFIERS[name](sf_dir, result)`` checks the query at its default
# arguments and raises ``VerificationError`` — never an ``assert``, so
# ``python -O`` keeps every check.
VERIFIERS: dict = {}


class VerificationError(RuntimeError):
    """A query result broke the guarantee its verifier checks."""


def verifier(fn):
    """Register a verifier under its name without the ``verify_`` prefix."""
    VERIFIERS[fn.__name__.removeprefix("verify_")] = fn
    return fn


def _require(ok, msg: str) -> None:
    if not ok:
        raise VerificationError(msg)


def _table(result) -> pa.Table:
    """A query result (Table, Dataset or pandas DataFrame) as one Table."""
    import pandas as pd

    from raydedup.queries import _collect

    if isinstance(result, pd.DataFrame):
        return pa.Table.from_pandas(result, preserve_index=False)
    return _collect(result)


def _col(t: pa.Table, name: str) -> list:
    return t.column(name).to_pylist()


def _require_ids(got: list, want: list) -> None:
    """``got`` holds every id of ``want`` exactly once."""
    _require(
        len(got) == len(set(got)) and set(got) == set(want),
        f"{len(got)} rows ({len(set(got))} distinct), want the {len(want)} ids of the input",
    )


def _require_topk_recall(sf_dir: str, result, qcol: str, drop_self: bool, floor: float) -> None:
    """ANN top-10 for the query vectors vec_id ∈ {0,1,2} (``qcol`` holds
    the query's vec_id): 10 distinct rows per query and recall ≥
    ``floor`` against the exact cosine top-10."""
    from raydedup.stages.ann import _emb_matrix, _normalize

    emb = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    ids = emb.column("vec_id").to_numpy()
    m = _normalize(_emb_matrix(emb, "embedding"))
    t = _table(result)
    q, got = t.column(qcol).to_numpy(), t.column("vec_id").to_numpy()
    _require(set(q.tolist()) <= {0, 1, 2}, "rows for queries outside vec_id 0..2")
    k = min(10, len(ids) - drop_self)
    hits = 0
    for qid in (0, 1, 2):
        cos = m @ m[ids == qid][0]
        truth = [v for v in ids[np.lexsort((ids, -cos))] if not (drop_self and v == qid)][:k]
        mine = got[q == qid].tolist()
        _require(len(set(mine)) == len(mine) == k, f"query {qid}: {len(mine)} rows, want {k}")
        _require(not (drop_self and qid in mine), f"query {qid} returned itself")
        hits += len(set(mine) & set(truth))
    _require(hits >= floor * 3 * k, f"recall {hits / (3 * k):.3f} < {floor} vs the exact top-{k}")


@verifier
def verify_hnsw_topk(sf_dir: str, result) -> None:
    _require_topk_recall(sf_dir, result, "query_id", drop_self=True, floor=0.9)


@verifier
def verify_ivf_topk(sf_dir: str, result) -> None:
    _require_topk_recall(sf_dir, result, "query_idx", drop_self=False, floor=0.8)


def _synth_images(columns: list[str]) -> pa.Table:
    """The synthetic image corpus sorted by image_id; its last three rows
    are the planted corrupt blobs (valid metadata, undecodable bytes)."""
    from raydedup.queries import _synth_images_path

    return pq.read_table(_synth_images_path(), columns=columns).sort_by("image_id")


@verifier
def verify_image_features_synth(sf_dir: str, result) -> None:
    """Every image once; decode_ok False on exactly the planted corrupt
    blobs; the stored phash reproduced bit-exactly on every other row."""
    truth = _synth_images(["image_id", "phash"])
    ids = _col(truth, "image_id")
    t = _table(result).sort_by("image_id")
    _require_ids(_col(t, "image_id"), ids)
    ok = _col(t, "decode_ok")
    bad = [i for i, o in zip(ids, ok) if not o]
    _require(bad == ids[-3:], f"decode_ok False on {bad}, want {ids[-3:]}")
    got = [p for p, o in zip(_col(t, "phash_check"), ok) if o]
    want = [p for p, o in zip(_col(truth, "phash"), ok) if o]
    _require(got == want, "decoded phash diverges from the stored phash")


@verifier
def verify_image_thumbs_synth(sf_dir: str, result) -> None:
    """One 16×16×3 thumb per decodable image (the corrupt blobs dropped),
    the first 32 byte-for-byte equal to the resize kernel run here."""
    from raydedup.media import decode_image, resize_image

    src = _synth_images(["image_id", "bytes", "w", "h", "fmt"])
    t = _table(result).sort_by("image_id")
    _require_ids(_col(t, "image_id"), _col(src, "image_id")[:-3])
    thumbs = _col(t, "thumb")
    sizes = set(zip(_col(t, "thumb_w"), _col(t, "thumb_h"), map(len, thumbs)))
    _require(sizes == {(16, 16, 16 * 16 * 3)}, f"thumb (w, h, bytes) {sizes}, want fixed 16×16×3")
    for row, got in zip(src.slice(0, 32).to_pylist(), thumbs):
        img = decode_image(row["bytes"], row["w"], row["h"], row["fmt"])
        want = resize_image(img, 16, 16).tobytes()
        _require(want == got, f"thumb of {row['image_id']} differs from the kernel's")


@verifier
def verify_image_stream_dedup(sf_dir: str, result) -> None:
    """Rows in arrival order: an image is a dup iff some earlier row's
    phash lies within Hamming distance 3 (brute-force prefix sweep)."""
    src = _synth_images(["image_id", "phash"])
    t = _table(result)
    ids = _col(t, "image_id")
    _require_ids(ids, _col(src, "image_id"))
    ph = dict(zip(_col(src, "image_id"), _col(src, "phash")))
    x = np.array([ph[i] for i in ids], dtype=np.int64).view(np.uint64)
    want = [False] + [
        bool((np.unpackbits((x[:i] ^ x[i]).view(np.uint8)).reshape(i, 64).sum(axis=1) <= 3).any())
        for i in range(1, len(ids))
    ]
    bad = [i for i, (f, w) in enumerate(zip(_col(t, "is_dup"), want)) if f != w]
    _require(not bad, f"flags differ from the sweep at rows {bad[:5]}")


@verifier
def verify_audio_features_synth(sf_dir: str, result) -> None:
    """Every clip once with its codec, decoded, and its RMS within 2% of
    the original signal's (the companding bound)."""
    from raydedup.queries import _synth_media_path

    cols = ["audio_id", "codec", "expected_rms"]
    truth = pq.read_table(_synth_media_path("audio", 200), columns=cols).sort_by("audio_id")
    t = _table(result).sort_by("audio_id")
    _require_ids(_col(t, "audio_id"), _col(truth, "audio_id"))
    _require(t.column("codec").equals(truth.column("codec")), "codec column differs")
    _require(pc.all(t.column("decode_ok")).as_py(), "a clip failed to decode")
    rms, want = t.column("rms").to_numpy(), truth.column("expected_rms").to_numpy()
    _require(np.all(np.abs(rms - want) <= 0.02 * want + 1e-9), "RMS out of the companding bound")


@verifier
def verify_video_frames_synth(sf_dir: str, result) -> None:
    """Exactly the sampled frames (every 5th, ≤ 4 per video), each with
    the stored round-tripped phash, bit-exactly."""
    from raydedup.queries import _synth_media_path

    truth = pq.read_table(_synth_media_path("video", 40), columns=["video_id", "frame_phashes"])
    want = {
        (vid, 5 * j): ph
        for vid, phl in zip(_col(truth, "video_id"), _col(truth, "frame_phashes"))
        for j, ph in enumerate(phl)
    }
    t = _table(result)
    keys = list(zip(_col(t, "video_id"), _col(t, "frame_idx")))
    _require_ids(keys, list(want))
    bad = [k for k, ph in zip(keys, _col(t, "phash_check")) if ph != want[k]]
    _require(not bad, f"phash mismatch at {bad[:5]}")


@verifier
def verify_bloom_dedup_filter(sf_dir: str, result) -> None:
    """Flags of the odd doc_ids vs the exact band semi-join against the
    even ones: zero false negatives, false positives within budget."""
    from raydedup.bloom import band_values
    from raydedup.schema import sig_to_numpy
    from raydedup.stages.signatures import SignatureStage

    b, r, fp = 16, 8, 1e-4  # as q_bloom_dedup_filter
    docs = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    stage = SignatureStage(shingle="word3", text_col="text", phash_col=None, hashfunc="md5")
    bv = band_values(sig_to_numpy(stage(docs).column("minhash")), b, r)
    ids = docs.column("doc_id").to_numpy()
    even = ids % 2 == 0
    hit = np.any([np.isin(bv[:, j], bv[even, j]) for j in range(b)], axis=0)
    exact = set(ids[hit & ~even].tolist())
    t = _table(result)
    got = _col(t, "doc_id")
    _require_ids(got, ids[~even].tolist())
    bloom = {i for i, f in zip(got, _col(t, "is_dup")) if f}
    _require(exact <= bloom, f"false negatives {sorted(exact - bloom)[:5]}")
    budget = max(5, int(3 * b * fp * len(got)))
    _require(len(bloom - exact) <= budget, f"{len(bloom - exact)} false positives > {budget}")


@verifier
def verify_semantic_dedup(sf_dir: str, result) -> None:
    """The SemDeDup rule in one process: the same seeded centroids (over
    the query's ≤ 20,000-row sample) give the same cells; a row is a dup
    iff a same-cell row with a smaller vec_id has cosine > 0.45."""
    from raydedup.stages.ann import _emb_matrix, _normalize, spherical_kmeans

    emb = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    ids = emb.column("vec_id").to_numpy()
    raw = _emb_matrix(emb, "embedding")
    m = _normalize(raw)
    cells = np.argmax(m @ spherical_kmeans(raw[:20_000], n_centroids=16).T, axis=1)
    want = np.zeros(len(ids), dtype=bool)
    for c in np.unique(cells):
        sel = np.flatnonzero(cells == c)
        sel = sel[np.argsort(ids[sel], kind="stable")]
        want[sel] = np.triu(m[sel] @ m[sel].T > 0.45, k=1).any(axis=0)
    t = _table(result)
    _require_ids(_col(t, "vec_id"), ids.tolist())
    got = dict(zip(_col(t, "vec_id"), _col(t, "is_dup")))
    bad = [v for v, w in zip(ids.tolist(), want) if bool(got[v]) != w]
    _require(not bad, f"flags differ from the local rule at vec_id {bad[:5]}")


@verifier
def verify_price_quantiles_sketch(sf_dir: str, result) -> None:
    """Each estimate's exact rank interval [#< x, #≤ x] meets ``q·n``
    within twice the sketch's rank-error bound, +1 (rank error plus
    retained-weight drift)."""
    price = pq.read_table(f"{sf_dir}/lineitem.parquet", columns=["l_extendedprice"])
    x = np.sort(price.column(0).to_numpy())
    t = _table(result)
    qs = _col(t, "q")
    _require(qs == [0.01, 0.25, 0.5, 0.75, 0.99], f"quantiles {qs}")
    for q, est, n, bound in zip(qs, _col(t, "est_price"), _col(t, "n"), _col(t, "rank_error_bound")):
        lt, le = np.searchsorted(x, est, "left"), np.searchsorted(x, est, "right")
        _require(
            n == len(x) and le >= q * n - (2 * bound + 1) and lt <= q * n + (2 * bound + 1),
            f"q={q}: est={est} has rank [{lt}, {le}] of {len(x)} rows, n={n}, bound={bound}",
        )


@verifier
def verify_heavy_hitter_terms(sf_dir: str, result) -> None:
    """The Misra–Gries guarantees over the output's own columns: est ≤
    exact ≤ est + dec for every reported term, and every unreported term
    has exact count ≤ min(est) + dec (never retained, so ≤ dec, or
    retained below the reported ones)."""
    text = pq.read_table(f"{sf_dir}/documents.parquet", columns=["text"]).column("text")
    toks = pc.list_flatten(pc.utf8_split_whitespace(text))
    vc = toks.filter(pc.not_equal(toks, "")).value_counts()
    exact = dict(zip(vc.field(0).to_pylist(), vc.field(1).to_pylist()))
    t = _table(result)
    terms, est = _col(t, "term"), _col(t, "est_count")
    _require(len(set(terms)) == len(terms) == len(est) > 0, "want distinct, non-empty terms")
    dec = t.column("dec_total")[0].as_py()
    _require(
        set(_col(t, "dec_total")) == {dec}
        and set(_col(t, "n_tokens")) == {sum(exact.values())},
        "dec_total must be one value and n_tokens the corpus token count",
    )
    for term, e, ub in zip(terms, est, _col(t, "upper_bound")):
        c = exact.get(term, 0)
        _require(e <= c <= e + dec and ub == e + dec, f"{term!r}: est={e} exact={c} dec={dec}")
    floor, reported = min(est) + dec, set(terms)
    missed = sorted((c, w) for w, c in exact.items() if c > floor and w not in reported)
    _require(not missed, f"unreported terms above min(est)+dec={floor}: {missed[-5:]}")


@verifier
def verify_minhash_dedup_docs(sf_dir: str, result) -> None:
    """The flagship text profile in scalar driver code, apart from the
    vectorized kernels: ``str.split`` word-3 shingles, ``hashlib.sha1``
    32-bit values, the reference permutation ``((a·h + b) mod 2⁶⁴) mod
    (2⁶¹−1) & (2³²−1)`` in Python ints, b×r bands as dicts of sets keyed
    by the big-endian bytes of each band (reference ``lsh.py:537-538``),
    then union-find. Exact-text groups add no edge: equal texts have
    equal signatures. The query's partition must equal this one."""
    import hashlib

    from raydedup.params import optimal_param

    p, m32, m64 = (1 << 61) - 1, (1 << 32) - 1, (1 << 64) - 1
    perms = [(int(a), int(b)) for a, b in zip(*generate_permutations(128, 1))]
    nb, r = optimal_param(0.8, 128)
    bands: list[dict] = [{} for _ in range(nb)]
    docs = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    for doc, text in zip(_col(docs, "doc_id"), _col(docs, "text")):
        w = (text or "").lower().split()
        hs = [
            int.from_bytes(hashlib.sha1(s.encode()).digest()[:4], "little")
            for s in {" ".join(w[i : i + 3]) for i in range(len(w) - 2)}
        ]
        sig = [min((((a * h + b) & m64) % p & m32 for h in hs), default=m32) for a, b in perms]
        for j, band in enumerate(bands):
            key = b"".join(v.to_bytes(8, "big") for v in sig[j * r : (j + 1) * r])
            band.setdefault(key, set()).add(doc)
    parent: dict = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for band in bands:
        for members in band.values():
            if len(members) > 1:
                roots = [find(parent.setdefault(m, m)) for m in members]
                for x in roots[1:]:
                    parent[find(x)] = find(roots[0])
    want: dict = {}
    for x in parent:
        want.setdefault(find(x), set()).add(x)
    t = _table(result)
    got: dict = {}
    for doc, cid in zip(_col(t, "doc_id"), _col(t, "cluster_id")):
        got.setdefault(cid, set()).add(doc)
    _require_ids(_col(t, "doc_id"), list(parent))
    want_p = {frozenset(c) for c in want.values()}
    got_p = {frozenset(c) for c in got.values()}
    bad = sorted(map(sorted, got_p ^ want_p))[:3]
    _require(got_p == want_p, f"{len(got_p)} clusters vs {len(want_p)} by union-find; differing: {bad}")

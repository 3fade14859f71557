"""raydedup — a Ray-Data-native near-duplicate detection & clustering engine.

Rebuilds the query/data-processing capabilities of ekzhu/datasketch
(reference at /root/reference, v1.10.0) from scratch on top of
``ray.data.Dataset``: vectorized 128-perm MinHash over shingles, 64-bit
SimHash over phash/pixel features, banded LSH as a keyed shuffle (a
hash partition on plain Ray tasks: one split and one reduce round, no
actors), union-find connected components, a window-anchor
exact-substring pass, HyperLogLog aggregates — plus the large-scale
training-data operators (exact/near dedup, ANN search, text
quality/langid/token stats, multimodal plumbing).

Design notes (vs the reference):
- the reference is a library of in-memory sketch objects + mutable KV
  indexes (``datasketch/lsh.py:191-200``); here every index is a table
  (an Arrow-backed ``Dataset``) and every insert/query is a batch
  transform or a shuffle. No Redis/Cassandra tier — the object store,
  shuffles and persisted Parquet/Lance files replace ``storage.py``.
- signature math is bit-exact with the reference (same seed-derived
  permutations, same SHA1-based token hash, same band-key byte layout)
  so candidate sets and clusters match at identical config.
"""

def _quiet_known_benign_warnings() -> None:
    """pyarrow Schemas carrying pandas metadata are unhashable (the
    metadata dict breaks ``hash(schema)``), so Ray Data's schema-dedup
    fast path logs 'Failed to hash the schemas' for every block of any
    parquet file written by pandas — pure noise (it falls back to full
    unification). Runs at import so worker processes (which import this
    package to unpickle UDFs) are quieted too. A message-targeted
    Filter, not a level raise — any OTHER warning from that module
    (real schema-unification trouble) still surfaces."""
    import logging

    class _DropSchemaHashNoise(logging.Filter):
        def filter(self, record: logging.LogRecord) -> bool:  # noqa: A003
            return "Failed to hash the schema" not in record.getMessage()

    lg = logging.getLogger("ray.data._internal.arrow_ops.transform_pyarrow")
    if not any(isinstance(f, _DropSchemaHashNoise) for f in lg.filters):
        lg.addFilter(_DropSchemaHashNoise())


_quiet_known_benign_warnings()

from raydedup.hashing import (
    sha1_hash32,
    sha1_hash64,
    hash_tokens32,
    generate_permutations,
    char_shingles,
    word_ngram_shingles,
)
from raydedup.minhash import (
    MAX_HASH,
    MERSENNE_PRIME,
    minhash_batch,
    minhash_single,
    jaccard_estimate,
    band_keys,
    merge_signatures,
)
from raydedup.hashing import md5_hash32, md5_hash64, hash_bytes64
from raydedup.params import optimal_param
from raydedup.pipeline import DedupConfig, dedup_pipeline
from raydedup.simhash import simhash_from_phash, simhash_from_tokens, hamming_distance64
from raydedup.hll import HllSketch, HllPlusPlusSketch, hll_aggregate_fn, hllpp_aggregate_fn
from raydedup.hnsw import HnswIndex
from raydedup.session import MinHashLshSession
from raydedup.cms import CountMinSketch
from raydedup.minhash import cardinality_estimate, cardinality_estimate_exact, minhash_union_aggregate
from raydedup.quantile import KllSketch, kll_aggregate_fn
from raydedup.heavyhitters import MisraGries, mg_aggregate_fn
from raydedup.session import PhashSession
from raydedup.aio import AsyncMinHashLshSession
from raydedup.weighted import (
    WeightedMinHashGenerator,
    bbit_compress,
    bbit_jaccard,
    bbit_pack,
    bbit_unpack,
)

__all__ = [
    "sha1_hash32",
    "sha1_hash64",
    "md5_hash32",
    "md5_hash64",
    "hash_tokens32",
    "hash_bytes64",
    "generate_permutations",
    "char_shingles",
    "word_ngram_shingles",
    "MAX_HASH",
    "MERSENNE_PRIME",
    "minhash_batch",
    "minhash_single",
    "jaccard_estimate",
    "cardinality_estimate",
    "cardinality_estimate_exact",
    "minhash_union_aggregate",
    "band_keys",
    "merge_signatures",
    "optimal_param",
    "DedupConfig",
    "dedup_pipeline",
    "simhash_from_phash",
    "simhash_from_tokens",
    "hamming_distance64",
    "HllSketch",
    "HllPlusPlusSketch",
    "hll_aggregate_fn",
    "hllpp_aggregate_fn",
    "HnswIndex",
    "MinHashLshSession",
    "PhashSession",
    "AsyncMinHashLshSession",
    "CountMinSketch",
    "KllSketch",
    "kll_aggregate_fn",
    "MisraGries",
    "mg_aggregate_fn",
    "WeightedMinHashGenerator",
    "bbit_compress",
    "bbit_jaccard",
    "bbit_pack",
    "bbit_unpack",
]

"""Driver-style correctness check: run every queries() entry at a given
sf_dir and compare against oracle_sql() via DuckDB (row count, schema
names, order-insensitive value hash); a rows-only query with an entry in
``raydedup.oracles.VERIFIERS`` runs its verifier instead. Rows-only and
verified lines print the result's value hash, so such a result can be
compared across commits. Usage:

    python scripts/check_oracles.py [sf_dir] [query ...]
"""

from __future__ import annotations

import os
import sys
import time

import duckdb
import pandas as pd


TABLES = "region nation customer supplier part orders lineitem events documents embeddings".split()


def to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa

    if isinstance(res, pd.DataFrame):
        return res
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res.to_pandas()  # ray Dataset


def value_hash(df: pd.DataFrame) -> str:
    import hashlib

    df = df[sorted(df.columns)]
    rows = df.apply(lambda r: "|".join(repr(v) for v in r), axis=1).sort_values()
    return hashlib.sha1("\n".join(rows).encode()).hexdigest()[:16]


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False, logging_level="ERROR")
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False

    # the checkout this script lives in, not whichever one is installed
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import __ray_entry__ as entry_mod

    from raydedup.oracles import VERIFIERS

    qs = entry_mod.queries()
    oracles = entry_mod.oracle_sql()

    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")

    failures = []
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            ours = to_pandas(fn(sf_dir))
        except Exception as e:
            failures.append(name)
            print(f"FAIL {name}: raised {type(e).__name__}: {e}")
            continue
        wall = time.time() - t0
        if name not in oracles:
            tag = "[rows-only]"
            if name in VERIFIERS:
                try:
                    VERIFIERS[name](sf_dir, ours)
                    tag = "[verified]"
                except Exception as e:
                    failures.append(name)
                    print(f"FAIL {name}: verifier raised {type(e).__name__}: {e}")
                    continue
            print(
                f"ok   {name}: rows={len(ours)} cols={sorted(ours.columns)} "
                f"value_hash={value_hash(ours)} ({wall:.1f}s) {tag}"
            )
            continue
        theirs = con.sql(oracles[name]).df()
        ok_rows = len(ours) == len(theirs)
        ok_cols = sorted(ours.columns) == sorted(theirs.columns)
        ok_hash = ok_rows and ok_cols and value_hash(ours) == value_hash(theirs)
        status = "ok  " if (ok_rows and ok_cols and ok_hash) else "FAIL"
        if status == "FAIL":
            failures.append(name)
        print(
            f"{status} {name}: rows {len(ours)}/{len(theirs)} cols_match={ok_cols} hash_match={ok_hash} ({wall:.1f}s)"
        )
        if not ok_cols:
            print(f"     ours={sorted(ours.columns)} oracle={sorted(theirs.columns)}")

    if failures:
        print("FAILURES:", failures)
        sys.exit(1)
    print("all checks passed")


if __name__ == "__main__":
    main()
    import ray

    ray.shutdown()

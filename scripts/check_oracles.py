"""Local stand-in for the driver's correctness gate: run every
``queries()`` entry at the given sf and compare against ``oracle_sql()``
via DuckDB (row count + schema + order-insensitive value hash).

Usage: python scripts/check_oracles.py [sf_dir] [only_query ...]
"""

from __future__ import annotations

import hashlib
import sys
import time
from pathlib import Path

import duckdb
import pandas as pd

TABLES = (
    "region nation customer supplier part orders lineitem events documents embeddings"
).split()


def to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa

    import ray.data

    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def value_hash(df: pd.DataFrame) -> str:
    df = df[sorted(df.columns)]
    rows = sorted(
        tuple(str(v) for v in row) for row in df.itertuples(index=False, name=None)
    )
    h = hashlib.sha256()
    for r in rows:
        h.update("\x1f".join(r).encode("utf-8"))
        h.update(b"\x1e")
    return h.hexdigest()[:16]


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    # the checkout this script lives in, so a copy tests its own tree
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    import __ray_entry__ as e

    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )

    qs, oracles = e.queries(), e.oracle_sql()
    failed = []
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            got = to_pandas(fn(sf_dir))
        except Exception as exc:  # noqa: BLE001
            print(f"FAIL {name}: query raised {type(exc).__name__}: {exc}")
            failed.append(name)
            continue
        dt = time.time() - t0
        if name not in oracles:
            print(f"ok   {name}: rows={len(got)} (rows-only, no oracle) [{dt:.1f}s]")
            continue
        want = con.execute(oracles[name]).df()
        ok_rows = len(got) == len(want)
        ok_cols = sorted(got.columns) == sorted(want.columns)
        gh, wh = value_hash(got), value_hash(want)
        if ok_rows and ok_cols and gh == wh:
            print(f"PASS {name}: rows={len(got)} hash={gh} [{dt:.1f}s]")
        else:
            print(
                f"FAIL {name}: rows {len(got)}/{len(want)} cols_ok={ok_cols} "
                f"hash {gh}/{wh} [{dt:.1f}s]"
            )
            if ok_cols and not got.empty and not want.empty:
                g = got.sort_values(sorted(got.columns)).head(3)
                w = want.sort_values(sorted(want.columns)).head(3)
                print("  got:\n", g.to_string(), "\n  want:\n", w.to_string())
            failed.append(name)
    print("FAILED:", failed if failed else "none")
    return 1 if failed else 0


if __name__ == "__main__":
    rc = main()
    import ray

    ray.shutdown()
    sys.exit(rc)

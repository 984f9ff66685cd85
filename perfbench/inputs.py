"""Seeded benchmark inputs and their reference answers, cached per seed.

Images come from the repository's own seeded generator (``synth``).
Documents and tables come from the files in ``data/``, unchanged copies of
the repository's test data (``documents`` of sf0.1, ``lineitem`` and
``orders`` of sf0.01); the seed fixes their row order and, for documents,
which replica gets which fresh ``doc_id``.

The reference answers are computed independently of the Ray pipelines:
``oracle.label`` (the single-process per-row labeler) for images, per-row
scrub for documents and DuckDB SQL for tables. They are written once under
``<work>/inputs/<source digest>/seed-<n>/<kind>/`` (atomic rename) and
reused by later runs of the same sources; caches of other sources are
removed.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DATA = os.path.join(HERE, "data")

# image corpus: N_IMAGES synth rows in IMAGE_SHARDS files
N_IMAGES = 3000
IMAGE_SHARDS = 3
# documents: every row of data/documents.parquet DOC_REPLICAS times under
# fresh doc_ids (a dup-heavy corpus), in DOC_SHARDS files
DOC_REPLICAS = 2
DOC_SHARDS = 4
TABLES = ("lineitem", "orders")


def source_digest() -> str:
    """sha1 over the package and benchmark sources and the benchmark data:
    everything the cached inputs and answers are computed from."""
    h = hashlib.sha1()
    for top in ("rayquality", "perfbench"):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".py", ".parquet")):
                    p = os.path.join(base, name)
                    h.update(os.path.relpath(p, ROOT).encode())
                    with open(p, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()


def cache_root(work: str) -> str:
    """``<work>/inputs/<digest>``; removes caches built from other sources."""
    digest = source_digest()[:16]
    base = os.path.join(work, "inputs")
    for old in glob.glob(os.path.join(base, "*")):
        if os.path.basename(old) != digest:
            shutil.rmtree(old, ignore_errors=True)
    return os.path.join(base, digest)


def _cached(path: str, build) -> str:
    """Build ``path`` (a directory) once: ``build(tmp_dir)`` fills a sibling
    temp dir that is renamed into place, so a killed run leaves no half
    cache behind."""
    if os.path.isdir(path):
        return path
    tmp = path + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    build(tmp)
    os.replace(tmp, path)
    return path


def _write_json(path: str, obj) -> None:
    with open(path, "w") as f:
        json.dump(obj, f, indent=1, sort_keys=True)


def read_json(path: str):
    with open(path) as f:
        return json.load(f)


def _shuffled(tbl: pa.Table, seed: int, stream: int) -> pa.Table:
    return tbl.take(np.random.default_rng((seed, stream)).permutation(tbl.num_rows))


def _write_shards(tbl: pa.Table, out_dir: str, n_shards: int, prefix: str) -> None:
    step = -(-tbl.num_rows // n_shards)
    for s in range(n_shards):
        pq.write_table(
            tbl.slice(s * step, step), os.path.join(out_dir, f"{prefix}-{s:05d}.parquet")
        )


# ---- images ---------------------------------------------------------------


def images(root: str, seed: int) -> str:
    """Synth corpus + oracle verdicts -> dir with ``corpus/``,
    ``oracle.parquet`` and ``meta.json`` (rows, files, kept rows)."""

    def build(tmp: str) -> None:
        from rayquality import oracle, synth

        corpus = os.path.join(tmp, "corpus")
        synth.generate_parquet(corpus, N_IMAGES, seed=seed, rows_per_shard=N_IMAGES // IMAGE_SHARDS)
        files = sorted(glob.glob(os.path.join(corpus, "*.parquet")))
        lab = oracle.label(pa.concat_tables([pq.read_table(f) for f in files]))
        ref = pa.table(
            {
                "image_id": pa.array(lab["image_id"], pa.string()),
                "keep": pa.array(lab["keep"], pa.bool_()),
                "drop_reasons": pa.array(list(lab["drop_reasons"]), pa.list_(pa.string())),
                "caption_scrubbed": pa.array(lab["caption_scrubbed"], pa.string()),
            }
        ).sort_by("image_id")
        pq.write_table(ref, os.path.join(tmp, "oracle.parquet"))
        _write_json(
            os.path.join(tmp, "meta.json"),
            {
                "rows": ref.num_rows,
                "shards": len(files),
                "oracle_kept": int(ref["keep"].to_numpy(zero_copy_only=False).sum()),
            },
        )

    return _cached(os.path.join(root, f"seed-{seed}", "images"), build)


# ---- documents ------------------------------------------------------------


def documents(root: str, seed: int) -> str:
    """Document shards (``corpus/``) + ``meta.json`` with the row count and
    the number of distinct scrubbed texts (null reads as empty, as in
    ``textpipe``), which fixes the exact-duplicate count."""

    def build(tmp: str) -> None:
        from rayquality.scrub import scrub_text

        text = pq.read_table(os.path.join(DATA, "documents.parquet"), columns=["text"])
        rep = _shuffled(pa.concat_tables([text] * DOC_REPLICAS), seed, 2)
        tbl = pa.table({"doc_id": pa.array(np.arange(rep.num_rows, dtype=np.int64)), "text": rep["text"]})
        corpus = os.path.join(tmp, "corpus")
        os.makedirs(corpus)
        _write_shards(tbl, corpus, DOC_SHARDS, "docs")
        distinct = {scrub_text(t or "")[0] for t in tbl["text"].to_pylist()}
        _write_json(
            os.path.join(tmp, "meta.json"),
            {"rows": tbl.num_rows, "distinct_scrubbed": len(distinct)},
        )

    return _cached(os.path.join(root, f"seed-{seed}", "documents"), build)


# ---- tables ---------------------------------------------------------------


def tables_reference(table_dir: str) -> dict:
    """Per-table null and duplicate (non-null minus distinct) counts per
    column and FK orphans of ``l_orderkey``, all in DuckDB SQL."""
    import duckdb

    con = duckdb.connect()
    try:
        out: dict = {}
        for name in TABLES:
            path = os.path.join(table_dir, f"{name}.parquet")
            cols = pq.read_schema(path).names
            exprs = ", ".join(f'count("{c}"), count(DISTINCT "{c}")' for c in cols)
            row = con.execute(f"SELECT count(*), {exprs} FROM read_parquet('{path}')").fetchone()
            total = int(row[0])
            out[name] = {
                "rows": total,
                "nulls": {c: total - int(row[1 + 2 * i]) for i, c in enumerate(cols)},
                "duplicates": {c: int(row[1 + 2 * i]) - int(row[2 + 2 * i]) for i, c in enumerate(cols)},
            }
        li = os.path.join(table_dir, "lineitem.parquet")
        od = os.path.join(table_dir, "orders.parquet")
        out["lineitem"]["orphans"] = {
            "l_orderkey": int(
                con.execute(
                    f"SELECT count(*) FROM read_parquet('{li}') WHERE l_orderkey IS NOT NULL "
                    f"AND l_orderkey NOT IN (SELECT o_orderkey FROM read_parquet('{od}'))"
                ).fetchone()[0]
            )
        }
        return out
    finally:
        con.close()


def tables(root: str, seed: int) -> str:
    """``lineitem.parquet`` + ``orders.parquet`` (rows in seeded order)
    under ``tables/`` and the DuckDB reference counts in ``reference.json``."""

    def build(tmp: str) -> None:
        tdir = os.path.join(tmp, "tables")
        os.makedirs(tdir)
        for k, name in enumerate(TABLES):
            tbl = pq.read_table(os.path.join(DATA, f"{name}.parquet"))
            pq.write_table(_shuffled(tbl, seed, 3 + k), os.path.join(tdir, f"{name}.parquet"))
        _write_json(os.path.join(tmp, "reference.json"), tables_reference(tdir))

    return _cached(os.path.join(root, f"seed-{seed}", "tables"), build)

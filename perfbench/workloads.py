"""The benchmark workloads: warm-up, the timed call and its output check.

Each workload drives a public entry point of ``rayquality`` on seeded
inputs from :mod:`inputs`:

- ``images_full``: ``pipeline.run`` over the whole synth corpus in one wave.
- ``docs_filter``: ``textpipe.run_documents`` with the default config.
- ``tables_analyze``: ``engine.default_engine`` with ``discover_relations``
  FKs, ``validate_data`` on ``lineitem`` then ``orders``.

``check`` returns a list of mismatch messages; an empty list means the
call's output equals the independent reference.
"""

from __future__ import annotations

import glob
import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq

import inputs

# rows of the first input file that make up the warm-up input: enough to
# start every worker and actor, too few to add measurable data work
WARM_ROWS = 256


def _parquet_files(d: str) -> list[str]:
    return sorted(glob.glob(os.path.join(d, "*.parquet")))


def _num_rows(d: str) -> int:
    return sum(pq.ParquetFile(f).metadata.num_rows for f in _parquet_files(d))


def write_warm_input(src_dir: str, dst_dir: str) -> str:
    os.makedirs(dst_dir)
    first = _parquet_files(src_dir)[0]
    pq.write_table(pq.read_table(first).slice(0, WARM_ROWS), os.path.join(dst_dir, os.path.basename(first)))
    return dst_dir


def file_sizes(d: str) -> dict[str, tuple[int, int]]:
    """path -> (size, mtime_ns) for every file under ``d``."""
    out = {}
    for base, _dirs, files in os.walk(d):
        for name in files:
            st = os.stat(os.path.join(base, name))
            out[os.path.join(base, name)] = (st.st_size, st.st_mtime_ns)
    return out


def written_bytes(before: dict, after: dict) -> int:
    """Bytes in files that are new or changed between two snapshots."""
    return sum(v[0] for p, v in after.items() if before.get(p) != v)


class Workload:
    """Defaults: nothing to reset between calls and no output directory."""

    name: str
    rows: int  # input rows per timed call
    run_dir: str | None = None  # everything the calls write lives here

    def before_call(self) -> None:
        pass

    def fresh_warm_out(self) -> str:
        """An empty warm-up output dir: a resumed warm-up would skip the
        scoring and leave its workers and actors to the first timed call."""
        warm_out = os.path.join(self.run_dir, "warm_out")
        shutil.rmtree(warm_out, ignore_errors=True)
        return warm_out

    def scored_input_files(self) -> list[str]:
        return []


class ImagesFull(Workload):
    """Fresh ``pipeline.run`` over the corpus in one wave, kept corpus
    written. Stage A (decode, phash, scrub, models) does most of the work."""

    name = "images_full"

    def __init__(self, work: str, seed: int) -> None:
        self.inp = inputs.images(inputs.cache_root(work), seed)
        self.meta = inputs.read_json(os.path.join(self.inp, "meta.json"))
        self.corpus = os.path.join(self.inp, "corpus")
        self.run_dir = os.path.join(work, "run", self.name)
        shutil.rmtree(self.run_dir, ignore_errors=True)
        self.out = os.path.join(self.run_dir, "out")
        self.warm_corpus = write_warm_input(self.corpus, os.path.join(self.run_dir, "warm_corpus"))
        self.rows = self.meta["rows"]

    @staticmethod
    def config(out: str):
        from rayquality.config import RunConfig

        # 64 files per wave: the whole corpus is one wave
        return RunConfig(output_dir=out, batch_size=2048, wave_size=64)

    def warm_up(self) -> None:
        from rayquality import pipeline

        pipeline.run(self.warm_corpus, self.config(self.fresh_warm_out()))

    def before_call(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def call(self) -> dict:
        from rayquality import pipeline

        return pipeline.run(self.corpus, self.config(self.out))

    def scored_input_files(self) -> list[str]:
        return _parquet_files(self.corpus)

    def check(self, summary: dict) -> list[str]:
        return check_images(summary, os.path.join(self.inp, "oracle.parquet"), self.meta)

    def call_traced(self, tr) -> dict:
        with tr.span("pipeline.run"):
            return self.call()

    def layers(self, tr, summary: dict, started: float) -> dict:
        """Phases and wave counts from the run's summary and manifest, then
        the near-dup kernels on its output."""
        import layers

        from rayquality.lineage import Manifest

        ph = summary["phases"]
        scored = sum(r["completed_at"] >= started for r in Manifest(self.out).load_all())
        return {
            "pipeline.stage_a_s": ph["stage_a"],
            "pipeline.exact_dedup_s": ph["exact_dedup"],
            "pipeline.near_dedup_s": ph["near_dedup"],
            "pipeline.finalize_s": ph["final_write"] + ph["kept_write"],
            "pipeline.waves_scored": scored,
            "pipeline.waves_skipped": summary["waves"] - scored,
            **layers.image_dedup(tr, summary["final_dir"]),
        }


def check_images(summary: dict, oracle_path: str, meta: dict) -> list[str]:
    """Final verdicts vs ``oracle.label``: keep F1 = 1.0, identical
    drop_reasons and caption_scrubbed, kept corpus row count."""
    errs = []
    cols = ["image_id", "keep", "drop_reasons", "caption_scrubbed"]
    fin = pa.concat_tables(
        pq.read_table(f, columns=cols) for f in _parquet_files(summary["final_dir"])
    ).sort_by("image_id")
    ref = pq.read_table(oracle_path)
    if fin.num_rows != ref.num_rows or not fin["image_id"].equals(ref["image_id"]):
        return [f"final/ has {fin.num_rows} rows or other ids than the oracle's {ref.num_rows}"]
    keep = fin["keep"].to_numpy()
    rkeep = ref["keep"].to_numpy()
    tp, fp, fn = int((keep & rkeep).sum()), int((keep & ~rkeep).sum()), int((~keep & rkeep).sum())
    f1 = 2 * tp / (2 * tp + fp + fn) if tp + fp + fn else 1.0
    if f1 != 1.0:
        errs.append(f"keep F1 {f1:.6f} != 1.0 (fp={fp}, fn={fn})")
    lst = pa.list_(pa.string())
    for col, typ in (("drop_reasons", lst), ("caption_scrubbed", pa.string())):
        a, b = fin[col].cast(typ).combine_chunks(), ref[col].cast(typ).combine_chunks()
        if not a.equals(b):
            errs.append(f"{col} differs from the oracle on some rows")
    kept = _num_rows(summary["kept_dir"])
    if kept != meta["oracle_kept"]:
        errs.append(f"kept/ has {kept} rows, oracle keeps {meta['oracle_kept']}")
    return errs


class DocsFilter(Workload):
    """``run_documents`` over a dup-heavy long-text corpus: scrub, MinHash
    LSH and the dup-map lookups dominate."""

    name = "docs_filter"

    def __init__(self, work: str, seed: int) -> None:
        self.inp = inputs.documents(inputs.cache_root(work), seed)
        self.meta = inputs.read_json(os.path.join(self.inp, "meta.json"))
        self.corpus = os.path.join(self.inp, "corpus")
        self.run_dir = os.path.join(work, "run", self.name)
        shutil.rmtree(self.run_dir, ignore_errors=True)
        self.out = os.path.join(self.run_dir, "out")
        self.warm_corpus = write_warm_input(self.corpus, os.path.join(self.run_dir, "warm_corpus"))
        self.rows = self.meta["rows"]

    @staticmethod
    def _run(corpus: str, out: str) -> dict:
        from rayquality import textpipe

        return textpipe.run_documents(corpus, textpipe.DocRunConfig(output_dir=out))

    def warm_up(self) -> None:
        self._run(self.warm_corpus, self.fresh_warm_out())

    def before_call(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def call(self) -> dict:
        return self._run(self.corpus, self.out)

    def scored_input_files(self) -> list[str]:
        return _parquet_files(self.corpus)

    def check(self, summary: dict) -> list[str]:
        errs = []
        rows, distinct = self.meta["rows"], self.meta["distinct_scrubbed"]
        if summary["total"] != rows:
            errs.append(f"total {summary['total']} != input rows {rows}")
        exact = summary["rule_hits"].get("exact_dup", 0)
        if exact != rows - distinct:
            errs.append(f"exact_dup {exact} != rows - distinct scrubbed texts {rows - distinct}")
        kept = _num_rows(summary["kept_dir"])
        if kept != summary["kept"]:
            errs.append(f"kept/ has {kept} rows, summary says {summary['kept']}")
        return errs

    def call_traced(self, tr) -> dict:
        with tr.span("textpipe.run_documents"):
            return self.call()

    def layers(self, tr, summary: dict, started: float) -> dict:
        import layers

        return layers.doc_dedup(tr, summary["final_dir"], os.path.join(self.out, "scored"))


class TablesAnalyze(Workload):
    """The reference tool's own use: the default validator set with
    discovered FKs over ``lineitem`` and ``orders``."""

    name = "tables_analyze"
    tables = ("lineitem", "orders")

    def __init__(self, work: str, seed: int) -> None:
        self.inp = inputs.tables(inputs.cache_root(work), seed)
        self.ref = inputs.read_json(os.path.join(self.inp, "reference.json"))
        self.dir = os.path.join(self.inp, "tables")
        self.rows = sum(self.ref[t]["rows"] for t in self.tables)

    def engines(self) -> dict:
        """table -> (dataset, engine) with discovered FK relations."""
        import ray.data as rd

        from rayquality import engine

        path = lambda t: os.path.join(self.dir, f"{t}.parquet")  # noqa: E731
        rels = engine.discover_relations(self.dir)
        out = {}
        for t in self.tables:
            r = [(c, rd.read_parquet(path(p)), pc) for c, p, pc in rels.get(t, [])]
            out[t] = (rd.read_parquet(path(t)), engine.default_engine(relations=r))
        return out

    def warm_up(self) -> None:
        self.call()

    def call(self) -> dict:
        return {t: eng.validate_data(ds, t) for t, (ds, eng) in self.engines().items()}

    def call_traced(self, tr) -> dict:
        """``validate_data`` with each registered validator wrapped in a
        span, so the engine's own loop and error isolation still run."""
        out = {}
        for t, (ds, eng) in self.engines().items():
            for name, validator in list(eng.validators.items()):
                eng.register_validator(name, SpannedValidator(tr, f"engine.{name}", validator))
            with tr.span("engine.validate_data"):
                out[t] = eng.validate_data(ds, t)
        return out

    def layers(self, tr, results: dict, started: float) -> dict:
        """Seconds per validator in this traced call, summed over tables."""
        return {
            f"engine.{name}_s": sum(
                s["end"] - s["start"] for s in tr.spans if s["trace"] == tr.trace and s["name"] == f"engine.{name}"
            )
            for name in ("completeness", "duplicates", "patterns", "integrity")
        }

    def check(self, results: dict) -> list[str]:
        errs = []
        for t, res in results.items():
            ref = self.ref[t]
            seen = {"completeness": 0, "duplicates": 0, "integrity": 0, "patterns": 0}
            for r in res:
                if r.rule_name.endswith("_error"):
                    errs.append(f"{t}: {r.message}")
                    continue
                expect = {
                    "completeness": ref["nulls"],
                    "duplicates": ref["duplicates"],
                    "integrity": ref.get("orphans", {}),
                }.get(r.validator, {}).get(r.column_name)
                seen[r.validator] += 1
                if expect is None or r.affected_rows != expect or r.total_rows != ref["rows"]:
                    errs.append(
                        f"{t}.{r.rule_name}: affected {r.affected_rows}/{r.total_rows}, "
                        f"reference {expect}/{ref['rows']}"
                    )
            # no TPC-H column name maps to a pattern type, so the patterns
            # validator only triages the string columns and returns nothing
            want = {
                "completeness": len(ref["nulls"]),
                "integrity": len(ref.get("orphans", {})),
                "patterns": 0,
            }
            for v, n in want.items():
                if seen[v] != n:
                    errs.append(f"{t}: {seen[v]} {v} results, expected {n}")
            if not seen["duplicates"]:
                errs.append(f"{t}: no duplicates results")
        return errs


class SpannedValidator:
    """A registered validator whose ``validate`` runs inside a span."""

    def __init__(self, tr, span: str, validator) -> None:
        self.tr, self.span, self.validator = tr, span, validator

    def validate(self, ds, table_name: str) -> list:
        with self.tr.span(self.span):
            return self.validator.validate(ds, table_name)


WORKLOADS = {w.name: w for w in (ImagesFull, DocsFilter, TablesAnalyze)}

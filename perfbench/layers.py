"""Traced run: spans around calls into each layer, and the per-layer table.

Spans are recorded by the benchmark around public calls (name, start, end,
parent), kept in memory and written to the artifact at the end. Per-layer
metrics come from three sources:

- fixed probes, identical on every workload: the stage-A kernels and the
  document scorer on one 2048-row batch of the seed's inputs, Ray Data's
  per-batch and per-Dataset floors, and the single-process ``oracle.label``
  baseline over the seed's image corpus;
- the traced workload call: pipeline phases and wave counts from its
  summary, bytes its sinks wrote, and engine time per validator;
- follow-up calls on the call's output: near-dup pair generation and union
  find for images, MinHash LSH for documents.

A layer the workload does not enter reports 0.
"""

from __future__ import annotations

import glob
import itertools
import os
import time
from contextlib import contextmanager

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

BATCH_ROWS = 2048
PROBE_REPS = 3  # each fixed probe reports the median of this many repetitions
IDENTITY_BLOCKS = 16

# name -> (unit, better); order is the order of the per-layer table
METRICS = {
    "scoring.score_batch_ms": ("ms", "lower"),
    "codecs.decode_raw_ms": ("ms", "lower"),
    "codecs.decode_ppm_ms": ("ms", "lower"),
    "codecs.decode_png_ms": ("ms", "lower"),
    "codecs.decode_lossy_ms": ("ms", "lower"),
    "phash.phash64_ms": ("ms", "lower"),
    "scrub.scrub_series_ms": ("ms", "lower"),
    "heuristics.char_stats_ms": ("ms", "lower"),
    "heuristics.word_stats_ms": ("ms", "lower"),
    "langid.predict_ms": ("ms", "lower"),
    "perplexity.perplexity_ms": ("ms", "lower"),
    "scoring.images_decoded": ("count", "higher"),
    "scoring.decode_errors": ("count", "lower"),
    "textpipe.doc_score_batch_ms": ("ms", "lower"),
    "ray_data.identity_batch_ms": ("ms", "lower"),
    "ray_data.tiny_dataset_ms": ("ms", "lower"),
    "pipeline.stage_a_s": ("s", "lower"),
    "pipeline.exact_dedup_s": ("s", "lower"),
    "pipeline.near_dedup_s": ("s", "lower"),
    "pipeline.finalize_s": ("s", "lower"),
    "pipeline.waves_scored": ("count", "lower"),
    "pipeline.waves_skipped": ("count", "higher"),
    "dedup.near_pairs_ms": ("ms", "lower"),
    "dedup.component_losers_ms": ("ms", "lower"),
    "dedup.candidate_pairs": ("count", "lower"),
    "dedup.verified_pairs": ("count", "higher"),
    "dedup.verify_yield": ("ratio", "higher"),
    "sink.bytes_written_mb": ("MB", "lower"),
    "sink.write_amp": ("ratio", "lower"),
    "textdedup.minhash_lsh_pairs_s": ("s", "lower"),
    "textdedup.candidate_pairs": ("count", "lower"),
    "textdedup.verified_pairs": ("count", "higher"),
    "engine.completeness_s": ("s", "lower"),
    "engine.duplicates_s": ("s", "lower"),
    "engine.patterns_s": ("s", "lower"),
    "engine.integrity_s": ("s", "lower"),
    "baseline.oracle_rows_per_s": ("1/s", "higher"),
    "trace.overhead_ms": ("ms", "lower"),
}


class Tracer:
    """In-memory span recorder. Spans opened inside another span record it
    as their parent; all spans of one traced iteration share ``trace``."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._ids = itertools.count()
        self.trace: str | None = None
        self.t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        sid = next(self._ids)
        rec = {
            "id": sid,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "trace": self.trace,
            "start": time.perf_counter() - self.t0,
        }
        self._stack.append(sid)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter() - self.t0
            self.spans.append(rec)

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def median_s(self, name: str) -> float:
        d = self.durations(name)
        return float(np.median(d)) if d else 0.0


def _timed(tr: Tracer, name: str, fn, *args):
    """Run ``fn`` PROBE_REPS times in spans named ``name``; return the last result."""
    out = None
    for _ in range(PROBE_REPS):
        with tr.span(name):
            out = fn(*args)
    return out


# ---- fixed probes -----------------------------------------------------------


def image_batch(corpus_dir: str) -> pa.Table:
    files = sorted(glob.glob(os.path.join(corpus_dir, "*.parquet")))
    tbl = pa.concat_tables(pq.read_table(f) for f in files)
    return tbl.slice(0, BATCH_ROWS).combine_chunks()


def probe_kernels(tr: Tracer, batch: pa.Table) -> dict:
    """Stage-A kernels on one batch, each timed over the rows the fused
    scorer hands it (decode and phash per row, as in ``score_batch``)."""
    from rayquality import codecs, phash, scoring
    from rayquality.config import QualityConfig
    from rayquality.models import langid, perplexity
    from rayquality.rules import heuristics
    from rayquality.scrub import scrub_series

    import pandas as pd

    cfg = QualityConfig()
    lm, pm = langid.get_model(), perplexity.get_model()
    _timed(tr, "scoring.score_batch", scoring.score_batch, batch, cfg, lm, pm)

    caps = batch["caption"].to_pylist()
    texts = [c if c is not None and c.strip() else "" for c in caps]
    active = pd.Series([c for c in caps if c is not None and c.strip()], dtype="object")
    _timed(tr, "heuristics.char_stats", heuristics.char_stats, texts)
    _timed(tr, "heuristics.word_stats", heuristics.word_stats, texts)
    _timed(tr, "langid.predict", lm.predict, texts)
    _timed(tr, "perplexity.perplexity", pm.perplexity, texts)
    _timed(tr, "scrub.scrub_series", scrub_series, active)

    blobs = batch["bytes"].to_pylist()
    fmts = batch["fmt"].to_pylist()
    by_fmt = {f: [b for b, g in zip(blobs, fmts) if g == f] for f in codecs.FORMATS}

    def decode_all(fmt: str) -> tuple[list, int]:
        imgs, errors = [], 0
        for b in by_fmt[fmt]:
            try:
                imgs.append(codecs.decode(b, fmt))
            except codecs.CodecError:
                errors += 1
        return imgs, errors

    decoded, errors, lossless = 0, 0, []
    for fmt in codecs.FORMATS:
        imgs, err = _timed(tr, f"codecs.decode_{fmt}", decode_all, fmt)
        decoded += len(imgs)
        errors += err
        if fmt in codecs.LOSSLESS:
            lossless += imgs
    _timed(tr, "phash.phash64", lambda: [phash.phash64(im) for im in lossless])
    return {"scoring.images_decoded": decoded, "scoring.decode_errors": errors}


def probe_doc_scorer(tr: Tracer, docs_dir: str) -> None:
    """The document pipeline's fused scorer on one batch, in-process."""
    from rayquality import textpipe

    files = sorted(glob.glob(os.path.join(docs_dir, "*.parquet")))
    batch = pa.concat_tables(pq.read_table(f) for f in files).slice(0, BATCH_ROWS)
    scorer = textpipe._DocScorer()
    _timed(tr, "textpipe.doc_score_batch", scorer, batch)


def probe_ray_data(tr: Tracer, batch: pa.Table) -> dict:
    """Identity ``map_batches`` (pyarrow) per 2048-row batch, as the
    marginal cost of 16 blocks over 1, and one trivial Dataset end to end."""
    import ray.data as rd

    skinny = batch.drop_columns(["bytes"])

    def identity(t: pa.Table) -> pa.Table:
        return t

    def run(n_blocks: int) -> None:
        ds = rd.from_arrow([skinny] * n_blocks)
        ds.map_batches(identity, batch_format="pyarrow", batch_size=BATCH_ROWS).materialize()

    _timed(tr, "ray_data.tiny_dataset", run, 1)
    _timed(tr, "ray_data.identity_blocks", run, IDENTITY_BLOCKS)
    per_batch = (tr.median_s("ray_data.identity_blocks") - tr.median_s("ray_data.tiny_dataset")) / (
        IDENTITY_BLOCKS - 1
    )
    return {"ray_data.identity_batch_ms": per_batch * 1e3}


def probe_oracle(tr: Tracer, corpus_dir: str) -> dict:
    """The single-process baseline: ``oracle.label`` over the whole image
    corpus, in this process, after the kernel probes built its models."""
    from rayquality import oracle

    files = sorted(glob.glob(os.path.join(corpus_dir, "*.parquet")))
    tbl = pa.concat_tables(pq.read_table(f) for f in files)
    _timed(tr, "oracle.label", oracle.label, tbl)
    return {"baseline.oracle_rows_per_s": tbl.num_rows / tr.median_s("oracle.label")}


# ---- follow-up calls on a workload's output ---------------------------------


def image_dedup(tr: Tracer, final_dir: str) -> dict:
    """Near-dup pair generation and union-find over the exact-dedup winners
    of a finished run (rows whose only possible reason is near_dup)."""
    from rayquality import dedup
    from rayquality.config import QualityConfig
    from rayquality.phash import band_keys

    cfg = QualityConfig()
    t = pa.concat_tables(
        pq.read_table(f, columns=["image_id", "phash", "drop_reasons"])
        for f in sorted(glob.glob(os.path.join(final_dir, "*.parquet")))
    )
    reasons = t["drop_reasons"].to_pylist()
    cand = np.array([not r or r == ["near_dup"] for r in reasons])
    phs = t["phash"].to_numpy()[cand].astype(np.int64)
    ids = np.asarray(t["image_id"].to_pylist(), dtype=object)[cand]
    with tr.span("dedup.near_pairs"):
        pairs = dedup.near_pairs_banded(phs, ids, cfg.near_dup_max_hamming, cfg.near_dup_bands)
    with tr.span("dedup.component_losers"):
        dedup.component_losers(pairs)
    keys = band_keys(phs, cfg.near_dup_bands)
    cand_pairs, verified = 0, 0
    for b in range(cfg.near_dup_bands):
        _, counts = np.unique(keys[:, b], return_counts=True)
        cand_pairs += int((counts * (counts - 1) // 2).sum())
        verified += len(dedup.band_pair_indices(phs, b, cfg.near_dup_bands, cfg.near_dup_max_hamming)[0])
    return {
        "dedup.candidate_pairs": cand_pairs,
        "dedup.verified_pairs": verified,
        "dedup.verify_yield": verified / cand_pairs if cand_pairs else 0.0,
    }


def doc_dedup(tr: Tracer, final_dir: str, scored_dir: str) -> dict:
    """MinHash LSH over the scrubbed texts of the exact-dedup winners of a
    finished run (as ``run_documents`` calls it), with the band-bucket
    candidate count computed from the same signatures."""
    import ray
    import ray.data as rd

    from rayquality.ops import textdedup

    final = pa.concat_tables(
        pq.read_table(f, columns=["doc_id", "drop_reasons"])
        for f in sorted(glob.glob(os.path.join(final_dir, "*.parquet")))
    )
    is_exact = np.array(["exact_dup" in r for r in final["drop_reasons"].to_pylist()])
    winners = final["doc_id"].filter(pa.array(~is_exact))
    docs = pa.concat_tables(
        pq.read_table(f, columns=["doc_id", "text"])
        for f in sorted(glob.glob(os.path.join(scored_dir, "wave-*", "*.parquet")))
    )
    docs = docs.filter(pc.is_in(docs["doc_id"], value_set=winners.combine_chunks()))
    ds = rd.from_arrow(docs)
    with tr.span("textdedup.minhash_lsh_pairs") as sp:
        pairs = textdedup.minhash_lsh_pairs(ds)
    refs = textdedup.minhash_signatures(ds).to_arrow_refs()
    sig = pa.concat_tables([t for t in ray.get(refs) if t.num_columns])
    mat = np.asarray(sig["sig"].combine_chunks().flatten()).reshape(sig.num_rows, -1)
    bands, rows = 16, mat.shape[1] // 16
    cand = 0
    for b in range(bands):
        _, counts = np.unique(mat[:, b * rows : (b + 1) * rows], axis=0, return_counts=True)
        cand += int((counts * (counts - 1) // 2).sum())
    return {
        "textdedup.minhash_lsh_pairs_s": sp["end"] - sp["start"],
        "textdedup.candidate_pairs": cand,
        "textdedup.verified_pairs": len(pairs),
    }

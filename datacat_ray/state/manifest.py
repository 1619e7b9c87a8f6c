"""Checkpointed, resumable partitioned extraction job (SURVEY.md §4, §7.1
step 8; north rule: "resumable from checkpoint with per-partition lineage +
metrics").

The reference has no checkpointing — a rerun reprocesses everything, and is
only incidentally idempotent because output is file-per-input
(``DatacatSegmenterParser.java:653-654, 825-826``). Here resumability is
explicit:

- **Partition** = a group of input parquet fragments (default one fragment
  per partition). Output: ``out_dir/part-<k>.parquet`` written
  write-temp-rename (atomic on POSIX) so a crash never leaves a torn part.
- **Manifest** = ``out_dir/_manifest/part-<k>.json``, written AFTER the
  data file rename, carrying the per-partition lineage record: input
  fragments, row counts in/out/rejected, output bytes + sha256, engine and
  model versions, wall time. Resume = anti-join pending partitions against
  completed manifest records before any work is scheduled.
- **Execution**: the per-partition unit runs as one Ray task (winner-
  filtered fragment read ``sources.ranked.read_fragment`` → fused cascade
  kernel → atomic write). Raw tasks rather than ``Dataset.write_parquet``
  because the Dataset writer cannot bind output files to input fragments,
  which is exactly the invariant resume needs. The dedup winner set is
  built once per job by ``stages/dedup.winner_probe`` over the same input
  listing (``list_fragments``) as the partitions.

At 10^12 documents the partition count is the input fragment count (CC-
style layouts: ~10^5-10^6 fragments); the manifest directory is a listing,
not a database — resume cost is one directory scan.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import time

import pyarrow as pa
import pyarrow.parquet as pq

import ray

from datacat_ray import __version__ as ENGINE_VERSION
from datacat_ray.config import MAX_IN_FLIGHT, PipelineConfig
from datacat_ray.stages.dedup import list_fragments, winner_probe

MANIFEST_DIR = "_manifest"


@functools.cache
def model_hash() -> str:
    """Stable digest of the three frozen CRF models, segmenter, body and
    lexical (lineage: which weights produced a partition; every part file
    carries all three levels' labels). The models are constants, so it is
    computed once per process."""
    from datacat_ray.stages.models import (
        BODY_MODEL,
        LEXICAL_MODEL,
        SEGMENTER_MODEL,
    )

    h = hashlib.sha256()
    for m in (SEGMENTER_MODEL, BODY_MODEL, LEXICAL_MODEL):
        h.update(repr((m.labels, m.templates, sorted(m.weights.items()),
                       sorted(m.transitions.items()), sorted(m.init.items()),
                       m.sticky)).encode())
    return h.hexdigest()[:16]


def completed_partitions(out_dir: str) -> dict[int, dict]:
    """Scan the manifest directory; return {partition_id: record} for every
    partition whose record says done (the record is only ever written after
    the data-file rename, so presence == data file is complete)."""
    mdir = os.path.join(out_dir, MANIFEST_DIR)
    done: dict[int, dict] = {}
    if not os.path.isdir(mdir):
        return done
    for f in os.listdir(mdir):
        if f.startswith("part-") and f.endswith(".json"):
            with open(os.path.join(mdir, f)) as fh:
                rec = json.load(fh)
            if rec.get("status") == "done":
                done[rec["partition"]] = rec
    return done


@ray.remote
def _extract_partition(
    part_id: int,
    fragments: list[str],
    first_rank: int,
    out_dir: str,
    winners: tuple | None,
    max_tokens: int,
    max_blocks: int,
    tei_coordinates: bool = False,
    model_paths: tuple = (),
    segment_sentences: bool = False,
) -> dict:
    """One checkpoint unit: fragments (ranks ``first_rank`` on) →
    winner-filtered read → fused cascade → atomic part file + lineage
    record. Runs as a plain Ray task; the fused stage object is cached per
    worker process (same cache as the Dataset path)."""
    from datacat_ray.pipelines.extract import _fused_task
    from datacat_ray.sources.ranked import read_fragment

    t0 = time.time()
    files = [pq.ParquetFile(f) for f in fragments]
    rows_in = sum(pf.metadata.num_rows for pf in files)
    batch = pa.concat_tables(
        [t for rank, pf in enumerate(files, first_rank)
         for t in read_fragment(pf, rank, winners)]
        or [files[0].schema_arrow.empty_table()])
    result = _fused_task(batch, max_tokens=max_tokens, max_blocks=max_blocks,
                         tei_coordinates=tei_coordinates,
                         model_paths=model_paths,
                         segment_sentences=segment_sentences)
    rejected = sum(1 for e in result["error"].to_pylist() if e)

    data_name = f"part-{part_id:05d}.parquet"
    tmp = os.path.join(out_dir, f".tmp.{data_name}.{os.getpid()}")
    final = os.path.join(out_dir, data_name)
    pq.write_table(result, tmp)
    os.replace(tmp, final)  # atomic publish
    with open(final, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()[:16]

    rec = {
        "partition": part_id,
        "status": "done",
        "inputs": fragments,
        "rows_in": rows_in,
        "rows_out": result.num_rows,
        "rows_rejected": rejected,
        "output": data_name,
        "output_bytes": os.path.getsize(final),
        "output_sha256_16": digest,
        "engine_version": ENGINE_VERSION,
        "model_hash": model_hash(),
        "wall_sec": round(time.time() - t0, 3),
        "finished_unix": time.time(),
    }
    mdir = os.path.join(out_dir, MANIFEST_DIR)
    os.makedirs(mdir, exist_ok=True)
    mtmp = os.path.join(mdir, f".tmp.part-{part_id:05d}.json.{os.getpid()}")
    with open(mtmp, "w") as fh:
        json.dump(rec, fh, indent=1)
    os.replace(mtmp, os.path.join(mdir, f"part-{part_id:05d}.json"))
    return rec


def _check_job_config(out_dir: str, tei_coordinates: bool,
                      model_paths: dict | None,
                      segment_sentences: bool = False,
                      max_tokens: int = PipelineConfig.max_tokens,
                      max_blocks: int = PipelineConfig.max_blocks) -> None:
    """Bind the output directory to its extraction-config identity.

    Completed partitions are keyed only by partition id, so resuming with
    a DIFFERENT config (other model artifact, toggled coordinates, other
    caps — they change output through the ``TOO_MANY_*`` rejects) would
    silently mix outputs from two configs in one dataset. First run writes
    ``_manifest/_JOB_CONFIG.json`` (model artifacts fingerprinted by
    content, not path); later runs must match or fail with instructions.
    """
    import hashlib as _hl

    fps = {}
    for name, path in sorted((model_paths or {}).items()):
        with open(path, "rb") as fh:
            fps[name] = _hl.sha256(fh.read()).hexdigest()[:16]
    cfg = {"tei_coordinates": bool(tei_coordinates), "model_sha": fps}
    if segment_sentences:
        # only stamped when ON: pre-flag manifests stay resumable
        cfg["segment_sentences"] = True
    for name, v in (("max_tokens", max_tokens), ("max_blocks", max_blocks)):
        if v != getattr(PipelineConfig, name):
            # only stamped off the default: pre-cap manifests stay resumable
            cfg[name] = v
    mdir = os.path.join(out_dir, MANIFEST_DIR)
    os.makedirs(mdir, exist_ok=True)
    cfg_path = os.path.join(mdir, "_JOB_CONFIG.json")
    if os.path.exists(cfg_path):
        with open(cfg_path, encoding="utf-8") as fh:
            prev = json.load(fh)
        if prev != cfg:
            raise ValueError(
                f"output dir {out_dir} was produced with a different "
                f"extraction config ({prev} != {cfg}); use a fresh output "
                "directory, or delete it to rebuild from scratch"
            )
        return
    tmp = os.path.join(mdir, f".tmp._JOB_CONFIG.{os.getpid()}")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    os.replace(tmp, cfg_path)


def run_extract_job(
    input_path: str,
    out_dir: str,
    fragments_per_part: int = 1,
    max_tokens: int = PipelineConfig.max_tokens,
    max_blocks: int = PipelineConfig.max_blocks,
    dedup: bool = True,
    tei_coordinates: bool = False,
    model_paths: dict | None = None,
    segment_sentences: bool = False,
) -> dict:
    """Checkpointed flagship run over parquet input (a directory, a file or
    a list: its ``list_fragments`` listing). Safe to re-invoke after a
    crash: completed partitions are skipped via the manifest (outputs
    byte-identical to a single uninterrupted run — the per-partition kernel
    is deterministic, and partition boundaries and fragment ranks are fixed
    by the input listing).

    Returns a job summary {partitions_total, skipped, processed, rows_out,
    rejected, wall_sec}."""
    t0 = time.time()
    os.makedirs(out_dir, exist_ok=True)
    # clear torn tmp files from a previous crash (rename never happened, so
    # their partitions are not in the manifest and will be reprocessed)
    for d in (out_dir, os.path.join(out_dir, MANIFEST_DIR)):
        if os.path.isdir(d):
            for f in os.listdir(d):
                if f.startswith(".tmp."):
                    os.unlink(os.path.join(d, f))
    _check_job_config(out_dir, tei_coordinates, model_paths,
                      segment_sentences, max_tokens, max_blocks)
    fragments = list_fragments(input_path)
    # partition k holds the fragments ranked k * fragments_per_part on
    parts = [fragments[i:i + fragments_per_part]
             for i in range(0, len(fragments), fragments_per_part)]
    done = completed_partitions(out_dir)

    pending = [
        (i, frs) for i, frs in enumerate(parts) if i not in done
    ]
    winners = None
    if dedup and pending:
        # a bucketed winner set lives under the job's own output dir
        # (resumable — its success marker skips the rebuild)
        winners = winner_probe(fragments, os.path.join(out_dir, "_winners"))
    recs = list(done.values())
    in_flight: list = []
    for part_id, frs in pending:
        if len(in_flight) >= MAX_IN_FLIGHT:
            ready, in_flight = ray.wait(in_flight, num_returns=1)
            recs.extend(ray.get(ready))
        in_flight.append(
            _extract_partition.remote(
                part_id, frs, part_id * fragments_per_part, out_dir, winners,
                max_tokens, max_blocks,
                tei_coordinates, tuple(sorted((model_paths or {}).items())),
                segment_sentences,
            )
        )
    recs.extend(ray.get(in_flight))
    return {
        "partitions_total": len(parts),
        "skipped": len(done),
        "processed": len(pending),
        "rows_out": sum(r["rows_out"] for r in recs),
        "rows_rejected": sum(r["rows_rejected"] for r in recs),
        "wall_sec": round(time.time() - t0, 3),
        "out_dir": out_dir,
    }

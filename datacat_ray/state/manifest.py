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
- **Execution**: a Ray task runs a *run* of consecutive pending
  partitions (``sources.ranked._runs``): a run closes once it holds
  ``PipelineConfig().segmenter.batch_size`` rows (``winner_rows``: its
  partitions' winners when the winner set is the driver's, else their
  input rows by the parquet footers), and there are never fewer runs than
  ``min(pending partitions, cluster CPUs)``. Inside the task
  (``_run_partitions``) the winner-filtered rows of its partitions
  (``sources.ranked.read_fragment``) stream through the fused cascade
  kernel in slices of at most ``batch_size`` rows, a slice crossing
  partition boundaries where it falls, so small partitions share one
  lockstep batch and a large one is sliced. Each partition is
  published as soon as its last row is out of the kernel (``_publish``:
  one part file, temp-rename, then its record), so its bytes do not
  depend on the run cut. Raw tasks rather than ``Dataset.write_parquet``
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
from datacat_ray.sources.ranked import _runs, read_fragment, winner_rows
from datacat_ray.stages.dedup import (
    fragment_rows,
    list_fragments,
    winner_probe,
)

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


def _publish(out_dir: str, part_id: int, fragments: list[str], rows_in: int,
             pieces: list[pa.Table], t0: float) -> dict:
    """Publish one partition: its result rows (``pieces``, in input order)
    as one part file, written to a tmp name and renamed (atomic on POSIX),
    then its lineage record, written the same way. ``t0`` is when the
    run's previous publication finished (the run's start for its first)."""
    from datacat_ray.pipelines.extract import RESULT_SCHEMA

    # one chunk per column, as one kernel call gives: the part file's bytes
    # do not depend on where the run's slices fell
    result = (pa.concat_tables(pieces).combine_chunks() if pieces
              else RESULT_SCHEMA.empty_table())
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
        "rows_rejected": sum(1 for e in result["error"].to_pylist() if e),
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


def _run_partitions(run: list[tuple], out_dir: str, winners: tuple | None,
                    stage: dict) -> list[dict]:
    """One Ray task: a run of consecutive pending partitions, each
    (partition id, fragments, rank of its first fragment, input rows).
    Their winner-filtered rows stream through the fused kernel
    (``_fused_task`` with the ``stage`` arguments) in slices of at most
    ``PipelineConfig().segmenter.batch_size`` rows, a slice crossing
    partition boundaries where it falls, so a partition larger than the
    width is sliced and small ones share a lockstep batch. Partitions are
    published in run order (``_publish``), each as soon as its last row is
    out of the kernel. The fused stage is cached per worker process (the
    Dataset path's cache)."""
    from datacat_ray.pipelines.extract import _fused_task

    width = PipelineConfig().segmenter.batch_size
    buf: list[tuple[int, pa.Table]] = []  # (index in run, rows) not yet run
    waiting = [0] * len(run)  # rows of each partition in ``buf``
    pieces: list[list[pa.Table]] = [[] for _ in run]
    recs: list[dict] = []
    t0 = time.time()

    def kernel(n: int) -> None:
        """The fused kernel over the first ``n`` buffered rows."""
        take = []
        while n:
            k, t = buf[0]
            if t.num_rows > n:
                buf[0] = (k, t.slice(n))
                t = t.slice(0, n)
            else:
                buf.pop(0)
            take.append((k, t))
            n -= t.num_rows
        result = _fused_task(pa.concat_tables([t for _, t in take]), **stage)
        at = 0
        for k, t in take:
            pieces[k].append(result.slice(at, t.num_rows))
            waiting[k] -= t.num_rows
            at += t.num_rows

    def publish(read: int) -> None:
        """Publish, in order, the first ``read`` partitions whose rows are
        all out."""
        nonlocal t0
        while len(recs) < read and not waiting[len(recs)]:
            k = len(recs)
            part_id, fragments, _, rows_in = run[k]
            recs.append(_publish(out_dir, part_id, fragments, rows_in,
                                 pieces[k], t0))
            pieces[k] = []
            t0 = time.time()

    for k, (_, fragments, first_rank, _) in enumerate(run):
        for rank, f in enumerate(fragments, first_rank):
            for t in read_fragment(pq.ParquetFile(f), rank, winners):
                if t.num_rows:
                    buf.append((k, t))
                    waiting[k] += t.num_rows
                    while sum(waiting) >= width:
                        kernel(width)
                        publish(k)
        publish(k + 1)
    if buf:
        kernel(sum(waiting))
    publish(len(run))
    return recs


_run_task = ray.remote(_run_partitions)


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
    byte-identical to a single uninterrupted run — the kernel is
    deterministic per document, whatever slice a document falls in, and
    partition boundaries and fragment ranks are fixed by the input
    listing).

    Returns a job summary {partitions_total, skipped, processed, runs
    (Ray tasks), rows_out, rows_rejected, wall_sec, out_dir}."""
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
    rows = fragment_rows(fragments)
    # partition k holds the fragments ranked k * fragments_per_part on
    parts = [(k, fragments[i:i + fragments_per_part], i,
              sum(rows[i:i + fragments_per_part]))
             for k, i in enumerate(range(0, len(fragments),
                                         fragments_per_part))]
    done = completed_partitions(out_dir)
    pending = [p for p in parts if p[0] not in done]
    winners = None
    if dedup and pending:
        # a bucketed winner set lives under the job's own output dir
        # (resumable — its success marker skips the rebuild)
        winners = winner_probe(fragments, os.path.join(out_dir, "_winners"),
                               rows)
    runs = []
    if pending:
        if not ray.is_initialized():
            ray.init()  # as a first task submission would
        sizes = winner_rows(winners, rows)
        runs = _runs([sum(sizes[p[2]:p[2] + len(p[1])]) for p in pending],
                     PipelineConfig().segmenter.batch_size,
                     min(len(pending), int(ray.cluster_resources()["CPU"])))
    stage = {"max_tokens": max_tokens, "max_blocks": max_blocks,
             "tei_coordinates": tei_coordinates,
             "model_paths": tuple(sorted((model_paths or {}).items())),
             "segment_sentences": segment_sentences}
    recs = list(done.values())
    in_flight: list = []
    for run in runs:
        if len(in_flight) >= MAX_IN_FLIGHT:
            ready, in_flight = ray.wait(in_flight, num_returns=1)
            recs.extend(r for rs in ray.get(ready) for r in rs)
        in_flight.append(_run_task.remote([pending[i] for i in run], out_dir,
                                          winners, stage))
    recs.extend(r for rs in ray.get(in_flight) for r in rs)
    return {
        "partitions_total": len(parts),
        "skipped": len(done),
        "processed": len(pending),
        "runs": len(runs),
        "rows_out": sum(r["rows_out"] for r in recs),
        "rows_rejected": sum(r["rows_rejected"] for r in recs),
        "wall_sec": round(time.time() - t0, 3),
        "out_dir": out_dir,
    }

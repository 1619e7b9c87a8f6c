"""Training-pair bootstrap export — the workflow a model-improvement user
actually runs against the reference (``createTrainingDatacatSegmentation``
/ ``batchCreateTrainingDatacatSegmentation``,
``EngineDatacat.java:166-330``; ``DatacatSegmenterParser.java:645-694``
writes the raw feature file, the batch commands pair it with a
pre-labeled TEI for human correction).

For every input page the exporter writes the PAIRED bootstrap files

  ``<stem>.training.datacat.tei.xml``  zone TEI pre-labeled by the CURRENT
                                       segmenter model (the file a human
                                       corrects, then drops into
                                       ``corpus/tei/``)
  ``<stem>.training.datacat``          the raw 33-field feature lines,
                                       unlabeled (``getAllLinesFeatured``
                                       analogue, ``corpus/raw/``)

with ``<stem>`` = the url's sha1-16 (the reference stems by input file
name; urls need the same collision-safe flattening — ``tei.doc_id``).
Suffixes match the reference's committed corpus layout
(``resources/dataset/datacat-segmenter/corpus/{tei,raw}``), so exported
pairs re-ingest through the SAME loaders the refeval pipeline uses on the
reference's own corpus.

The export runs on the extraction cascade's own batch phases, as the
reference's runs on its parsers: ``FusedExtractStage.segment`` (parse,
tokenize, segmenter CRF, zones) and, for a labeled body export,
``decode_entries`` (the body CRF over the ``<body>`` zones —
``createTrainingBodySegmentation``). The TEI comes from each document's
live state through the extraction's assemblers; the raw file serializes
the ``VOCAB`` codes of every field of the level, encoded once per batch
(for a labeled body export, in the body level's own encode).
Nothing is capped: every page exports. The export is fused into the
flagship's keep-latest run read (one pair per url, one operator); writes
are atomic (tmp + rename → idempotent re-runs), and only manifest
rows flow past the sink. A poison row gets its error in the manifest and
costs only itself. ``out_dir`` must be shared storage on a multi-node
cluster (same contract as every other file sink here).
"""

from __future__ import annotations

import os
import sys
from itertools import repeat

import pyarrow as pa

import ray.data

from datacat_ray.pipelines.extract import (
    FusedExtractStage,
    _batch,
    _phase,
    _split,
)
from datacat_ray.stages.dedup import dedup_latest_prefilter
from datacat_ray.stages.line_features import serialize_codes, serialize_lines
from datacat_ray.stages.tei import (
    body_tei,
    doc_id,
    lines_tei,
    segmenter_tei,
    tei_document,
    tokens_tei,
)
from datacat_ray.stages.token_features import (
    _TOKEN_FIELD_NAMES as _BODY_FIELD_NAMES,
    body_codes,
)

MANIFEST_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("stem", pa.string()),
        ("tei_path", pa.string()),
        ("raw_path", pa.string()),
        ("n_lines", pa.int64()),
        ("error", pa.string()),
    ]
)


def _write_atomic(path: str, content: str) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(content)
    os.replace(tmp, path)


class TrainingExportStage:
    """Write the TEI/raw training pair of every page of a batch, run on
    the phases of the ``FusedExtractStage`` it holds (decoders compiled
    once per instance): the segmenter level for every model, the body
    level too for a labeled body export. Returns one manifest row per
    input row."""

    def __init__(self, out_dir: str, model: str = "segmenter",
                 blank: bool = False) -> None:
        if model not in ("segmenter", "body"):
            raise ValueError(f"model must be segmenter|body, got {model!r}")
        self.model = model
        self.blank = blank
        # no caps: a page the extraction rejects as too large still
        # exports (the reference's training commands cap nothing)
        self.stage = FusedExtractStage(max_tokens=sys.maxsize,
                                       max_blocks=sys.maxsize)
        self.tei_dir = os.path.join(out_dir, "tei")
        self.raw_dir = os.path.join(out_dir, "raw")

    def _raw(self, ds: list) -> None:
        """Each document's raw-feature lines, as its ``result``: every
        line field for the segmenter, every body-token field over the
        ``<body>`` zones for the body model. A labeled body export runs
        this as the body level's emissions phase, so the level and the raw
        files share one encode."""
        if self.model == "segmenter":
            lines = [d.lines for d in ds]
            _split(ds, "result", serialize_lines(lines), list(map(len, lines)))
            return
        if self.blank:
            codes, _, counts = body_codes(
                [d.tokens for d in ds], [d.token_line for d in ds],
                [d.lines for d in ds], [d.body for d in ds],
                _BODY_FIELD_NAMES)
        else:
            codes, counts = self.stage._body_emissions(ds, _BODY_FIELD_NAMES)
        _split(ds, "result", serialize_codes(codes), counts)

    def _tei(self, d) -> str:
        """A document's TEI: labeled by the current models (the file a
        human corrects), or blank (text only, the createTrainingBlank*
        form tagged from scratch)."""
        if self.model == "segmenter":
            if self.blank:
                return tei_document(d.url, d.lang, lines_tei(d.lines.text))
            return segmenter_tei(d.url, d.lang, d.lines,
                                 self.stage.seg.base_labels, d.zone_lines)
        if self.blank:
            # the body token stream, untagged (createTrainingBlankBody:
            # "just write the text without any label")
            return tei_document(d.url, d.lang, "".join(
                tokens_tei(d.tokens, a, b) for a, b in d.body) + "\n")
        return body_tei(d.url, d.lang, d.tokens,
                        self.stage.body.base_labels, d.entries)

    def _write(self, d, _) -> None:
        """Write a document's pair; its ``result`` becomes (stem, TEI
        path, raw path, raw line count)."""
        stem = doc_id(d.url)
        name = (f"{stem}.training.bodySegmentation.datacat.text"
                if self.model == "body" else f"{stem}.training.datacat")
        tei_path = os.path.join(
            self.tei_dir, name + (".blank.tei.xml" if self.blank
                                  else ".tei.xml"))
        raw_path = os.path.join(self.raw_dir, name)
        _write_atomic(tei_path, self._tei(d))
        # the reference writes the serialized features plus one trailing
        # newline (DatacatSegmenterParser.java:692-694)
        _write_atomic(raw_path, "\n".join(d.result) + "\n")
        d.result = (stem, tei_path, raw_path, len(d.result))

    def __call__(self, batch: pa.Table) -> pa.Table:
        # per call, not per instance: a worker reuses its instance across
        # runs, and an output dir removed in between must come back
        os.makedirs(self.tei_dir, exist_ok=True)
        os.makedirs(self.raw_dir, exist_ok=True)
        urls = batch["url"].to_pylist()
        docs, out = self.stage.segment(
            urls, batch["lang"].to_pylist(), batch["html"].to_pylist(),
            batch["text"].to_pylist())
        if self.model == "body" and not self.blank:
            self.stage.decode_entries(docs, out, self._raw)
        else:
            _batch(docs, out, self._raw)
        _phase(docs, out, self._write, repeat(None))
        res: dict[str, list] = {k: [] for k in MANIFEST_SCHEMA.names}
        for i, url in enumerate(urls):
            d = docs.get(i)
            stem, tei_path, raw_path, n_lines = (
                d.result if d else (doc_id(url), "", "", 0))
            res["url"].append(url)
            res["stem"].append(stem)
            res["tei_path"].append(tei_path)
            res["raw_path"].append(raw_path)
            res["n_lines"].append(n_lines)
            res["error"].append(None if d else out[i][-1])
        return pa.Table.from_pydict(res, schema=MANIFEST_SCHEMA)


_EXPORT_STAGE_CACHE: dict[tuple, TrainingExportStage] = {}


def _export_task(batch: pa.Table, out_dir: str, model: str,
                 blank: bool) -> pa.Table:
    """``TrainingExportStage`` as a plain Ray task with a per-worker-process
    stage cache (the ``extract._fused_task`` shape): the decoders compile
    once per worker, and tasks schedule onto every free core with no pool
    to create or ramp."""
    key = (out_dir, model, blank)
    st = _EXPORT_STAGE_CACHE.get(key)
    if st is None:
        _EXPORT_STAGE_CACHE.clear()
        st = _EXPORT_STAGE_CACHE[key] = TrainingExportStage(
            out_dir, model, blank)
    return st(batch)


def create_training_pairs(
    pages_path,
    out_dir: str,
    model: str = "segmenter",
    blank: bool = False,
) -> "ray.data.Dataset":
    """Manifest Dataset over the exported pairs of the parquet pages at
    ``pages_path`` (a directory, a file or a list of them), which carry
    (url, warc_ts, lang, html, text) — the flagship input schema. The pages
    are read through the flagship's keep-latest
    (``dedup.dedup_latest_prefilter``), so each url exports exactly one
    pair, from its latest capture, a ``warc_ts`` tie going to the later
    input position."""
    import functools

    pages = dedup_latest_prefilter(
        pages_path, columns=["url", "lang", "html", "text"])
    return pages.map_batches(
        functools.partial(_export_task, out_dir=out_dir, model=model,
                          blank=blank),
        batch_format="pyarrow", batch_size=None,
    )


def load_exported_pairs(out_dir: str) -> list[dict]:
    """Re-ingest exported pairs through the SAME tolerant alignment the
    trainer uses (``pipelines/training.align_labels``): returns one dict
    per doc with (stem, n_lines, n_invalid, aligned [(token, label)]).
    The round-trip contract — export then re-ingest with zero invalid
    alignments — is the test that the two files describe the same lines."""
    import os

    from datacat_ray.pipelines.training import align_labels
    from datacat_ray.stages.tei import parse_segmenter_tei

    tei_dir = os.path.join(out_dir, "tei")
    raw_dir = os.path.join(out_dir, "raw")
    out: list[dict] = []
    for name in sorted(os.listdir(tei_dir)):
        if not name.endswith(".training.datacat.tei.xml"):
            continue
        stem = name[: -len(".training.datacat.tei.xml")]
        raw_path = os.path.join(raw_dir, f"{stem}.training.datacat")
        if not os.path.exists(raw_path):
            continue
        with open(os.path.join(tei_dir, name), encoding="utf-8") as fh:
            tei_pairs = parse_segmenter_tei(fh.read())
        labeled = [(line.split(" ")[0], lb) for line, lb in tei_pairs]
        first_toks = []
        with open(raw_path, encoding="utf-8") as fh:
            for ln in fh:
                cols = ln.strip().split(" ")
                if len(cols) >= 33:
                    first_toks.append(cols[0])
        res = align_labels(first_toks, labeled)
        if res is None:
            out.append({"stem": stem, "n_lines": len(first_toks),
                        "n_invalid": -1, "aligned": []})
            continue
        aligned, n_invalid = res
        out.append({"stem": stem, "n_lines": len(first_toks),
                    "n_invalid": n_invalid, "aligned": aligned})
    return out

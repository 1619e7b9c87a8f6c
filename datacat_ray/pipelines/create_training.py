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

Scale shape: the flagship's keep-latest read (one pair per url), then
one ``map_batches`` stage of plain Ray tasks (decoders
compiled once per worker process), file writes atomic (tmp + rename →
idempotent re-runs), manifest rows returned instead of payloads so nothing
document-sized flows past the sink. ``out_dir`` must be shared storage on
a multi-node cluster (same contract as every other file sink here).
"""

from __future__ import annotations

import pyarrow as pa

import ray.data

from datacat_ray.stages.crf import CRFDecoder, with_begin_prefix
from datacat_ray.stages.dedup import dedup_latest_prefilter
from datacat_ray.stages.dom import blocks_from_plain_text, parse_main_blocks
from datacat_ray.stages.line_features import (
    _FIELD_NAMES as _LINE_FIELD_NAMES,
    line_columns,
    serialize_columns,
)
from datacat_ray.stages.models import BODY_MODEL, SEGMENTER_MODEL
from datacat_ray.stages.tei import (
    _TEI_HEADER,
    assemble_body_tei,
    assemble_segmenter_tei,
    body_label_runs,
    doc_id,
    html_encode,
    lines_tei,
)
from datacat_ray.stages.token_features import (
    _TOKEN_FIELD_NAMES as _BODY_FIELD_NAMES,
    body_token_columns,
)
from datacat_ray.stages.tokenizer import tokenize_document
from datacat_ray.stages.zones import decode_zones, zone_token_indices

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


class TrainingExportStage:
    """DOM parse → tokenize → featurize → segmenter decode → write the
    TEI/raw pair. Decoders compiled once per instance (``__init__``)."""

    def __init__(self, out_dir: str, model: str = "segmenter",
                 blank: bool = False) -> None:
        import os

        if model not in ("segmenter", "body"):
            raise ValueError(f"model must be segmenter|body, got {model!r}")
        self.model = model
        self.blank = blank
        self.seg = CRFDecoder(SEGMENTER_MODEL)
        # the body variant runs the cascade's first level first (the
        # reference's createTrainingBodySegmentation does the same:
        # segmenter -> BODY zones -> body featurizer)
        self.body = CRFDecoder(BODY_MODEL) if model == "body" else None
        self.tei_dir = os.path.join(out_dir, "tei")
        self.raw_dir = os.path.join(out_dir, "raw")

    def _write_atomic(self, path: str, content: str) -> None:
        import os

        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(content)
        os.replace(tmp, path)

    def _blank_segmenter_tei(self, url, lang, lines) -> str:
        """Text-only TEI (no zone tags) — the createTrainingBlank form a
        user tags from scratch for a brand-new model."""
        return (
            _TEI_HEADER
            + "\t<teiHeader>\n"
            + f'\t\t<fileDesc xml:id="{doc_id(url)}"/>\n'
            + "\t</teiHeader>\n"
            + f'\t<text xml:lang="{html_encode(lang or "fr")}">\n'
            + lines_tei(lines.text)
            + "\t</text>\n</tei>\n"
        )

    def _blank_body_tei(self, url, lang, tokens, body_ranges) -> str:
        """Body token stream HTML-encoded, untagged (createTrainingBlankBody
        semantics: 'just write the text without any label')."""
        buf: list[str] = []
        for a, b in body_ranges:
            for t in range(a, b):
                tok = tokens[t]
                buf.append("<lb/>\n" if tok in ("\n", "\r", "\r\n")
                           else html_encode(tok))
        return (
            _TEI_HEADER
            + "\t<teiHeader>\n"
            + f'\t\t<fileDesc xml:id="{doc_id(url)}"/>\n'
            + "\t</teiHeader>\n"
            + f'\t<text xml:lang="{html_encode(lang or "fr")}">\n'
            + "".join(buf)
            + "\n\t</text>\n</tei>\n"
        )

    def _one(self, url, lang, html, text) -> tuple[str, str, str, int]:
        import os

        if html is not None:
            blocks = parse_main_blocks(html.decode("utf-8", errors="replace"))
        else:
            blocks = blocks_from_plain_text(text or "")
        lines, tokens, token_line = tokenize_document(blocks)
        # the raw corpus of the segmenter model is every line field; the
        # body model's only needs the segmenter's own fields to route
        cols = line_columns(lines, self.seg.fields if self.model == "body"
                            else _LINE_FIELD_NAMES)
        line_labels = with_begin_prefix(
            self.seg.decode_columns(cols, len(lines)))
        stem = doc_id(url)

        if self.model == "body":
            # first cascade level routes to the BODY zones, exactly like
            # the flagship (createTrainingBodySegmentation flow)
            zones = decode_zones(line_labels, token_line, len(tokens))
            body_ranges = zone_token_indices(zones, "<body>")
            bcols, idx = body_token_columns(
                tokens, token_line, lines, body_ranges, _BODY_FIELD_NAMES
            )
            suffix = ".training.bodySegmentation.datacat.text"
            raw_path = os.path.join(self.raw_dir, f"{stem}{suffix}")
            if self.blank:
                tei_path = os.path.join(
                    self.tei_dir, f"{stem}{suffix}.blank.tei.xml")
                tei = self._blank_body_tei(url, lang, tokens, body_ranges)
            else:
                tei_path = os.path.join(
                    self.tei_dir, f"{stem}{suffix}.tei.xml")
                entries = body_label_runs(
                    self.body.decode_columns(bcols, len(idx)), idx)
                tei = assemble_body_tei(url, lang, tokens, entries)
            self._write_atomic(tei_path, tei)
            self._write_atomic(
                raw_path,
                "\n".join(serialize_columns(bcols)) + "\n",
            )
            return stem, tei_path, raw_path, len(idx)

        if self.blank:
            tei_path = os.path.join(
                self.tei_dir, f"{stem}.training.datacat.blank.tei.xml")
            tei = self._blank_segmenter_tei(url, lang, lines)
        else:
            tei_path = os.path.join(
                self.tei_dir, f"{stem}.training.datacat.tei.xml")
            tei = assemble_segmenter_tei(url, lang, lines, line_labels)
        raw_path = os.path.join(self.raw_dir, f"{stem}.training.datacat")
        self._write_atomic(tei_path, tei)
        # the reference writes the serialized features plus one trailing
        # newline (DatacatSegmenterParser.java:692-694)
        self._write_atomic(
            raw_path,
            "\n".join(serialize_columns(cols)) + "\n",
        )
        return stem, tei_path, raw_path, len(lines)

    def __call__(self, batch: pa.Table) -> pa.Table:
        import os

        # per call, not per instance: a worker reuses its instance across
        # runs, and an output dir removed in between must come back
        os.makedirs(self.tei_dir, exist_ok=True)
        os.makedirs(self.raw_dir, exist_ok=True)
        res: dict[str, list] = {k: [] for k in MANIFEST_SCHEMA.names}
        for url, lang, html, text in zip(
            batch["url"].to_pylist(),
            batch["lang"].to_pylist(),
            batch["html"].to_pylist(),
            batch["text"].to_pylist(),
        ):
            try:
                stem, tei_path, raw_path, n_lines = self._one(
                    url, lang, html, text
                )
                err = None
            except Exception as exc:  # noqa: BLE001 — poison-row side output
                stem = doc_id(url)
                tei_path = raw_path = ""
                n_lines = 0
                err = f"{type(exc).__name__}: {exc}"
            res["url"].append(url)
            res["stem"].append(stem)
            res["tei_path"].append(tei_path)
            res["raw_path"].append(raw_path)
            res["n_lines"].append(n_lines)
            res["error"].append(err)
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
        batch_format="pyarrow",
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

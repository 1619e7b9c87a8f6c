"""The flagship extraction pipeline (SURVEY.md §3.3 Ray shape).

    read_parquet(pages)                               # url warc_ts html text lang
      → dedup (winner prefilter, or groupby url keeping max warc_ts)
      → map_batches(FusedExtractStage)                # the whole cascade, per batch:
          DOM parse + tokenize + caps + line features # S2' M1-M6
          → segmenter CRF → zones                     # ST1 M13
          → body token features → body CRF            # M14 M7 ST2
          → lexical features → lexical CRF            # third level, per <entry>
          → TEI + text assembly                       # M15 M16 S9
      → write_parquet / Dataset

Every operator is document-local, so the cascade is ONE map stage: the
intermediates (lines, tokens, feature columns — 5-10x the html payload) never
cross the object store. Inside a batch the stage runs phase by phase, and
each CRF level decodes all of the batch's sequences in one lockstep Viterbi.

Output schema (one row per url):
    url, warc_ts, lang, extracted_text, main_text, tei, tei_body,
    zones:   list<struct<label,start,end>>   (token offsets, M13)
    entries: list<struct<label,start,end>>   (token offsets, body cascade)
    lexical: list<struct<label,start,end>>   (token offsets, lexical level)
    n_lines, n_tokens, error
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data

from datacat_ray.config import PipelineConfig
from datacat_ray.stages.crf import CRFDecoder, with_begin_prefix
from datacat_ray.stages.dedup import dedup_latest
from datacat_ray.stages.dom import blocks_from_plain_text, parse_main_blocks
from datacat_ray.stages.lexical_features import entry_runs_columns
from datacat_ray.stages.line_features import (
    _FIELD_NAMES as _LINE_FIELD_NAMES,
    line_columns,
)
from datacat_ray.stages.models import BODY_MODEL, LEXICAL_MODEL, SEGMENTER_MODEL
from datacat_ray.stages.tei import (
    assemble_body_tei,
    assemble_segmenter_tei,
    extracted_text,
    token_char_offsets,
)
from datacat_ray.stages.token_features import (
    _TOKEN_FIELD_NAMES as _BODY_FIELD_NAMES,
    body_token_columns,
)
from datacat_ray.stages.tokenizer import Lines, tokenize_document
from datacat_ray.stages.zones import ZONE_STRUCT, decode_zones, zone_token_indices

RESULT_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("lang", pa.string()),
        ("extracted_text", pa.string()),
        ("main_text", pa.string()),
        ("tei", pa.string()),
        ("tei_body", pa.string()),
        ("zones", pa.list_(ZONE_STRUCT)),
        ("entries", pa.list_(ZONE_STRUCT)),
        ("lexical", pa.list_(ZONE_STRUCT)),
        ("n_lines", pa.int32()),
        ("n_tokens", pa.int32()),
        ("error", pa.string()),
    ]
)


def unwrapped_text(lines: Lines) -> str:
    """Reconstruct the pre-wrap block text: lines of one block joined by the
    space the wrap consumed (``wrap_text`` semantics), blocks joined by
    newline. For HTML whose block texts contain no hard breaks this is the
    exact inverse of the tokenizer's pseudo-line wrapping — the clean
    "main content" string a downstream consumer wants."""
    parts: list[str] = []
    cur_block = None
    for b, t in zip(lines.block_id, lines.text):
        if b != cur_block:
            parts.append(t)
            cur_block = b
        else:
            parts[-1] = parts[-1] + " " + t
    return "\n".join(parts)


class _Level:
    """One CRF level of the cascade: its decoder and the named feature
    fields to compute for it — only those its templates read.

    A trained artifact's templates read raw columns instead (``f{i}`` =
    the i-th of ``raw_names``, the serialization order, stringified: its
    training corpus is raw feature files), so its named columns are
    renamed to ``f{i}`` before the emission lookup. A raw column past
    ``raw_names`` is left missing and fails each document's lookup."""

    def __init__(self, dec: CRFDecoder,
                 raw_names: list[str] | None = None) -> None:
        self.dec = dec
        if raw_names is None:
            self.raw = None
            self.fields = list(dec.fields)
        else:
            self.raw = {f: raw_names[int(f[1:])] for f in dec.fields
                        if int(f[1:]) < len(raw_names)}
            self.fields = sorted(set(self.raw.values()))

    def emissions(self, cols: dict[str, list], n: int):
        if self.raw is not None:
            cols = raw_columns(cols, self.raw)
        return self.dec.emission_matrix(cols, n)


def raw_columns(cols: dict[str, list], raw: dict[str, str]) -> dict[str, list]:
    """Named feature columns → the raw columns ``raw`` maps to them
    (``f{i}`` → field name), values stringified as serialized."""
    return {f: [str(v) for v in cols[name]] for f, name in raw.items()}


class _Doc:
    """One document's cascade state between the phases of a batch."""

    __slots__ = ("url", "lang", "lines", "tokens", "token_line", "em", "idx",
                 "line_labels", "zones", "entries", "runs", "lex_idx",
                 "starts", "result")

    def __init__(self, url, lang) -> None:
        self.url = url
        self.lang = lang


def _phase(docs: dict, out: list, fn, inputs) -> None:
    """``fn(doc, x)`` for every live document with its input ``x``. A
    document whose call raises, or returns a cap-rejection message, leaves
    ``docs`` and gets its error row in ``out``: a poison row costs only
    itself (the Ray analogue of the reference's per-file try/catch,
    ``EngineDatacat.java:136-143``)."""
    for (i, d), x in zip(list(docs.items()), inputs):
        try:
            err = fn(d, x)
        except Exception as exc:  # noqa: BLE001 — poison-row side output
            err = f"{type(exc).__name__}: {exc}"
        if err is not None:
            del docs[i]
            out[i] = ("", "", "", "", [], [], [], 0, 0, err)


class FusedExtractStage:
    """The whole cascade in ONE map stage: DOM parse + boilerplate strip
    (S2'), tokenize (M1/M2), line featurize + segmenter CRF + zone decode
    (M5/M6/ST1/M13), body featurize + entry CRF (M14/M7/ST2), the lexical
    level per ``<entry>`` run, TEI + text assembly (M15/M16/S9).

    Fused deliberately: every operator is document-local (SURVEY.md §4), so
    splitting them into separate map_batches stages ships the fat
    intermediate nested columns (lines/tokens/features, 5-10× the html
    payload) through the object store and pays Arrow⇄Python conversion at
    each boundary — measured ~8× the actual kernel cost. One stage = one
    conversion in (html bytes), one out (result strings).

    A batch runs phase by phase (``_extract``), so each CRF level decodes
    every sequence of the batch in one lockstep Viterbi
    (``CRFDecoder.viterbi``). Each featurizer computes only the feature
    columns its level's templates read (``CRFDecoder.fields``), and the
    columns become emission matrices as soon as they are built, so only
    those cross a phase. The decoders compile once per stage in
    ``__init__`` (the Ray analogue of the reference's parser singletons
    holding loaded Wapiti models,
    ``DatacatSegmenterParser.java:83-85``,
    ``DatacatBodySegmentationParser.java:63-67``)."""

    def __init__(
        self,
        max_tokens: int = 30_000,
        max_blocks: int = 3_000,
        start_page: int = -1,
        end_page: int = -1,
        tei_coordinates: bool = False,
        model_paths: dict | None = None,
        segment_sentences: bool = False,
    ) -> None:
        # ``model_paths`` swaps frozen models for trained artifacts (the
        # "deploy" leg of the model-improvement loop): keys "segmenter" /
        # "body" → JSON artifacts from `cli train` (pipelines/trainer.py).
        # Artifact templates reference the RAW feature columns (f0..fN in
        # serialization order), so their levels rename columns (_Level).
        mp = model_paths or {}
        if "segmenter" in mp:
            from datacat_ray.pipelines.trainer import load_model_json

            self.seg = load_model_json(mp["segmenter"])
            self._seg = _Level(self.seg, _LINE_FIELD_NAMES)
        else:
            self.seg = CRFDecoder(SEGMENTER_MODEL)
            self._seg = _Level(self.seg)
        if "body" in mp:
            from datacat_ray.pipelines.trainer import load_model_json

            self.body = load_model_json(mp["body"])
            self._body = _Level(self.body, _BODY_FIELD_NAMES)
        else:
            self.body = CRFDecoder(BODY_MODEL)
            self._body = _Level(self.body)
        self.lexical = CRFDecoder(LEXICAL_MODEL)
        self._lex = _Level(self.lexical)
        self.max_tokens = max_tokens
        self.max_blocks = max_blocks
        self.start_page = start_page
        self.end_page = end_page
        # -teiCoordinates analogue (GrobidDatacatMainArgs.java): zone/entry
        # elements carry char-span coords into the extracted text
        self.tei_coordinates = tei_coordinates
        # -segmentSentences analogue: <s> sentence level in body TEI
        self.segment_sentences = segment_sentences

    def _lines(self, d: _Doc, src: tuple) -> str | None:
        """Parse, tokenize, apply the caps, featurize lines."""
        html, text = src
        if html is not None:
            blocks = parse_main_blocks(html.decode("utf-8", errors="replace"))
        else:
            blocks = blocks_from_plain_text(text or "")
        if self.start_page >= 0 or self.end_page >= 0:
            # O4 page-range limit (row-local slice on the pseudo-page ids;
            # reference start/end-page semantics, fromPdf args)
            lo = self.start_page if self.start_page >= 0 else 0
            hi = self.end_page if self.end_page >= 0 else float("inf")
            blocks = blocks.take([i for i, p in enumerate(blocks.page)
                                  if lo <= p <= hi])
        if len(blocks) > self.max_blocks:
            return f"TOO_MANY_BLOCKS: {len(blocks)}"
        d.lines, d.tokens, d.token_line = tokenize_document(blocks)
        if len(d.tokens) > self.max_tokens:
            return f"TOO_MANY_TOKENS: {len(d.tokens)}"
        cols = line_columns(d.lines, self._seg.fields)
        d.em = self._seg.emissions(cols, len(d.lines))
        return None

    def _body_tokens(self, d: _Doc, seg_labels: list[str]) -> None:
        """Zones from the segmenter labels; featurize the body tokens."""
        d.line_labels = with_begin_prefix(seg_labels)
        d.zones = decode_zones(d.line_labels, d.token_line, len(d.tokens))
        body_ranges = zone_token_indices(d.zones, "<body>")
        cols, d.idx = body_token_columns(
            d.tokens, d.token_line, d.lines, body_ranges, self._body.fields)
        d.em = self._body.emissions(cols, len(d.idx))

    def _entry_runs(self, d: _Doc, body_path) -> None:
        """Entries from the body label path; featurize the document's
        ``<entry>`` runs for the lexical level (num/category/desc/count/
        material) in one pass and one emission lookup — exact because the
        lexical templates read offset 0 only, so no key looks across a
        run boundary. Each non-empty run stays its own Viterbi sequence."""
        d.entries = self.body.spans(body_path, d.idx)
        cols, d.lex_idx, starts = entry_runs_columns(
            d.tokens, [(r["start"], r["end"]) for r in d.entries
                       if r["label"] == "<entry>"], self._lex.fields)
        n = len(d.lex_idx)
        em = self._lex.emissions(cols, n)
        bounds = [(a, b) for a, b in zip(starts, starts[1:] + [n])
                  if a < b]
        d.starts = [a for a, _ in bounds]
        d.runs = [em[a:b] for a, b in bounds]
        d.em = None

    def _assemble(self, d: _Doc, run_paths: list) -> None:
        """Lexical spans from the run label paths; text and TEI
        assembly."""
        lexical = self.lexical.spans(
            np.concatenate(run_paths or [np.zeros(0, dtype=np.intp)]),
            d.lex_idx, d.starts)
        tokens, lines, zones, entries = d.tokens, d.lines, d.zones, d.entries
        if self.tei_coordinates:
            offs = token_char_offsets(tokens)
            seg_coords = [(offs[z["start"]], offs[z["end"]]) for z in zones]
            body_coords = [(offs[r["start"]], offs[r["end"]]) for r in entries]
        else:
            seg_coords = body_coords = None
        d.result = (
            extracted_text(tokens),
            unwrapped_text(lines),
            assemble_segmenter_tei(d.url, d.lang, lines, d.line_labels,
                                   seg_coords),
            assemble_body_tei(d.url, d.lang, tokens, entries, body_coords,
                              self.segment_sentences),
            zones,
            entries,
            lexical,
            len(lines),
            len(tokens),
            None,
        )

    def _extract(self, urls, langs, htmls, texts) -> list[tuple]:
        """(extracted_text, main_text, tei, tei_body, zones, entries,
        lexical, n_lines, n_tokens, error) per document, the cascade run
        one phase at a time over the whole batch."""
        out: list = [None] * len(urls)
        docs = {i: _Doc(u, lg) for i, (u, lg) in enumerate(zip(urls, langs))}
        _phase(docs, out, self._lines, zip(htmls, texts))
        _phase(docs, out, self._body_tokens,
               self.seg.viterbi([d.em for d in docs.values()]))
        _phase(docs, out, self._entry_runs,
               self.body.paths([d.em for d in docs.values()]))
        paths = iter(self.lexical.paths(
            [em for d in docs.values() for em in d.runs]))
        _phase(docs, out, self._assemble,
               [[next(paths) for _ in d.runs] for d in docs.values()])
        for i, d in docs.items():
            out[i] = d.result
        return out

    def _one(self, url, lang, html, text) -> tuple:
        """``_extract`` of one document."""
        return self._extract([url], [lang], [html], [text])[0]

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch["url"].to_pylist()
        langs = batch["lang"].to_pylist()
        rows = self._extract(urls, langs, batch["html"].to_pylist(),
                             batch["text"].to_pylist())
        res = {"url": urls, "warc_ts": batch["warc_ts"].to_pylist(),
               "lang": langs}
        cols = list(zip(*rows)) or [()] * (len(RESULT_SCHEMA) - 3)
        res.update(zip(RESULT_SCHEMA.names[3:], cols))
        return pa.Table.from_pydict(res, schema=RESULT_SCHEMA)


_TASK_STAGE_CACHE: dict[tuple, "FusedExtractStage"] = {}


def _fused_task(
    batch: pa.Table,
    max_tokens: int,
    max_blocks: int,
    start_page: int = -1,
    end_page: int = -1,
    tei_coordinates: bool = False,
    model_paths: tuple = (),
    segment_sentences: bool = False,
) -> pa.Table:
    """Task-mode wrapper around ``FusedExtractStage`` with a per-WORKER-
    PROCESS stage cache: the decoders compile once per worker (Ray reuses
    worker processes across tasks), after which every task runs warm.

    Tasks-with-process-cache vs an actor pool is a measured trade: these
    decoders compile in milliseconds, and plain tasks schedule onto every
    free core instantly while an autoscaling actor pool ramps from 1 actor
    (measured 2-6s of pool creation + ramp on a 10s job). An actor pool
    (``execution="actors"``) is the right choice only when per-actor state
    is expensive — multi-GB model weights, a remote connection — which is
    exactly what ``FusedExtractStage.__init__`` models."""
    key = (max_tokens, max_blocks, start_page, end_page, tei_coordinates,
           model_paths, segment_sentences)
    st = _TASK_STAGE_CACHE.get(key)
    if st is None:
        _TASK_STAGE_CACHE.clear()
        st = _TASK_STAGE_CACHE[key] = FusedExtractStage(
            max_tokens, max_blocks, start_page, end_page, tei_coordinates,
            dict(model_paths), segment_sentences,
        )
    return st(batch)


def build_extract_pipeline(
    ds: "ray.data.Dataset",
    cfg: PipelineConfig | None = None,
    dedup: bool = True,
) -> "ray.data.Dataset":
    """Compose the cascade over a pages Dataset (lazy; caller consumes):
    one fused stage (see ``FusedExtractStage`` for why fusing beats a stage
    chain here — every operator is document-local, so stage boundaries only
    add object-store traffic).

    ``dedup=True`` uses the exact groupby dedup (one wide shuffle). Prefer
    ``extract_pages`` for parquet inputs — its winner-prefilter dedup keeps
    the wide html column out of any shuffle entirely."""
    cfg = cfg or PipelineConfig()
    if dedup:
        ds = dedup_latest(ds, key="url", ts="warc_ts")
    if cfg.execution == "actors":
        return ds.map_batches(
            FusedExtractStage,
            fn_constructor_kwargs={
                "max_tokens": cfg.max_tokens, "max_blocks": cfg.max_blocks,
                "start_page": cfg.start_page, "end_page": cfg.end_page,
                "tei_coordinates": cfg.tei_coordinates,
                "model_paths": cfg.model_paths,
                "segment_sentences": cfg.segment_sentences,
            },
            batch_format="pyarrow",
            batch_size=cfg.segmenter.batch_size,
            concurrency=cfg.segmenter.concurrency,
            num_cpus=cfg.segmenter.num_cpus,
        )
    import functools

    return ds.map_batches(
        functools.partial(
            _fused_task, max_tokens=cfg.max_tokens, max_blocks=cfg.max_blocks,
            start_page=cfg.start_page, end_page=cfg.end_page,
            tei_coordinates=cfg.tei_coordinates,
            model_paths=tuple(sorted((cfg.model_paths or {}).items())),
            segment_sentences=cfg.segment_sentences,
        ),
        batch_format="pyarrow",
        batch_size=cfg.segmenter.batch_size,
        num_cpus=cfg.segmenter.num_cpus,
    )


def extract_pages(
    pages_path, cfg: PipelineConfig | None = None, dedup: str = "prefilter"
) -> "ray.data.Dataset":
    """read_parquet → cascade. Column pruning happens at the read: only the
    five input-hint columns leave storage.

    ``dedup``:
    - ``"prefilter"`` (default): narrow (url, warc_ts) winner pass +
      broadcast filter — stale captures die at the read, the wide html
      column never crosses a shuffle (the 10^12-row design; see
      ``dedup_latest_prefilter`` for the tie caveat + bucketed scale path).
    - ``"exact"``: groupby-based exact dedup (one wide hash shuffle).
    - ``"none"``: input already unique per url.
    """
    from datacat_ray.stages.dedup import dedup_latest_prefilter

    cols = ["url", "warc_ts", "html", "text", "lang"]
    if dedup == "prefilter":
        ds = dedup_latest_prefilter(pages_path, columns=cols)
        return build_extract_pipeline(ds, cfg, dedup=False)
    ds = ray.data.read_parquet(pages_path, columns=cols)
    return build_extract_pipeline(ds, cfg, dedup=(dedup == "exact"))

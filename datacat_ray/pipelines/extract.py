"""The flagship extraction pipeline (SURVEY.md §3.3 Ray shape).

    parquet pages or WARC segments                    # url warc_ts html text lang
      → keep-latest per url (winner filter at the read)
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
each CRF level runs batch-wide: one integer-coded featurization, one
emission gather, one lockstep Viterbi and one span decode for all of the
batch's sequences.

Output schema (one row per url):
    url, warc_ts, lang, extracted_text, main_text, tei, tei_body,
    zones:   list<struct<label,start,end>>   (token offsets, M13)
    entries: list<struct<label,start,end>>   (token offsets, body cascade)
    lexical: list<struct<label,start,end>>   (token offsets, lexical level)
    n_lines, n_tokens, error
"""

from __future__ import annotations

import functools
from bisect import bisect_left
from itertools import groupby, repeat
from operator import itemgetter

import numpy as np
import pyarrow as pa

import ray.data

from datacat_ray.config import PipelineConfig
from datacat_ray.stages.crf import VOCAB, CRFDecoder
from datacat_ray.stages.dedup import latest_runs
from datacat_ray.stages.dom import blocks_from_plain_text, parse_main_blocks
from datacat_ray.stages.lexical_features import entry_codes
from datacat_ray.stages.line_features import (
    _FIELD_NAMES as _LINE_FIELD_NAMES,
    line_codes,
)
from datacat_ray.stages.models import BODY_MODEL, LEXICAL_MODEL, SEGMENTER_MODEL
from datacat_ray.stages.tei import (
    body_tei,
    extracted_text,
    segmenter_tei,
    token_char_offsets,
)
from datacat_ray.stages.token_features import (
    _TOKEN_FIELD_NAMES as _BODY_FIELD_NAMES,
    body_codes,
    offsets,
)
from datacat_ray.stages.tokenizer import Lines, tokenize_document
from datacat_ray.stages.zones import ZONE_STRUCT

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
    return "\n".join(" ".join(t for _, t in run) for _, run in groupby(
        zip(lines.block_id, lines.text), key=itemgetter(0)))


class _Level:
    """One CRF level of the cascade: its decoder and the named feature
    fields to compute for it — only those its weighted templates read
    (``CRFDecoder.coded_fields``).

    A trained artifact's templates read raw columns instead (``f{i}`` =
    the i-th of ``raw_names``, the serialization order, stringified: its
    training corpus is raw feature files). A value's feature string is
    the same either way, so ``f{i}`` reads the codes of the i-th named
    field. A raw column past ``raw_names`` is missing and fails every
    emission lookup with a ``KeyError``."""

    def __init__(self, dec: CRFDecoder,
                 raw_names: list[str] | None = None) -> None:
        self.dec = dec
        if raw_names is None:
            self.raw = None
            self.fields = list(dec.coded_fields)
        else:
            self.raw = {f: raw_names[int(f[1:])] for f in dec.fields
                        if int(f[1:]) < len(raw_names)}
            self.fields = sorted({self.raw[f] for f in dec.coded_fields
                                  if f in self.raw})

    def gather(self, codes: dict[str, np.ndarray], lens) -> np.ndarray:
        """The emission matrix of sequences laid end to end, given the
        codes of ``fields`` over all their positions."""
        if self.raw is None:
            return self.dec.coded_emissions(codes, lens)
        for _, f in self.dec._refs:
            if f not in self.raw:
                raise KeyError(f)
        raw = {f: self.raw[f] for f in self.dec.coded_fields}
        return self.dec.coded_emissions(
            {f: codes[name] for f, name in raw.items()}, lens, raw)


class _Doc:
    """One document's cascade state between the phases of a batch. A
    level's state is ``em`` (its emission rows), ``lens`` (its sequence
    lengths) and, once decoded, ``path`` (its int label path)."""

    __slots__ = ("url", "lang", "lines", "tokens", "token_line", "em",
                 "lens", "path", "idx", "zone_lines", "zones", "body",
                 "entries", "lexical", "result")

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


def _batch(docs: dict, out: list, fn) -> None:
    """``fn(docs)`` over all live documents at once; if it raises, the
    same phase again document by document (``fn`` of a one-document
    batch), so a poison row still costs only itself. What ``fn`` returns
    is not a cap message, and is dropped."""
    if not docs:
        return
    try:
        fn(list(docs.values()))
    except Exception:  # noqa: BLE001 — isolated below
        def one(d, _) -> None:
            fn([d])

        _phase(docs, out, one, repeat(None))


def _split(ds: list, attr: str, arr, counts) -> None:
    """Hand each document its slice of an array laid out document by
    document (``counts`` rows each) as its ``attr``."""
    bounds = offsets(counts).tolist()
    for k, d in enumerate(ds):
        setattr(d, attr, arr[bounds[k]:bounds[k + 1]])


def _decode(dec: CRFDecoder, docs: dict) -> None:
    """One lockstep Viterbi over the sequences of every live document."""
    ds = list(docs.values())
    if not ds:
        return
    path = dec.paths(np.concatenate([d.em for d in ds]),
                     np.concatenate([d.lens for d in ds]))
    _split(ds, "path", path, [len(d.em) for d in ds])


def _spans(dec: CRFDecoder, ds: list, attr: str) -> None:
    """One span decode of the live documents' label paths; each document
    gets the (label index into ``base_labels``, start, end) arrays of its
    spans as its ``attr``."""
    counts = [len(d.path) for d in ds]
    lab, start, end, first = dec.span_arrays(
        np.concatenate([d.path for d in ds]),
        np.concatenate([d.idx for d in ds]),
        np.concatenate([d.lens for d in ds]))
    per_doc = np.bincount(np.repeat(np.arange(len(ds)), counts)[first],
                          minlength=len(ds))
    bounds = offsets(per_doc).tolist()
    for k, d in enumerate(ds):
        sl = slice(bounds[k], bounds[k + 1])
        setattr(d, attr, (lab[sl], start[sl], end[sl]))


def _span_column(spans: list, names: list[str]) -> pa.Array:
    """Per row, None or (label index into ``names``, start, end) arrays →
    a ``list<ZONE_STRUCT>`` column."""
    parts = [s for s in spans if s is not None]
    if parts:
        lab, start, end = (np.concatenate(c) for c in zip(*parts))
    else:
        lab = start = end = np.zeros(0, dtype=np.intp)
    items = pa.StructArray.from_arrays(
        [pa.array(names, pa.string()).take(lab), pa.array(start, pa.int64()),
         pa.array(end, pa.int64())], fields=list(ZONE_STRUCT))
    counts = [0 if s is None else len(s[0]) for s in spans]
    return pa.ListArray.from_arrays(
        pa.array(offsets(counts), pa.int32()), items)


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

    A batch runs phase by phase (``_extract``), one level after another:
    ``segment`` (parse, tokenize, caps, segmenter CRF, zones),
    ``decode_entries`` (body CRF, entry spans), then the lexical level and
    assembly. The training export (``pipelines/create_training``) runs the
    first two on their own and writes its files from the live ``_Doc``
    states. Parse, tokenize, zones
    and TEI run document by document; each CRF level runs batch-wide: its
    feature fields are encoded as ``VOCAB`` codes over the positions of
    every document laid end to end (``line_codes``, ``body_codes``,
    ``entry_codes``), one gather
    (``CRFDecoder.coded_emissions``) scores them all, one lockstep Viterbi
    (``CRFDecoder.paths``) labels them and one span decode
    (``CRFDecoder.span_arrays``) turns the paths into spans. Each level
    computes only the fields its weighted templates read. The decoders
    compile once per stage in ``__init__`` (the Ray analogue of the
    reference's parser singletons holding loaded Wapiti models,
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
        """Parse, tokenize, apply the caps."""
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
        return None

    def _seg_emissions(self, ds: list) -> None:
        """Segmenter emissions of every line of the batch."""
        lens = np.array([len(d.lines) for d in ds], dtype=np.intp)
        em = self._seg.gather(
            line_codes([d.lines for d in ds], self._seg.fields), lens)
        _split(ds, "em", em, lens)
        for d, n in zip(ds, lens):
            d.lens = [n]
            d.idx = np.arange(n)

    def _zones(self, ds: list) -> None:
        """Zones from the segmenter paths: one span decode of the batch
        (``_spans``) gives each document's ``zone_lines`` (label index into
        ``seg.base_labels``, first line, end line); ``zones`` are the same
        spans in token offsets and ``body`` the token ranges of the
        ``<body>`` zones. The zones tile the token stream: each starts at
        the first token of its first line, or of a later line when that one
        has none (``bisect_left`` in the non-decreasing ``token_line``)."""
        _spans(self.seg, ds, "zone_lines")
        names = self.seg.base_labels
        body = names.index("<body>") if "<body>" in names else -1
        for d in ds:
            lab, a, _ = d.zone_lines
            at = [bisect_left(d.token_line, x) for x in a.tolist()]
            at.append(len(d.tokens))
            tok = np.array(at, dtype=np.intp)
            d.zones = (lab, tok[:-1], tok[1:])
            d.body = [(s, e) for i, s, e in zip(lab.tolist(), at, at[1:])
                      if i == body]

    def _body_emissions(self, ds: list, fields=None) -> tuple:
        """Body-level emissions of every non-space ``<body>`` token of the
        batch, from the codes of ``fields`` (default: those the level
        reads); returns (the codes, each document's position count)."""
        codes, idx, counts = body_codes(
            [d.tokens for d in ds], [d.token_line for d in ds],
            [d.lines for d in ds], [d.body for d in ds],
            fields or self._body.fields)
        em = self._body.gather(codes, counts)
        _split(ds, "em", em, counts)
        _split(ds, "idx", idx, counts)
        for d, n in zip(ds, counts):
            d.lens = [n]
        return codes, counts

    def _body_spans(self, ds: list) -> None:
        """Entries from the body paths."""
        _spans(self.body, ds, "entries")

    def _lexical_emissions(self, ds: list) -> None:
        """Lexical emissions of every non-space token of the batch's
        ``<entry>`` runs (num/category/desc/count/material), each non-empty
        run its own sequence."""
        names = self.body.base_labels
        entry = names.index("<entry>") if "<entry>" in names else -1
        runs = []
        for d in ds:
            lab, start, end = d.entries
            is_run = lab == entry
            runs.append(list(zip(start[is_run].tolist(),
                                 end[is_run].tolist())))
        codes, idx, lens = entry_codes([d.tokens for d in ds], runs,
                                       self._lex.fields)
        em = self._lex.gather(codes, lens)
        n_runs = list(map(len, runs))
        n_pos = np.bincount(np.repeat(np.arange(len(ds)), n_runs),
                            weights=lens, minlength=len(ds)).astype(np.intp)
        _split(ds, "em", em, n_pos)
        _split(ds, "idx", idx, n_pos)
        _split(ds, "lens", lens, n_runs)

    def _lexical_spans(self, ds: list) -> None:
        """Lexical spans from the run paths."""
        _spans(self.lexical, ds, "lexical")

    def _assemble(self, d: _Doc, _) -> None:
        """Text and TEI assembly."""
        tokens, lines = d.tokens, d.lines
        if self.tei_coordinates:
            offs = np.array(token_char_offsets(tokens))
            seg_coords, body_coords = (
                list(zip(offs[s].tolist(), offs[e].tolist()))
                for _, s, e in (d.zones, d.entries))
        else:
            seg_coords = body_coords = None
        d.result = (
            extracted_text(tokens),
            unwrapped_text(lines),
            segmenter_tei(d.url, d.lang, lines, self.seg.base_labels,
                          d.zone_lines, seg_coords),
            body_tei(d.url, d.lang, tokens, self.body.base_labels,
                     d.entries, body_coords, self.segment_sentences),
            # the span columns are built from the span arrays
            None, None, None,
            len(lines),
            len(tokens),
            None,
        )

    def segment(self, urls, langs, htmls, texts) -> tuple[dict, list]:
        """Parse, tokenize, caps, segmenter CRF and zones over a batch:
        (``docs``, the live documents' ``_Doc`` states by input index;
        ``out``, the batch's rows, so far the error row of each document
        that left ``docs``). Later phases take the same pair."""
        VOCAB.bound()
        out: list = [None] * len(urls)
        docs = {i: _Doc(u, lg) for i, (u, lg) in enumerate(zip(urls, langs))}
        _phase(docs, out, self._lines, zip(htmls, texts))
        _batch(docs, out, self._seg_emissions)
        _decode(self.seg, docs)
        _batch(docs, out, self._zones)
        return docs, out

    def decode_entries(self, docs: dict, out: list, emissions=None) -> None:
        """Body CRF and entry spans over ``segment``'s
        live documents; ``emissions`` is the batch phase that sets the body
        emissions (default ``_body_emissions``)."""
        _batch(docs, out, emissions or self._body_emissions)
        _decode(self.body, docs)
        _batch(docs, out, self._body_spans)

    def _extract(self, urls, langs, htmls, texts):
        """(rows, span columns): per document the (extracted_text,
        main_text, tei, tei_body, —, —, —, n_lines, n_tokens, error) row,
        and the ``zones``, ``entries`` and ``lexical`` columns by name, the
        cascade run one phase at a time over the whole batch."""
        docs, out = self.segment(urls, langs, htmls, texts)
        self.decode_entries(docs, out)
        _batch(docs, out, self._lexical_emissions)
        _decode(self.lexical, docs)
        _batch(docs, out, self._lexical_spans)
        _phase(docs, out, self._assemble, repeat(None))
        for i, d in docs.items():
            out[i] = d.result
        live = [docs.get(i) for i in range(len(urls))]
        return out, {
            attr: _span_column([d and getattr(d, attr) for d in live],
                               dec.base_labels)
            for attr, dec in (("zones", self.seg), ("entries", self.body),
                              ("lexical", self.lexical))}

    def _one(self, url, lang, html, text) -> tuple:
        """``_extract`` of one document, its spans as dicts."""
        rows, spans = self._extract([url], [lang], [html], [text])
        return (*rows[0][:4], *(c.to_pylist()[0] for c in spans.values()),
                *rows[0][7:])

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch["url"].to_pylist()
        langs = batch["lang"].to_pylist()
        rows, spans = self._extract(
            urls, langs, batch["html"].to_pylist(), batch["text"].to_pylist())
        res = {"url": urls, "warc_ts": batch["warc_ts"].to_pylist(),
               "lang": langs}
        cols = list(zip(*rows)) or [()] * (len(RESULT_SCHEMA) - 3)
        res.update(zip(RESULT_SCHEMA.names[3:], cols))
        res.update(spans)
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
    """``FusedExtractStage`` as a plain Ray task with a per-WORKER-PROCESS
    stage cache: the decoders compile once per worker (Ray reuses worker
    processes across tasks), after which every task runs warm. The
    decoders compile in milliseconds, so tasks schedule onto every free
    core at once with no pool to create or ramp."""
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


def fused_kernel(cfg: PipelineConfig) -> functools.partial:
    """``_fused_task`` bound to the stage arguments of ``cfg``: the
    function every extraction Dataset maps over its pages batches."""
    return functools.partial(
        _fused_task, max_tokens=cfg.max_tokens, max_blocks=cfg.max_blocks,
        start_page=cfg.start_page, end_page=cfg.end_page,
        tei_coordinates=cfg.tei_coordinates,
        model_paths=tuple(sorted((cfg.model_paths or {}).items())),
        segment_sentences=cfg.segment_sentences,
    )


def map_kernel(ds: "ray.data.Dataset",
               cfg: PipelineConfig) -> "ray.data.Dataset":
    """``fused_kernel(cfg)`` over each slice of a ``ranked.read_runs``
    Dataset as it is, fused into its read tasks (one operator)."""
    return ds.map_batches(fused_kernel(cfg), batch_format="pyarrow",
                          batch_size=None, num_cpus=cfg.segmenter.num_cpus)


def build_extract_pipeline(
    ds: "ray.data.Dataset",
    cfg: PipelineConfig | None = None,
) -> "ray.data.Dataset":
    """Compose the cascade over a pages Dataset (lazy; caller consumes):
    one fused stage (see ``FusedExtractStage`` for why fusing beats a stage
    chain here — every operator is document-local, so stage boundaries only
    add object-store traffic), in batches of ``cfg.segmenter.batch_size``.
    It does not dedup: the keep-latest rule names a capture by its input
    position, which only a read knows: the flagships (``extract_pages``,
    ``sources.warc.extract_pages_warc``) map the kernel into their run
    reads instead (``map_kernel``)."""
    cfg = cfg or PipelineConfig()
    return ds.map_batches(
        fused_kernel(cfg),
        batch_format="pyarrow",
        batch_size=cfg.segmenter.batch_size,
        num_cpus=cfg.segmenter.num_cpus,
    )


def extract_pages(
    pages_path, cfg: PipelineConfig | None = None
) -> "ray.data.Dataset":
    """Parquet pages → keep-latest at the read → cascade, as one Ray Data
    operator: the run read of ``dedup_latest_prefilter`` in slices of
    ``cfg.segmenter.batch_size`` rows, the kernel fused into its tasks
    (``map_kernel``). Only the five input-hint columns leave storage; one
    row per url, a ``warc_ts`` tie going to the later input position."""
    cfg = cfg or PipelineConfig()
    return map_kernel(latest_runs(
        pages_path, ["url", "warc_ts", "html", "text", "lang"], None,
        cfg.segmenter.batch_size), cfg)

"""Traced single-process walk of the fused extraction kernel, and the Ray
operator stats of an executed Dataset.

The walk calls the same public layer functions, in the same order, as
``FusedExtractStage._one`` and records one span per call: (trace id = url,
name, start ns, end ns, parent span). Its output table must digest-equal
the untraced ``FusedExtractStage`` pass, so the walk cannot drift from the
kernel it profiles. Spans stay in memory and are written out once, when
the run ends.
"""

from __future__ import annotations

import json
import re
import time
from array import array
from collections import Counter, defaultdict

import pyarrow as pa

LAYERS = ("dom.parse", "tokenizer", "line_features", "crf.seg",
          "token_features", "crf.body", "lexical_features", "crf.lexical",
          "tei")
DECODERS = ("seg", "body", "lexical")


class Tracer:
    """Spans in flat arrays: nothing per span for the garbage collector to
    track, so keeping every span in memory does not slow the walk."""

    def __init__(self) -> None:
        self.trace_id = ""
        self.trace_ids: list[str] = []
        self.names: list[str] = []
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")  # index of the enclosing span, or -1
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.start)

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def self_ns(self) -> dict[str, int]:
        """Per span name: total duration minus the time its child spans
        cover."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        out: dict[str, int] = defaultdict(int)
        for name, ns in zip(self.names, own):
            out[name] += ns
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({
                "fields": ["trace_id", "name", "start_ns", "end_ns", "parent"],
                "spans": list(zip(self.trace_ids, self.names, self.start,
                                  self.end, self.parent)),
            }, fh)


class _Span:
    __slots__ = ("t", "name", "i")

    def __init__(self, t: Tracer, name: str) -> None:
        self.t, self.name = t, name

    def __enter__(self) -> None:
        t = self.t
        self.i = len(t.start)
        t.trace_ids.append(t.trace_id)
        t.names.append(self.name)
        t.parent.append(t._stack[-1] if t._stack else -1)
        t.end.append(0)
        t._stack.append(self.i)
        t.start.append(time.perf_counter_ns())

    def __exit__(self, *exc) -> None:
        t = self.t
        t.end[self.i] = time.perf_counter_ns()
        t._stack.pop()


def traced_pass(batch: pa.Table, tracer: Tracer, st, positions: Counter):
    """Run the cascade over ``batch`` with the decoders of the
    ``FusedExtractStage`` ``st`` and a span around every layer call;
    ``positions`` counts the positions each decoder labels. Returns the
    result table, as ``st(batch)`` would."""
    from datacat_ray.pipelines.extract import RESULT_SCHEMA, unwrapped_text
    from datacat_ray.stages.crf import with_begin_prefix
    from datacat_ray.stages.dom import blocks_from_plain_text, parse_main_blocks
    from datacat_ray.stages.lexical_features import featurize_entry_tokens
    from datacat_ray.stages.line_features import featurize_lines
    from datacat_ray.stages.tei import (
        assemble_body_tei,
        assemble_segmenter_tei,
        body_label_runs,
        extracted_text,
    )
    from datacat_ray.stages.token_features import featurize_body_tokens
    from datacat_ray.stages.tokenizer import tokenize_document
    from datacat_ray.stages.zones import decode_zones, zone_token_indices

    span = tracer.span

    def one(url, lang, html, text):
        with span("dom.parse"):
            if html is not None:
                blocks = parse_main_blocks(html.decode("utf-8", errors="replace"))
            elif text is not None:
                blocks = blocks_from_plain_text(text)
            else:
                blocks = []
        if len(blocks) > st.max_blocks:
            return "", "", "", "", [], [], [], 0, 0, f"TOO_MANY_BLOCKS: {len(blocks)}"
        with span("tokenizer"):
            lines, tokens, token_line = tokenize_document(blocks)
        if len(tokens) > st.max_tokens:
            return "", "", "", "", [], [], [], 0, 0, f"TOO_MANY_TOKENS: {len(tokens)}"
        with span("line_features"):
            feats = featurize_lines(lines)
        positions["seg"] += len(feats)
        with span("crf.seg"):
            seg_labels = st.seg.decode(feats)
        line_labels = with_begin_prefix(seg_labels)
        zones = decode_zones(line_labels, token_line, len(tokens))
        body_ranges = zone_token_indices(zones, "<body>")
        with span("token_features"):
            bfeats, idx = featurize_body_tokens(tokens, token_line, lines,
                                                body_ranges)
        positions["body"] += len(bfeats)
        with span("crf.body"):
            body_labels = st.body.decode(bfeats)
        entries = body_label_runs(body_labels, idx)
        lexical: list[dict] = []
        for run in entries:
            if run["label"] != "<entry>":
                continue
            with span("lexical_features"):
                lfeats, lidx = featurize_entry_tokens(tokens, run["start"],
                                                      run["end"])
            if not lfeats:
                continue
            positions["lexical"] += len(lfeats)
            with span("crf.lexical"):
                lex_labels = st.lexical.decode(lfeats)
            lexical.extend(body_label_runs(lex_labels, lidx))
        with span("tei"):
            out = (
                extracted_text(tokens),
                unwrapped_text(lines),
                assemble_segmenter_tei(url, lang, lines, line_labels, None),
                assemble_body_tei(url, lang, tokens, entries, None,
                                  st.segment_sentences),
            )
        return (*out, zones, entries, lexical, len(lines), len(tokens), None)

    res = {k: [] for k in RESULT_SCHEMA.names}
    for url, ts, lang, html, text in zip(
        batch["url"].to_pylist(),
        batch["warc_ts"].to_pylist(),
        batch["lang"].to_pylist(),
        batch["html"].to_pylist(),
        batch["text"].to_pylist(),
    ):
        tracer.trace_id = url
        with span("doc"):
            try:
                (text_out, main, tei, tei_body, zones, entries, lexical,
                 n_lines, n_tokens, err) = one(url, lang, html, text)
            except Exception as exc:  # noqa: BLE001 — same poison-row rule
                text_out = main = tei = tei_body = ""
                zones, entries, lexical, n_lines, n_tokens = [], [], [], 0, 0
                err = f"{type(exc).__name__}: {exc}"
        for k, v in (("url", url), ("warc_ts", ts), ("lang", lang),
                     ("extracted_text", text_out), ("main_text", main),
                     ("tei", tei), ("tei_body", tei_body), ("zones", zones),
                     ("entries", entries), ("lexical", lexical),
                     ("n_lines", n_lines), ("n_tokens", n_tokens),
                     ("error", err)):
            res[k].append(v)
    return pa.Table.from_pydict(res, schema=RESULT_SCHEMA)


def paired_passes(winners: pa.Table, tracer: Tracer, batch_size: int,
                  first_traced: bool = False):
    """The traced walk and the untraced ``FusedExtractStage`` pass over the
    same batches, alternating which goes first, so both see the same host
    load. Returns (traced table, traced s, untraced table, untraced s,
    positions per decoder, the traced stage)."""
    from datacat_ray.pipelines.extract import FusedExtractStage

    traced_st, plain_st = FusedExtractStage(), FusedExtractStage()
    positions: Counter = Counter()
    outs: dict[bool, list] = {True: [], False: []}
    secs = {True: 0.0, False: 0.0}
    for i, start in enumerate(range(0, winners.num_rows, batch_size)):
        batch = winners.slice(start, batch_size)
        for traced in ((True, False) if (i % 2) != first_traced
                       else (False, True)):
            t0 = time.perf_counter()
            out = (traced_pass(batch, tracer, traced_st, positions) if traced
                   else plain_st(batch))
            secs[traced] += time.perf_counter() - t0
            outs[traced].append(out)
    return (pa.concat_tables(outs[True]), secs[True],
            pa.concat_tables(outs[False]), secs[False], positions, traced_st)


# ---------------------------------------------------------------------------
# Ray operator stats
# ---------------------------------------------------------------------------

_TASKS_RE = re.compile(r"(\d+) tasks executed")


def operator_stats(ds) -> list[dict]:
    """Per-operator figures of an executed Dataset, in execution order.
    Operators Ray fused into one task chain appear as one entry."""
    ops: list = []

    def walk(s) -> None:
        for p in s.parents:
            walk(p)
        ops.extend(s.operators_stats)

    walk(ds._get_stats_summary())
    out = []
    for op in ops:
        m = _TASKS_RE.search(op.block_execution_summary_str or "")
        out.append({
            "name": op.operator_name,
            "wall_s": (op.wall_time or {}).get("sum", 0.0),
            "cpu_s": (op.cpu_time or {}).get("sum", 0.0),
            "tasks": int(m.group(1)) if m else 0,
            "rows_out": (op.output_num_rows or {}).get("sum", 0),
            "peak_heap_mib": (op.memory or {}).get("max", 0.0),
        })
    return out


def operator_role(name: str) -> str:
    """read | map (the operator holding the fused kernel, with whatever Ray
    fused into it) | shuffle (everything between)."""
    if "_fused_task" in name:
        return "map"
    if name.startswith("Read"):
        return "read"
    return "shuffle"


def role_metrics(ops: list[dict]) -> dict[str, float]:
    out: dict[str, float] = {}
    for role in ("read", "map", "shuffle"):
        sel = [o for o in ops if operator_role(o["name"]) == role]
        out[f"ray.{role}.wall_s"] = sum(o["wall_s"] for o in sel)
        out[f"ray.{role}.cpu_s"] = sum(o["cpu_s"] for o in sel)
        out[f"ray.{role}.tasks"] = sum(o["tasks"] for o in sel)
        out[f"ray.{role}.rows_out"] = sum(o["rows_out"] for o in sel)
        out[f"ray.{role}.peak_heap_mib"] = max(
            (o["peak_heap_mib"] for o in sel), default=0.0)
    return out

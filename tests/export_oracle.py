"""The per-document value path of the training export: one page parsed,
tokenized and featurized to value columns (``line_columns``,
``body_token_columns``), labeled through the string path
(``CRFDecoder.decode`` of the row dicts), and written with the TEI
assemblers. The export runs batch-wide on ``VOCAB`` codes; its files must
equal these."""

from __future__ import annotations

from zone_oracle import decode_zones, segmenter_tei

from datacat_ray.stages.crf import CRFDecoder, with_begin_prefix
from datacat_ray.stages.dom import blocks_from_plain_text, parse_main_blocks
from datacat_ray.stages.line_features import _FIELD_NAMES, line_columns
from datacat_ray.stages.models import BODY_MODEL, SEGMENTER_MODEL
from datacat_ray.stages.tei import (
    _TEI_HEADER,
    assemble_body_tei,
    body_label_runs,
    doc_id,
    html_encode,
    lines_tei,
)
from datacat_ray.stages.token_features import (
    _TOKEN_FIELD_NAMES,
    body_token_columns,
    feature_rows,
)
from datacat_ray.stages.tokenizer import tokenize_document
from datacat_ray.stages.zones import zone_token_indices

SEG = CRFDecoder(SEGMENTER_MODEL)
BODY = CRFDecoder(BODY_MODEL)


def serialize_columns(cols: dict[str, list]) -> list[str]:
    """Feature columns → the whitespace serialization of every position
    (values in column order)."""
    return [" ".join(map(str, row)) for row in zip(*cols.values())]


def _text_tei(url, lang, text: str) -> str:
    return (_TEI_HEADER + "\t<teiHeader>\n"
            + f'\t\t<fileDesc xml:id="{doc_id(url)}"/>\n'
            + "\t</teiHeader>\n"
            + f'\t<text xml:lang="{html_encode(lang or "fr")}">\n'
            + text + "\t</text>\n</tei>\n")


def training_pair(url, lang, html, text, model: str,
                  blank: bool) -> dict[str, str]:
    """The export's files of one page: {path under the output dir:
    content}."""
    if html is not None:
        blocks = parse_main_blocks(html.decode("utf-8", errors="replace"))
    else:
        blocks = blocks_from_plain_text(text or "")
    lines, tokens, token_line = tokenize_document(blocks)
    cols = line_columns(lines, _FIELD_NAMES)
    line_labels = with_begin_prefix(SEG.decode(feature_rows(cols)))
    stem = doc_id(url)
    if model == "segmenter":
        name = f"{stem}.training.datacat"
        raw = cols
        if blank:
            tei = _text_tei(url, lang, lines_tei(lines.text))
        else:
            tei = segmenter_tei(url, lang, lines, line_labels)
    else:
        name = f"{stem}.training.bodySegmentation.datacat.text"
        zones = decode_zones(line_labels, token_line, len(tokens))
        body = zone_token_indices(zones, "<body>")
        raw, idx = body_token_columns(tokens, token_line, lines, body,
                                      _TOKEN_FIELD_NAMES)
        if blank:
            tei = _text_tei(url, lang, "".join(
                "<lb/>\n" if tokens[t] in ("\n", "\r", "\r\n")
                else html_encode(tokens[t])
                for a, b in body for t in range(a, b)) + "\n")
        else:
            entries = body_label_runs(BODY.decode(feature_rows(raw)), idx)
            tei = assemble_body_tei(url, lang, tokens, entries)
    tei_name = name + (".blank.tei.xml" if blank else ".tei.xml")
    return {f"tei/{tei_name}": tei,
            f"raw/{name}": "\n".join(serialize_columns(raw)) + "\n"}

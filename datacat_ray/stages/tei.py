"""TEI-XML + flat-text assembly (SURVEY.md M15 + M16 + S8 + S9).

Reference semantics re-created here:

- segmenter-level TEI: a state machine over labeled lines that opens/closes
  zone tags (``<front>/<body>/<back>/<annex>/<other>``) with 3-tab indents
  and ``<lb/>`` between lines, wrapped in the ``xml:space="preserve"``
  document template (``DatacatSegmenterParser.java:777-783, 844-994,
  1009-1088``).
- entry-level TEI: the same pattern over labeled body tokens with tags
  ``<entry> <title> <titledesc>`` and ``<other>`` → ``<note type="other">``,
  re-consuming the ORIGINAL token stream so skipped whitespace tokens are
  re-inserted verbatim and newlines become ``<lb/>``
  (``DatacatBodySegmentationParser.java:766-894``, resync loop ``:800-822``).
- flat text (the byte-identity surface, S9): concatenation of every layout
  token text (``DatacatSegmenterParser.java:820-827``).

Every convention here (indent tabs, ``<lb/>`` placement, escaping order) is
frozen: the golden fixtures are byte-compared against it.
"""

from __future__ import annotations

import hashlib
import re
from html import unescape
from itertools import accumulate

import numpy as np

from datacat_ray.functions.textkit import html_encode
from datacat_ray.stages.crf import span_starts, strip_begin_prefix
from datacat_ray.stages.tokenizer import Lines
from datacat_ray.stages.zones import line_runs

_TEI_HEADER = '<?xml version="1.0" encoding="UTF-8"?>\n<tei xml:space="preserve">\n'
_DEFAULT_LANG = "fr"  # reference fallback (DatacatSegmenterParser.java:810-818)

_BODY_TAG_MAP = {
    "<entry>": ("<entry>", "</entry>"),
    "<title>": ("<title>", "</title>"),
    "<titledesc>": ("<titledesc>", "</titledesc>"),
    "<other>": ('<note type="other">', "</note>"),
}


def doc_id(url: str) -> str:
    return "_" + hashlib.sha1(url.encode("utf-8")).hexdigest()[:16]


def extracted_text(tokens: list[str]) -> str:
    """S9: the rawtxt concatenation — byte-identical per url invariant."""
    return "".join(tokens)


def token_char_offsets(tokens: list[str]) -> list[int]:
    """Prefix char offsets of each token inside the flat extracted text
    (the S9 concatenation): ``offs[i]`` is where token ``i`` starts,
    ``offs[n]`` the total length. Token-span coordinates map to char-span
    coordinates through this table."""
    return list(accumulate(map(len, tokens), initial=0))


def _coords_attr(coords, k) -> str:
    """S12'-style ``coords`` attribute — the web analogue of the
    reference's ``-teiCoordinates`` option (``GrobidDatacatMainArgs.java``;
    geometry fields on ``EntryItem.java:20-31``): the input schema has no
    PDF geometry, so coordinates are char spans ``"start,end"`` into the
    byte-identity extracted text (half-open)."""
    if coords is None:
        return ""
    s, e = coords[k]
    return f' coords="{s},{e}"'


def lines_tei(texts: list[str]) -> str:
    """Line texts escaped, each followed by ``<lb/>`` and a newline: one
    ``html_encode`` of the joined texts (lines hold no ``"\n"``)."""
    if not texts:
        return ""
    return html_encode("\n".join(texts)).replace("\n", "<lb/>\n") + "<lb/>\n"


def tokens_tei(tokens: list[str], a: int, b: int) -> str:
    """Tokens ``[a, b)`` escaped, each newline token as ``<lb/>`` and a
    newline: one escape over their joined text (a newline is its own
    layout token, so its "\n" becomes "<lb/>\n"). With a "\r" the tokens
    render one by one: a "\r" token, a "\n" token and a "\r\n" token each
    render as one "<lb/>\n"."""
    text = "".join(tokens[a:b])
    if "\r" not in text:
        return html_encode(text).replace("\n", "<lb/>\n")
    return "".join("<lb/>\n" if tok in ("\n", "\r", "\r\n")
                   else html_encode(tok) for tok in tokens[a:b])


def tei_document(url: str, lang: str | None, content: str) -> str:
    """The TEI document template around a ``<text>`` element's content."""
    return (
        f"{_TEI_HEADER}\t<teiHeader>\n"
        f'\t\t<fileDesc xml:id="{doc_id(url)}"/>\n'
        "\t</teiHeader>\n"
        f'\t<text xml:lang="{html_encode(lang or _DEFAULT_LANG)}">\n'
        f"{content}\t</text>\n</tei>\n"
    )


def segmenter_tei(
    url: str, lang: str | None, lines: Lines, names: list[str], zones,
    coords: list[tuple[int, int]] | None = None,
) -> str:
    """Zone-tagged TEI over a document's zones as line runs: ``zones`` is
    their (label index into ``names``, first line, end line) arrays.
    ``coords`` (optional, one per zone) adds char-span coordinate
    attributes; see ``_coords_attr``."""
    parts = []
    for k, (i, a, b) in enumerate(zip(*(c.tolist() for c in zones))):
        tag = names[i][1:-1]  # "<front>" → "front"
        parts.append(f"\t\t\t<{tag}{_coords_attr(coords, k)}>"
                     f"{lines_tei(lines.text[a:b])}</{tag}>\n")
    return tei_document(url, lang, "".join(parts))


def _span_arrays(runs: list[tuple]) -> tuple[list[str], tuple]:
    """(label, start, end) triples → (their labels, (label index, start,
    end) arrays)."""
    return [r[0] for r in runs], tuple(np.array(
        [(i, a, b) for i, (_, a, b) in enumerate(runs)],
        dtype=np.intp).reshape(-1, 3).T)


def assemble_segmenter_tei(
    url: str, lang: str | None, lines: Lines, line_labels: list[str],
    coords: list[tuple[int, int]] | None = None,
) -> str:
    """``segmenter_tei`` of per-line labels (runs of one base label; the
    form perfbench's traced walk and the tests call)."""
    return segmenter_tei(url, lang, lines, *_span_arrays(
        [(lb, a, b + 1) for lb, a, b in line_runs(line_labels)]), coords)


def body_label_runs(body_labels: list[str], idx: list[int]) -> list[dict]:
    """Coalesce body token labels (``I-`` begin states) into entry spans
    ``(label, start, end)`` in the ABSOLUTE token offsets ``idx`` of the
    labels (half-open; ``end`` is one past the last labeled token) —
    ``span_starts`` of the label names."""
    bases = [strip_begin_prefix(lb) for lb in body_labels]
    at = {b: i for i, b in enumerate(dict.fromkeys(bases))}
    first = span_starts(
        np.array([at[b] for b in bases], dtype=np.intp),
        np.array([lb.startswith("I-") for lb in body_labels], dtype=bool),
        []).tolist()
    return [{"label": bases[t], "start": idx[t], "end": idx[e - 1] + 1}
            for t, e in zip(first, first[1:] + [len(bases)])]


def html_decode(s: str) -> str:
    """Inverse of ``html_encode`` (entity order reversed; ``&amp;`` last)."""
    return (
        s.replace("&quot;", '"')
        .replace("&gt;", ">")
        .replace("&lt;", "<")
        .replace("&amp;", "&")
    )


_ZONE_RE = re.compile(r"\t\t\t<(front|body|back|annex|other)>(.*?)</\1>\n",
                      re.S)
_REF_ZONE_RE = re.compile(
    r"<(front|body|back|annex|other|header|footnote)>(.*?)</\1>", re.S)
_REF_ENTRY_RE = re.compile(
    r"<(entry|title|titledesc|other|note)(?:\s[^>]*)?>(.*?)</\1>", re.S)


def parse_segmenter_tei(tei: str) -> list[tuple[str, str]]:
    """S6: TEI training-corpus source — parse a zone-tagged segmenter TEI
    document back into ``(line_text, label)`` pairs, the labeled-line list
    the trainer consumes (the engine analogue of
    ``TEIDatacatSegmenterSaxParser.java:23-189``). Exact inverse of
    ``assemble_segmenter_tei`` for every document it emits (round-trip
    property, tested)."""
    out: list[tuple[str, str]] = []
    for m in _ZONE_RE.finditer(tei):
        label = f"<{m.group(1)}>"
        content = m.group(2)
        for piece in content.split("<lb/>\n"):
            if piece == "":
                continue
            out.append((html_decode(piece), label))
    return out


def parse_reference_tei(text: str) -> list[tuple[str, str]]:
    """Parse a REFERENCE-corpus segmenter TEI training file (the actual
    committed format under ``resources/dataset/datacat-segmenter/corpus/
    tei/`` — zones at line start, lines separated by `` <lb/>``, XML
    entities escaped) into ``(line_text, label)`` pairs — the engine
    analogue of ``TEIDatacatSegmenterSaxParser.java:23-189`` run against
    the reference's own corpus."""
    body = text.split("<text", 1)[-1]
    out: list[tuple[str, str]] = []
    for m in _REF_ZONE_RE.finditer(body):
        label = f"<{m.group(1)}>"
        for piece in m.group(2).split("<lb/>"):
            line = unescape(piece).strip()
            if line:
                out.append((line, label))
    return out


def parse_reference_body_tei(text: str) -> list[tuple[str, str]]:
    """Parse a REFERENCE-corpus body-segmentation TEI file
    (``resources/dataset/datacat-body-segmentation/corpus/tei/``) into
    ``(label, element_text)`` pairs (``TEIDatacatBodySegmentationSaxParser
    .java:12-148`` analogue)."""
    body = text.split("<text", 1)[-1]
    out: list[tuple[str, str]] = []
    for m in _REF_ENTRY_RE.finditer(body):
        label = f"<{m.group(1)}>"
        content = unescape(m.group(2)).replace("<lb/>", "\n").strip()
        if content:
            out.append((label, content))
    return out


_SENT_END = frozenset({".", "!", "?"})
_SENT_CLOSE = frozenset({'"', "'", ")", "]", "”", "’"})


def split_sentence_spans(
    tokens: list[str], start: int, end: int
) -> list[tuple[int, int]]:
    """Deterministic rule sentence splitter over the layout token stream
    (the ``-segmentSentences`` analogue — ``GrobidDatacatMain.java:123,
    192-193`` parses the flag into the args bean; no reference parser
    consumes it, so this optional ``<s>`` level closes even the nominal
    gap). Rule: a sentence closes at a ``. ! ?`` token (plus any
    immediately following closing quotes/brackets) when the previous
    non-space token is not a single uppercase letter (initials: ``J.``),
    at least one whitespace token separates it from what follows (so
    decimal numbers — ``3.14``, ``section 2.5`` — never split), and the
    next non-space token starts with an uppercase letter or a digit (or
    the run ends). Pure token arithmetic — no model, no locale tables —
    so the split is reproducible anywhere. Returns [start, end)
    sub-spans covering each sentence; inter-sentence whitespace/newline
    tokens fall OUTSIDE the spans (rendered between ``<s>`` elements, so
    the entry's token concatenation is unchanged)."""

    def is_ws(t: str) -> bool:
        return t.strip() == ""

    spans: list[tuple[int, int]] = []
    i = start
    while i < end:
        while i < end and is_ws(tokens[i]):
            i += 1
        if i >= end:
            break
        s = i
        bend = None
        j = i
        while j < end:
            if tokens[j] in _SENT_END:
                k = j + 1
                while k < end and tokens[k] in _SENT_CLOSE:
                    k += 1
                pj = j - 1
                while pj >= s and is_ws(tokens[pj]):
                    pj -= 1
                prev = tokens[pj] if pj >= s else None
                is_initial = (
                    tokens[j] == "."
                    and prev is not None
                    and len(prev) == 1
                    and prev.isupper()
                )
                nk = k
                while nk < end and is_ws(tokens[nk]):
                    nk += 1
                nxt = tokens[nk] if nk < end else None
                # nk > k: something must follow AND be whitespace-separated
                # — '3.14' tokenizes as ['3','.','14'] with no gap, so the
                # digit rule alone would split inside decimal numbers
                if not is_initial and (
                    nxt is None
                    or (nk > k and (nxt[:1].isupper() or nxt[:1].isdigit()))
                ):
                    bend = k
                    break
            j += 1
        if bend is None:
            bend = end
            while bend > s and is_ws(tokens[bend - 1]):
                bend -= 1
        spans.append((s, bend))
        i = bend
    return spans


def body_tei(
    url: str,
    lang: str | None,
    tokens: list[str],
    names: list[str],
    entries,
    coords: list[tuple[int, int]] | None = None,
    segment_sentences: bool = False,
) -> str:
    """Entry-tagged TEI over the body token stream: ``entries`` is the
    (label index into ``names``, start, end) arrays of a document's entry
    runs. Content between a run's first and last labeled token is re-read
    from the original tokenization (whitespace re-insertion, J2); newline
    tokens render as ``<lb/>``. ``coords`` (optional, one per entry run)
    adds char-span coordinate attributes; see ``_coords_attr``.
    ``segment_sentences`` (off by default — golden bytes unchanged) wraps
    each sentence inside every entry element in ``<s>…</s>`` via
    ``split_sentence_spans``; inter-sentence whitespace stays between the
    ``<s>`` elements, so stripping the tags recovers the unsegmented entry
    byte-for-byte."""
    parts = []
    for k, (i, a, b) in enumerate(zip(*(c.tolist() for c in entries))):
        label = names[i]
        open_tag, close_tag = _BODY_TAG_MAP.get(
            label, (label, "</" + label[1:]))
        if coords is not None:
            open_tag = open_tag[:-1] + _coords_attr(coords, k) + ">"
        if segment_sentences:
            buf: list[str] = []
            pos = a
            for s, e in split_sentence_spans(tokens, a, b):
                buf += [tokens_tei(tokens, pos, s), "<s>",
                        tokens_tei(tokens, s, e), "</s>"]
                pos = e
            buf.append(tokens_tei(tokens, pos, b))
            content = "".join(buf)
        else:
            content = tokens_tei(tokens, a, b)
        parts.append(f"\t\t\t{open_tag}{content}{close_tag}\n")
    return tei_document(url, lang, "".join(parts))


def assemble_body_tei(
    url: str,
    lang: str | None,
    tokens: list[str],
    entries: list[dict],
    coords: list[tuple[int, int]] | None = None,
    segment_sentences: bool = False,
) -> str:
    """``body_tei`` of ``{label, start, end}`` dicts (the form perfbench's
    traced walk and the tests call)."""
    return body_tei(url, lang, tokens, *_span_arrays(
        [(r["label"], r["start"], r["end"]) for r in entries]), coords,
        segment_sentences)

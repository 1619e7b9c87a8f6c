"""Row-major oracles of the cascade's front half, and converters between
row dicts and the column objects (``dom.Blocks``, ``tokenizer.Lines``).

- ``parse_main_blocks_stdlib``: the block state machine driven by the
  stdlib ``html.parser``, one method call per tag and text event, one
  dict per block. ``dom.parse_main_blocks`` must equal it on well-formed
  HTML.
- ``blocks_from_plain_text_rows`` / ``tokenize_document_rows``: the
  per-line tokenizer over block dicts, one dict per line, and the line
  feature columns that read the line structs (``line_struct_columns``).
"""

from __future__ import annotations

from html.parser import HTMLParser

from datacat_ray.functions.textkit import linear_scaling, tokenize_layout
from datacat_ray.stages.dom import (
    _BASE_FONT,
    _BLOCK_TAGS,
    _BOILERPLATE_TAGS,
    _FONT_SIZES,
    LINES_PER_PAGE,
    LINK_DENSITY_MAX,
    SHORT_BLOCK_CHARS,
    SHORT_LINK_DENSITY_MAX,
    Blocks,
)
from datacat_ray.stages.line_features import LINESCALE
from datacat_ray.stages.token_features import NBBINS_POSITION
from datacat_ray.stages.tokenizer import Lines, wrap_text
from line_oracle import font_size_status, font_status


def rows(cols) -> list[dict]:
    """A column object → one dict per row, keys in field order."""
    fields = type(cols).__slots__
    return [dict(zip(fields, r))
            for r in zip(*(getattr(cols, f) for f in fields))]


_LINE_DEFAULTS = {"text": "", "block_id": 0, "page": 0, "line_in_block": 0,
                  "block_n_lines": 1, "font_size": 12.0, "bold": False,
                  "italic": False}


def blocks_of(dicts: list[dict]) -> Blocks:
    """Block dicts → ``Blocks`` (extra keys ignored)."""
    return Blocks(*([d[f] for d in dicts] for f in Blocks.__slots__))


def lines_of(dicts: list[dict]) -> Lines:
    """Line dicts → ``Lines``; a missing field takes a one-line-block
    default."""
    return Lines(*([d.get(f, _LINE_DEFAULTS[f]) for d in dicts]
                   for f in Lines.__slots__))


class _BlockParser(HTMLParser):
    """Single-pass DOM walk accumulating text into layout blocks with
    link-char accounting per block."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.blocks: list[dict] = []
        self._parts: list[str] = []
        self._link_chars = 0
        self._total_chars = 0
        self._bold = 0
        self._italic = 0
        self._link = 0
        self._boiler = 0
        self._font_stack: list[float] = []

    def _flush(self) -> None:
        text = " ".join("".join(self._parts).split())
        if text:
            self.blocks.append({
                "text": text,
                "font_size": (self._font_stack[-1] if self._font_stack
                              else _BASE_FONT),
                "bold": self._bold > 0,
                "italic": self._italic > 0,
                "link_chars": self._link_chars,
                "total_chars": self._total_chars,
                "in_boilerplate": self._boiler > 0,
            })
        self._parts = []
        self._link_chars = 0
        self._total_chars = 0

    def handle_starttag(self, tag: str, attrs) -> None:
        if tag in _BLOCK_TAGS:
            self._flush()
        if tag in _BOILERPLATE_TAGS:
            self._boiler += 1
        if tag in ("b", "strong") or tag in _FONT_SIZES:
            self._bold += 1
        if tag in ("i", "em"):
            self._italic += 1
        if tag == "a":
            self._link += 1
        if tag in _FONT_SIZES:
            self._font_stack.append(_FONT_SIZES[tag])

    def handle_endtag(self, tag: str) -> None:
        if tag in _BLOCK_TAGS:
            self._flush()
        if tag in _BOILERPLATE_TAGS and self._boiler:
            self._boiler -= 1
        if (tag in ("b", "strong") or tag in _FONT_SIZES) and self._bold:
            self._bold -= 1
        if tag in ("i", "em") and self._italic:
            self._italic -= 1
        if tag == "a" and self._link:
            self._link -= 1
        if tag in _FONT_SIZES and self._font_stack:
            self._font_stack.pop()

    def handle_data(self, data: str) -> None:
        self._parts.append(data)
        n = len(data.strip())
        self._total_chars += n
        if self._link:
            self._link_chars += n

    def close(self) -> None:  # flush trailing text
        super().close()
        self._flush()


def _is_boilerplate(rb: dict) -> bool:
    if rb["in_boilerplate"]:
        return True
    ld = rb["link_chars"] / rb["total_chars"] if rb["total_chars"] else 0.0
    if ld > LINK_DENSITY_MAX:
        return True
    return len(rb["text"]) < SHORT_BLOCK_CHARS and ld > SHORT_LINK_DENSITY_MAX


def parse_main_blocks_stdlib(html: str) -> list[dict]:
    """Main-content block dicts (``dom.Blocks`` fields) of an
    ``html.parser`` walk."""
    parser = _BlockParser()
    parser.feed(html)
    parser.close()
    out: list[dict] = []
    line_count = 0
    for rb in parser.blocks:
        if _is_boilerplate(rb):
            continue
        out.append({"text": rb["text"], "page": line_count // LINES_PER_PAGE,
                    "font_size": rb["font_size"], "bold": rb["bold"],
                    "italic": rb["italic"]})
        line_count += rb["text"].count("\n") + 1
    return out


def blocks_from_plain_text_rows(text: str) -> list[dict]:
    out = []
    i = 0
    for line in text.split("\n"):
        line = line.strip()
        if not line:
            continue
        out.append({"text": line, "page": i // LINES_PER_PAGE,
                    "font_size": _BASE_FONT, "bold": False, "italic": False})
        i += 1
    return out


def tokenize_document_rows(
    blocks: list[dict],
) -> tuple[list[dict], list[str], list[int]]:
    """Block dicts → (line dicts, tokens, token_line), one
    ``tokenize_layout`` call per line."""
    lines: list[dict] = []
    for block_id, blk in enumerate(blocks):
        wrapped = wrap_text(blk["text"])
        n = len(wrapped)
        for j, lt in enumerate(wrapped):
            lines.append({"text": lt, "block_id": block_id,
                          "page": blk["page"], "line_in_block": j,
                          "block_n_lines": n, "font_size": blk["font_size"],
                          "bold": blk["bold"], "italic": blk["italic"]})
    tokens: list[str] = []
    token_line: list[int] = []
    for i, ln in enumerate(lines):
        if i > 0:
            tokens.append("\n")
            token_line.append(i - 1)
        ltoks = tokenize_layout(ln["text"])
        tokens.extend(ltoks)
        token_line.extend([i] * len(ltoks))
    return lines, tokens, token_line


def line_struct_columns(lines: list[dict]) -> dict[str, list]:
    """The line feature columns read from line structs other than the
    text, from line dicts."""
    first: dict[int, int] = {}
    count: dict[int, int] = {}
    pages = [ln["page"] for ln in lines]
    for i, pg in enumerate(pages):
        first.setdefault(pg, i)
        count[pg] = count.get(pg, 0) + 1
    in_page = [(i - first[pg], count[pg]) for i, pg in enumerate(pages)]
    block_maxlen: dict[int, int] = {}
    for ln in lines:
        b = ln["block_id"]
        block_maxlen[b] = max(block_maxlen.get(b, 0), len(ln["text"]))
    return {
        "block_status": [
            "BLOCKSTART" if ln["line_in_block"] == 0
            else "BLOCKEND" if ln["line_in_block"] == ln["block_n_lines"] - 1
            else "BLOCKIN" for ln in lines],
        "page_status": ["PAGESTART" if i == 0 else "PAGEEND" if i == c - 1
                        else "PAGEIN" for i, c in in_page],
        "font_status": font_status([(ln["bold"], ln["italic"])
                                    for ln in lines]),
        "font_size_status": font_size_status([ln["font_size"]
                                              for ln in lines]),
        "bold": [int(bool(ln["bold"])) for ln in lines],
        "italic": [int(bool(ln["italic"])) for ln in lines],
        "rel_page_position": [linear_scaling(i, c, NBBINS_POSITION)
                              for i, c in in_page],
        "line_length": [linear_scaling(len(ln["text"]),
                                       block_maxlen[ln["block_id"]],
                                       LINESCALE) for ln in lines],
    }

"""HTML → layout-block parse with boilerplate stripping (SURVEY.md S2').

Replaces the reference's PDF→ALTO layout parse (``DocumentSource.fromPdf``
call sites at ``DatacatBodySegmentationParser.java:69-85``,
``DatacatSegmenterParser.java:797``) per the north rule: the per-document
tree here is a DOM node tree, and the boilerplate-removal heuristic is
text-density / link-density scoring over block-level elements (the
generalization of the reference's repetitive header/footer pattern miner,
``DatacatSegmenterParser.java:268-305``).

Per-document contract: ``html`` bytes (or, when ``html`` is null, the
``text`` column — the reference raw-text path ``Document.createFromText``,
``DatacatSegmenterParser.java:132-135``) → a list of blocks
``{text, page, font_size, bold, italic, link_density}``
(``parse_main_blocks`` / ``blocks_from_plain_text``).

Blocks carry pseudo-layout attributes (font size / bold / italic from the
HTML tag, pseudo-pages of ``LINES_PER_PAGE`` lines) so the downstream
featurizers can compute the reference's font/page-transition features.
"""

from __future__ import annotations

from dataclasses import dataclass
from html.parser import HTMLParser

import pyarrow as pa

# block-level elements: entering one flushes the current text block
_BLOCK_TAGS = {
    "p", "h1", "h2", "h3", "h4", "h5", "h6", "div", "li", "td", "th",
    "blockquote", "pre", "tr", "ul", "ol", "table", "section", "article",
    "nav", "footer", "header", "aside", "main", "br", "hr", "title",
}
# subtree containers that are boilerplate wholesale
_BOILERPLATE_TAGS = {"nav", "footer", "aside", "script", "style", "head", "noscript"}
_FONT_SIZES = {"h1": 24.0, "h2": 20.0, "h3": 18.0, "h4": 16.0, "h5": 14.0, "h6": 13.0}
_BASE_FONT = 12.0

LINES_PER_PAGE = 40

BLOCK_STRUCT = pa.struct(
    [
        ("text", pa.string()),
        ("page", pa.int32()),
        ("font_size", pa.float32()),
        ("bold", pa.bool_()),
        ("italic", pa.bool_()),
        ("link_density", pa.float32()),
    ]
)

BLOCKS_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("lang", pa.string()),
        ("blocks", pa.list_(BLOCK_STRUCT)),
        ("error", pa.string()),
    ]
)


@dataclass
class _RawBlock:
    text: str
    font_size: float
    bold: bool
    italic: bool
    link_chars: int
    total_chars: int
    in_boilerplate: bool

    @property
    def link_density(self) -> float:
        return self.link_chars / self.total_chars if self.total_chars else 0.0


class _BlockParser(HTMLParser):
    """Single-pass DOM walk accumulating text into layout blocks with
    link-char accounting per block."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.blocks: list[_RawBlock] = []
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
            self.blocks.append(
                _RawBlock(
                    text=text,
                    font_size=self._font_stack[-1] if self._font_stack else _BASE_FONT,
                    bold=self._bold > 0,
                    italic=self._italic > 0,
                    link_chars=self._link_chars,
                    total_chars=self._total_chars,
                    in_boilerplate=self._boiler > 0,
                )
            )
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


# boilerplate decision thresholds (text-density/link-density heuristic,
# Kohlschütter-style): a block is boilerplate when it lives in a known
# chrome container, is link-dominated, or is a short link-ish fragment.
LINK_DENSITY_MAX = 0.45
SHORT_BLOCK_CHARS = 25
SHORT_LINK_DENSITY_MAX = 0.2


def is_boilerplate(block: _RawBlock) -> bool:
    if block.in_boilerplate:
        return True
    ld = block.link_density
    if ld > LINK_DENSITY_MAX:
        return True
    if len(block.text) < SHORT_BLOCK_CHARS and ld > SHORT_LINK_DENSITY_MAX:
        return True
    return False


import re as _re

_SCRIPT_STYLE_RE = _re.compile(
    r"<(script|style)\b[^>]*>.*?</\1\s*>", _re.S | _re.I
)
_COMMENT_RE = _re.compile(r"<!--.*?-->|<!\[CDATA\[.*?\]\]>|<![^>]*>", _re.S)
# quoted attribute values may contain '>' (<a title="a>b">) — but a quote
# only opens a quoted span in VALUE position (right after '='), matching
# the stdlib parser: unquoted values containing a quote (<a title=don't>)
# must not swallow text to the next quote
_TAG_RE = _re.compile(
    r"<(/?)([a-zA-Z][a-zA-Z0-9]*)(?:=\s*\"[^\"]*\"|=\s*'[^']*'|[^>])*?(/?)>"
)


def _scan_html(html: str, parser: _BlockParser) -> None:
    """Regex tag scanner driving the SAME ``_BlockParser`` state machine as
    the stdlib ``HTMLParser`` path — identical block output on well-formed
    HTML (asserted against the stdlib parser in tests) at a fraction of the
    cost (``html.parser``'s char-by-char ``goahead`` was ~30% of the whole
    cascade). Script/style subtrees and comments are stripped up front so
    markup inside them cannot perturb tag state."""
    from html import unescape

    html = _SCRIPT_STYLE_RE.sub("", html)
    html = _COMMENT_RE.sub("", html)
    pos = 0
    for m in _TAG_RE.finditer(html):
        if m.start() > pos:
            text = html[pos : m.start()]
            parser.handle_data(unescape(text) if "&" in text else text)
        tag = m.group(2).lower()
        if m.group(1):
            parser.handle_endtag(tag)
        else:
            parser.handle_starttag(tag, [])
            if m.group(3):  # self-closing <br/> — stdlib calls start+end
                parser.handle_endtag(tag)
        pos = m.end()
    if pos < len(html):
        text = html[pos:]
        parser.handle_data(unescape(text) if "&" in text else text)


def parse_main_blocks(html: str, engine: str = "scan") -> list[dict]:
    """Parse HTML and return the main-content blocks (boilerplate stripped)
    as dicts matching BLOCK_STRUCT, with pseudo-page assignment.

    ``engine="scan"`` (default) uses the regex scanner; ``"stdlib"`` uses
    ``html.parser`` — same state machine, kept for conformance testing."""
    parser = _BlockParser()
    if engine == "scan":
        _scan_html(html, parser)
    else:
        parser.feed(html)
    parser.close()
    out: list[dict] = []
    line_count = 0
    for rb in parser.blocks:
        if is_boilerplate(rb):
            continue
        n_lines = rb.text.count("\n") + 1
        out.append(
            {
                "text": rb.text,
                "page": line_count // LINES_PER_PAGE,
                "font_size": rb.font_size,
                "bold": rb.bold,
                "italic": rb.italic,
                "link_density": rb.link_density,
            }
        )
        line_count += n_lines
    return out


def blocks_from_plain_text(text: str) -> list[dict]:
    """Raw-text fallback (reference ``Document.createFromText``): one block
    per non-empty line, base font, pseudo-pages."""
    out = []
    i = 0
    for line in text.split("\n"):
        line = line.strip()
        if not line:
            continue
        out.append(
            {
                "text": line,
                "page": i // LINES_PER_PAGE,
                "font_size": _BASE_FONT,
                "bold": False,
                "italic": False,
                "link_density": 0.0,
            }
        )
        i += 1
    return out

"""HTML → layout-block parse with boilerplate stripping (SURVEY.md S2').

Replaces the reference's PDF→ALTO layout parse (``DocumentSource.fromPdf``
call sites at ``DatacatBodySegmentationParser.java:69-85``,
``DatacatSegmenterParser.java:797``) per the north rule: the per-document
tree here is a DOM node tree, and the boilerplate-removal heuristic is
text-density / link-density scoring over block-level elements (the
generalization of the reference's repetitive header/footer pattern miner,
``DatacatSegmenterParser.java:268-305``).

Per-document contract: ``html`` text (or, when ``html`` is null, the
``text`` column — the reference raw-text path ``Document.createFromText``,
``DatacatSegmenterParser.java:132-135``) → the main-content ``Blocks`` of
the document, column-major: one list per field

    text       the block's whitespace-normalized text (never empty, no "\\n")
    page       pseudo-page: the block's index among kept blocks // LINES_PER_PAGE
    font_size  float, from the enclosing heading tag (base 12.0)
    bold       bool, inside b/strong/h1-h6
    italic     bool, inside i/em

with ``len()`` the block count (``parse_main_blocks`` /
``blocks_from_plain_text``). The pseudo-layout attributes let the
downstream featurizers compute the reference's font/page-transition
features.
"""

from __future__ import annotations

import re
from html import unescape

# block-level elements: entering or leaving one flushes the current block
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

# boilerplate decision thresholds (text-density/link-density heuristic,
# Kohlschütter-style): a block is boilerplate when it lives in a known
# chrome container, is link-dominated, or is a short link-ish fragment.
LINK_DENSITY_MAX = 0.45
SHORT_BLOCK_CHARS = 25
SHORT_LINK_DENSITY_MAX = 0.2

# tag → (flushes a block, boilerplate, bold, italic, link, heading font
# size or 0.0); tags absent here have no effect
_ACTIONS = {
    tag: (tag in _BLOCK_TAGS, int(tag in _BOILERPLATE_TAGS),
          int(tag in ("b", "strong") or tag in _FONT_SIZES),
          int(tag in ("i", "em")), int(tag == "a"), _FONT_SIZES.get(tag, 0.0))
    for tag in (_BLOCK_TAGS | _BOILERPLATE_TAGS | _FONT_SIZES.keys()
                | {"b", "strong", "i", "em", "a"})
}

_SCRIPT_STYLE_RE = re.compile(
    r"<(script|style)\b[^>]*>.*?</\1\s*>", re.S | re.I
)
_COMMENT_RE = re.compile(r"<!--.*?-->|<!\[CDATA\[.*?\]\]>|<![^>]*>", re.S)
# quoted attribute values may contain '>' (<a title="a>b">) — but a quote
# only opens a quoted span in VALUE position (right after '='), matching
# the stdlib parser: unquoted values containing a quote (<a title=don't>)
# must not swallow text to the next quote
_TAG_RE = re.compile(
    r"<(/?)([a-zA-Z][a-zA-Z0-9]*)(?:=\s*\"[^\"]*\"|=\s*'[^']*'|[^>])*?(/?)>"
)


class Blocks:
    """One document's blocks, column-major: one list per field (see the
    module docstring); ``len()`` is the block count."""

    __slots__ = ("text", "page", "font_size", "bold", "italic")

    def __init__(self, text, page, font_size, bold, italic) -> None:
        self.text, self.page, self.font_size = text, page, font_size
        self.bold, self.italic = bold, italic

    def __len__(self) -> int:
        return len(self.text)

    def take(self, rows) -> "Blocks":
        """The blocks at the indices ``rows``, in that order."""
        return Blocks(*([getattr(self, f)[i] for i in rows]
                        for f in self.__slots__))


def parse_main_blocks(html: str) -> Blocks:
    """Parse HTML into its main-content blocks, boilerplate stripped, with
    pseudo-page assignment.

    One scanner loop over the text/tag pieces of ``_TAG_RE.split``: each
    tag's effect comes from ``_ACTIONS``, text accumulates into the
    current block, and a block-level tag flushes it. A flushed block is
    dropped when it sits inside a boilerplate container or is
    link-dominated; its link density is the link text's stripped length
    over all its text's, each text piece (one run between two tags, HTML
    entities decoded) stripped on its own. Script/style subtrees and
    comments are removed up front so markup inside them cannot perturb
    tag state. On well-formed HTML the blocks equal an ``html.parser``
    walk of the same state machine (asserted in tests)."""
    html = _COMMENT_RE.sub("", _SCRIPT_STYLE_RE.sub("", html))
    pieces = _TAG_RE.split(html)
    # [text, "/"?, tag, "/"?, text, ...]: a closing </br> stands in for
    # the end of the document, so the loop's flush emits the last block
    pieces[-1:] = [pieces[-1], "/", "br", "", ""]
    texts: list[str] = []
    sizes: list[float] = []
    bolds: list[bool] = []
    italics: list[bool] = []
    parts: list[str] = []
    link_chars = 0
    boiler = bold = italic = link = 0
    fonts: list[float] = []
    for k in range(0, len(pieces) - 1, 4):
        data = pieces[k]
        if data:
            if "&" in data:
                data = unescape(data)
            parts.append(data)
            if link:
                link_chars += len(data.strip())
        act = _ACTIONS.get(pieces[k + 2].lower())
        if act is None:
            continue
        flush, is_boiler, is_bold, is_italic, is_link, font = act
        if flush and parts:
            if not boiler:
                text = " ".join("".join(parts).split())
                if text:
                    if link_chars:
                        ld = link_chars / sum(len(p.strip()) for p in parts)
                        keep = ld <= LINK_DENSITY_MAX and (
                            len(text) >= SHORT_BLOCK_CHARS
                            or ld <= SHORT_LINK_DENSITY_MAX)
                    else:
                        keep = True
                    if keep:
                        texts.append(text)
                        sizes.append(fonts[-1] if fonts else _BASE_FONT)
                        bolds.append(bold > 0)
                        italics.append(italic > 0)
            parts = []
            link_chars = 0
        if pieces[k + 1]:  # end tag: undo what its start tag did
            if is_boiler and boiler:
                boiler -= 1
            if is_bold and bold:
                bold -= 1
            if is_italic and italic:
                italic -= 1
            if is_link and link:
                link -= 1
            if font and fonts:
                fonts.pop()
        elif not pieces[k + 3]:  # start tag; a self-closing one is a no-op
            boiler += is_boiler
            bold += is_bold
            italic += is_italic
            link += is_link
            if font:
                fonts.append(font)
    return Blocks(texts, [i // LINES_PER_PAGE for i in range(len(texts))],
                  sizes, bolds, italics)


def blocks_from_plain_text(text: str) -> Blocks:
    """Raw-text fallback (reference ``Document.createFromText``): one block
    per non-empty line, base font, pseudo-pages."""
    texts = [s for s in map(str.strip, text.split("\n")) if s]
    n = len(texts)
    return Blocks(texts, [i // LINES_PER_PAGE for i in range(n)],
                  [_BASE_FONT] * n, [False] * n, [False] * n)

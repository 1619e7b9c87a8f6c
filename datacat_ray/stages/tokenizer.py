"""Tokenization into pseudo-layout lines and layout tokens (SURVEY.md M1 + M2).

Reference semantics: ``doc.addTokenizedDocument(config)`` builds the
LayoutToken stream (``DatacatSegmenterParser.java:109``); the rawtxt sink is
the concatenation of every token text including whitespace tokens
(``DatacatSegmenterParser.java:820-827``); lines are the segmenter's labeling
unit derived from block text (``DatacatSegmenterParser.java:393-404``).

Here each DOM block's text is wrapped into pseudo-layout lines of
``WRAP_WIDTH`` characters (the HTML analogue of the PDF's physical lines),
tokens are produced per line with explicit ``"\\n"`` tokens between lines, and
the invariant ``"".join(tokens) == "\\n".join(lines.text)`` holds per
document — that concatenation IS the ``extracted_text`` byte-identity
surface.

Per-document contract (``tokenize_document``): ``dom.Blocks`` →

    lines:      Lines, column-major, one list per field:
                  text, block_id, page, line_in_block, block_n_lines,
                  font_size, bold, italic  (the last three from the block)
    tokens:     list[str], the full-document layout token stream
    token_line: list[int], the line id owning each token (a "\\n" token
                belongs to the line it ends)
"""

from __future__ import annotations

from itertools import chain, repeat

from datacat_ray.functions.textkit import tokenize_layout
from datacat_ray.stages.dom import Blocks

WRAP_WIDTH = 80


class Lines:
    """One document's pseudo-layout lines, column-major: one list per field
    (see the module docstring); ``len()`` is the line count."""

    __slots__ = ("text", "block_id", "page", "line_in_block", "block_n_lines",
                 "font_size", "bold", "italic")

    def __init__(self, text, block_id, page, line_in_block, block_n_lines,
                 font_size, bold, italic) -> None:
        self.text, self.block_id, self.page = text, block_id, page
        self.line_in_block, self.block_n_lines = line_in_block, block_n_lines
        self.font_size, self.bold, self.italic = font_size, bold, italic

    def __len__(self) -> int:
        return len(self.text)


def wrap_text(text: str, width: int = WRAP_WIDTH) -> list[str]:
    """Deterministic greedy word wrap; words longer than ``width`` stand
    alone on their own line. Never drops or duplicates characters except the
    spaces consumed at wrap points (matching physical-line semantics where a
    line break replaces the inter-word space)."""
    if len(text) <= width:
        return [text] if text else []
    out: list[str] = []
    cur: list[str] = []
    cur_len = 0
    for word in text.split(" "):
        add = len(word) if not cur else cur_len + 1 + len(word)
        if cur and add > width:
            out.append(" ".join(cur))
            cur = [word]
            cur_len = len(word)
        else:
            cur.append(word)
            cur_len = add
    if cur:
        out.append(" ".join(cur))
    return out


def tokenize_document(blocks: Blocks) -> tuple[Lines, list[str], list[int]]:
    """Pure per-document kernel: blocks → (lines, tokens, token_line)."""
    texts = blocks.text
    n = len(texts)
    if all(texts) and max(map(len, texts), default=0) <= WRAP_WIDTH:
        # every block is one line: the block columns are the line columns
        lines = Lines(texts, list(range(n)), blocks.page, [0] * n, [1] * n,
                      blocks.font_size, blocks.bold, blocks.italic)
    else:
        wrapped = list(map(wrap_text, texts))
        counts = list(map(len, wrapped))
        block_id = list(chain.from_iterable(map(repeat, range(n), counts)))

        def spread(col: list) -> list:  # a block column over the lines
            return list(map(col.__getitem__, block_id))

        lines = Lines(list(chain.from_iterable(wrapped)), block_id,
                      spread(blocks.page),
                      list(chain.from_iterable(map(range, counts))),
                      list(chain.from_iterable(map(repeat, counts, counts))),
                      spread(blocks.font_size), spread(blocks.bold),
                      spread(blocks.italic))
    per_line = list(map(tokenize_layout, lines.text))
    for toks in per_line[:-1]:
        toks.append("\n")
    tokens = list(chain.from_iterable(per_line))
    token_line = list(chain.from_iterable(
        map(repeat, range(len(per_line)), map(len, per_line))))
    return lines, tokens, token_line

"""Deterministic scalar text kernels (SURVEY.md §2.7).

These feed the feature vectors, which feed the CRF labels, which feed the
output bytes — so every function here is pure, locale-independent, and
covered by unit tests. Reference semantics (described, not copied):

- prefix/suffix: ``FeaturesVectorDatacatEntries.java:63-72``
- capitalisation / digit classes: ``DatacatSegmenterParser.java:501-543``
- punctuation profile of a line: ``DatacatSegmenterParser.java:463``
- punctuation class of a token: ``DatacatBodySegmentationParser.java:317-338``
- linearScaling discretization (upstream FeatureFactory), call sites
  ``DatacatSegmenterParser.java:580-602``
- HTMLEncode escaping: ``DatacatSegmenterParser.java:881-883``
- UnicodeUtil.normaliseTextAndRemoveSpaces: ``DatacatSegmenterTrainer.java:166``
- layout tokenization (upstream GrobidAnalyzer delimiters), call site
  ``DatacatSegmenterParser.java:109``
"""

from __future__ import annotations

import functools
import re
import unicodedata

# ---------------------------------------------------------------------------
# prefixes / suffixes
# ---------------------------------------------------------------------------


def prefix(s: str, n: int) -> str:
    """First ``n`` chars; the whole string when shorter (never padded)."""
    return s[:n] if len(s) >= n else s


def suffix(s: str, n: int) -> str:
    """Last ``n`` chars; the whole string when shorter."""
    return s[-n:] if len(s) >= n else s


# ---------------------------------------------------------------------------
# character-class features
# ---------------------------------------------------------------------------

_DIGIT_RE = re.compile(r"\d")
_ALLDIGIT_RE = re.compile(r"^\d+$")


@functools.lru_cache(maxsize=100_000)
def digit_class(token: str) -> str:
    """ALLDIGIT / CONTAINSDIGITS / NODIGIT."""
    if not token:
        return "NODIGIT"
    if _ALLDIGIT_RE.match(token):
        return "ALLDIGIT"
    if _DIGIT_RE.search(token):
        return "CONTAINSDIGITS"
    return "NODIGIT"


@functools.lru_cache(maxsize=100_000)
def capitalisation_class(token: str) -> str:
    """INITCAP / ALLCAP / NOCAPS; all-digit tokens are NOCAPS.

    Reference: capitalization tests at ``DatacatSegmenterParser.java:501-507``
    (ALLDIGIT => NOCAPS override).
    """
    if not token or digit_class(token) == "ALLDIGIT":
        return "NOCAPS"
    letters = [c for c in token if c.isalpha()]
    if not letters:
        return "ALLCAP" if token.isupper() else "NOCAPS"
    if all(c.isupper() for c in letters):
        return "ALLCAP"
    if token[0].isupper():
        return "INITCAP"
    return "NOCAPS"


# ---------------------------------------------------------------------------
# punctuation
# ---------------------------------------------------------------------------

_OPEN_BRACKETS = set("([{<")
_END_BRACKETS = set(")]}>")
_QUOTES = set("\"'`«»“”‘’")
_PUNCT_CHARS = set(".,;:!?-—–'\"`()[]{}<>«»“”‘’/\\|@#%&*_+=~^")


@functools.lru_cache(maxsize=100_000)
def punct_type(token: str) -> str:
    """Punctuation class of a single token.

    OPENBRACKET / ENDBRACKET / DOT / COMMA / HYPHEN / QUOTE / PUNCT / NOPUNCT
    — reference: ``DatacatBodySegmentationParser.java:317-338``.
    """
    if len(token) == 1:
        c = token
        if c in _OPEN_BRACKETS:
            return "OPENBRACKET"
        if c in _END_BRACKETS:
            return "ENDBRACKET"
        if c == ".":
            return "DOT"
        if c == ",":
            return "COMMA"
        if c in "-—–":
            return "HYPHEN"
        if c in _QUOTES:
            return "QUOTE"
        if c in _PUNCT_CHARS:
            return "PUNCT"
    elif token and any(c in _PUNCT_CHARS for c in token):
        return "PUNCT"
    return "NOPUNCT"


def punctuation_profile(line: str, max_len: int = 10) -> str:
    """Concatenation of the punctuation characters of a line, in order,
    capped at ``max_len``; ``"no"`` when the line has none.

    Mirrors the profile column seen in the reference raw corpus files
    (values like ``"."``, ``","``, ``"no"`` — column 26 of
    ``resources/dataset/datacat-segmenter/corpus/raw/*``).
    """
    prof = "".join(c for c in line if c in _PUNCT_CHARS)[:max_len]
    return prof if prof else "no"


def punct_count(line: str) -> int:
    return sum(1 for c in line if c in _PUNCT_CHARS)


# ---------------------------------------------------------------------------
# discretization
# ---------------------------------------------------------------------------


def linear_scaling(value: float, maximum: float, nb_bins: int) -> int:
    """Map ``value`` in ``[0, maximum]`` to an integer bin ``[0, nb_bins]``.

    Exact integer-bin arithmetic matters (SURVEY.md M8): bin =
    floor(nb_bins * value / maximum), clamped to [0, nb_bins]; a
    non-positive maximum yields bin 0.
    """
    if maximum <= 0:
        return 0
    b = int(nb_bins * (value / maximum))
    if b < 0:
        return 0
    if b > nb_bins:
        return nb_bins
    return b


def position_bins(n: int, nb_bins: int) -> list[int]:
    """``linear_scaling(i, n, nb_bins)`` of every position ``i`` of an
    ``n``-long sequence (``0 <= i < n``, so its clamps never apply)."""
    return [int(nb_bins * (i / n)) for i in range(n)]


# ---------------------------------------------------------------------------
# escaping / normalization
# ---------------------------------------------------------------------------


def html_encode(s: str) -> str:
    """Minimal XML escaping used when emitting TEI text content.

    Reference call sites: ``DatacatSegmenterParser.java:881-883``. ``&`` first.
    """
    return (
        s.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def normalise_text_and_remove_spaces(s: str) -> str:
    """NFC-normalize and strip ALL whitespace — the trainer-alignment
    canonical form (reference: UnicodeUtil.normaliseTextAndRemoveSpaces,
    ``DatacatSegmenterTrainer.java:163-176``)."""
    return re.sub(r"\s+", "", unicodedata.normalize("NFC", s))


# ---------------------------------------------------------------------------
# tokenization
# ---------------------------------------------------------------------------

# layout-analyzer delimiter set: whitespace + punctuation are their own
# tokens; whitespace tokens are PRESERVED in the stream (they carry the
# byte-identity of the flat-text output — DatacatSegmenterParser.java:820-827
# concatenates every token text including spaces/newlines).
_LAYOUT_TOKEN_RE = re.compile(
    r"[ \t\f ]+|\n|\r\n?|[.,;:!?\-—–'\"`()\[\]{}«»“”‘’/\\|@#%&*_+=~^]"
    r"|[^\s.,;:!?\-—–'\"`()\[\]{}«»“”‘’/\\|@#%&*_+=~^]+|\s"
)


def tokenize_layout(text: str) -> list[str]:
    """Split text into layout tokens: runs of word chars, single punctuation
    marks, whitespace runs and newlines each as their own token; the
    concatenation of all tokens reproduces the input exactly (the
    byte-identity invariant of the rawtxt sink, S9)."""
    return _LAYOUT_TOKEN_RE.findall(text)


_WS_RE = re.compile(r"[ \t\f ]+")


def tokenize_whitespace(line: str) -> list[str]:
    """Whitespace split used to pick a line's first/second feature tokens
    (reference: split on ``\" \\t\\f\\u00a0\"`` at
    ``DatacatSegmenterParser.java:434``)."""
    return list(filter(None, _WS_RE.split(line)))

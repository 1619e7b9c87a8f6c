"""Small frozen lexicons + regexes used by the featurizers.

The reference keeps these in upstream ``FeatureFactory`` / ``Lexicon``
process-wide singletons (dictionary membership flags consumed at
``DatacatSegmenterParser.java:505-543``). In Ray Data they are plain
module-level constants: tiny, immutable, imported once per worker process —
no actor or broadcast needed (SURVEY.md ST5 / J4).

The word lists are intentionally small, deterministic, French-leaning (the
reference corpus is 19th-c. French sale catalogues and its language fallback
is "fr" — ``DatacatSegmenterParser.java:810-818``) plus common English, enough
to make the dictionary-flag features meaningful on the fixture corpus.
"""

from __future__ import annotations

import re

# month dictionary (reference: FeatureFactory.test_month) — French + English,
# lowercase match
MONTH_NAMES: frozenset[str] = frozenset(
    {
        "janvier", "fevrier", "février", "mars", "avril", "mai", "juin",
        "juillet", "aout", "août", "septembre", "octobre", "novembre",
        "decembre", "décembre",
        "january", "february", "march", "april", "may", "june", "july",
        "august", "september", "october", "november", "december",
    }
)

# common-word dictionary (reference: test_common) — function words / frequent
# catalogue vocabulary, lowercase match
COMMON_WORDS: frozenset[str] = frozenset(
    {
        "le", "la", "les", "de", "des", "du", "un", "une", "et", "ou", "a",
        "à", "en", "sur", "dans", "par", "pour", "avec", "sans", "est",
        "sont", "au", "aux", "ce", "cette", "ces", "son", "sa", "ses", "qui",
        "que", "ne", "pas", "plus", "tres", "très", "vente", "collection",
        "conditions", "exposition",
        "catalogue", "pieces", "pièces", "monnaies", "medailles", "médailles",
        "lot", "lots", "prix", "exemplaire", "rare", "belle", "beau",
        "the", "of", "and", "or", "in", "on", "for", "with", "to", "from",
        "is", "are", "at", "by", "an", "as", "it", "this", "that", "sale",
        "auction", "page", "home", "about", "contact", "copyright",
    }
)

# proper-name dictionary (reference: test_names / test_first_names) — a small
# seed of personal names appearing in sale-catalogue front matter
PROPER_NAMES: frozenset[str] = frozenset(
    {
        "hoffmann", "rollin", "feuardent", "bourgey", "desvouges", "naville",
        "bienaime", "bienaimé", "delange", "drouot", "paris", "london",
        "jean", "pierre", "marie", "henri", "charles", "louis", "georges",
        "jacques", "michel", "andre", "andré", "paul", "emile", "émile",
        "john", "james", "william", "george", "henry", "edward",
    }
)

# regex flags (reference: FeatureFactory YEAR/EMAIL/HTTP patterns, consumed at
# DatacatSegmenterParser.java:509-543) — compiled once at import
YEAR_RE = re.compile(r"[12][0-9]{3}")
EMAIL_RE = re.compile(r"^[\w.+-]+@[\w-]+(?:\.[\w-]+)+$")
# a word (split on " \t\f\u00a0" as ``textkit.tokenize_whitespace`` does)
# that starts with http://, https:// or www., in one search over a line
_LINK_RE = re.compile(r"(?:^|(?<=[ \t\f\u00a0]))(?:https?://|www\.)",
                      re.IGNORECASE)


def is_month(token: str) -> bool:
    return token.lower() in MONTH_NAMES


def has_month(words) -> bool:
    """``any(is_month(w) for w in words)``, the scan done in C."""
    return not MONTH_NAMES.isdisjoint(map(str.lower, words))


def has_link(line: str) -> bool:
    """Some word of ``line`` starts with http://, https:// or www., in any
    case. No non-ASCII character case-folds to h, t, p, w or ".", so a
    match needs "http" or "www." in the lowercased line: that substring
    test rules out most lines before the regex runs."""
    low = line.lower()
    return ("http" in low or "www." in low) and bool(_LINK_RE.search(line))


def is_common_word(token: str) -> bool:
    return token.lower() in COMMON_WORDS


def is_proper_name(token: str) -> bool:
    return token.lower() in PROPER_NAMES

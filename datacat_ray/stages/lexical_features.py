"""Per-token features for the third cascade level: lexical-entry layout
(the north-star's "segmentation → catalogue-entry → lexical-entry" model
chain; the reference stubs this level as ``EntryItem``
(``src/main/java/org/grobid/core/data/EntryItem.java:20-31``) — label→token
field holders with no logic — so the label set below is the engine's
concretization of that stub for sale-catalogue entries):

    <num>       leading lot number        ("12")
    <category>  object category           ("Monnaies d'Italie")
    <desc>      free description          ("écu et divisions")
    <count>     piece count               ("39 pièces")
    <material>  material code             ("AR", "AV", ...)
    <other>     punctuation / connectives

Features are entry-local (position bins within the entry span, neighbor
punctuation), computed per non-space token. Same generic CRF machinery as
the other two levels (templates → weights → Viterbi).
"""

from __future__ import annotations

from datacat_ray.functions.textkit import (
    capitalisation_class,
    digit_class,
    position_bins,
    punct_type,
)
from datacat_ray.stages.line_features import feature_rows

NBBINS_ENTRY = 5


def _seen_colon(toks: list[str]) -> list[int]:
    # the category/description boundary marker in catalogue grammar is the
    # colon — a cross-token feature the local window can't see (document-
    # local running state, same pattern as the reference's font-transition
    # features): 1 on every token after the first colon
    k = toks.index(":") + 1 if ":" in toks else len(toks)
    return [0] * k + [1] * (len(toks) - k)


# one builder per field over the span's non-space tokens, in canonical
# order; a neighbour that does not exist (or is "") reads as "_NONE_"
_ENTRY_COLUMNS = {
    "lowercase": lambda toks: list(map(str.lower, toks)),
    "digit": lambda toks: list(map(digit_class, toks)),
    "capitalisation": lambda toks: list(map(capitalisation_class, toks)),
    "punct_type": lambda toks: list(map(punct_type, toks)),
    "prev_punct": lambda toks: (["_NONE_"] + [
        punct_type(t) if t else "_NONE_" for t in toks])[:len(toks)],
    "next_lower": lambda toks: ([
        t.lower() if t else "_NONE_" for t in toks] + ["_NONE_"])[1:],
    "entry_position": lambda toks: position_bins(len(toks), NBBINS_ENTRY),
    "seen_colon": _seen_colon,
}

ENTRY_FIELD_NAMES = list(_ENTRY_COLUMNS)


def entry_token_columns(
    tokens: list[str], start: int, end: int, fields
) -> tuple[dict[str, list], list[int]]:
    """Tokens of one entry span [start, end), column-major → (one value
    list per requested feature field, absolute token indices); whitespace
    tokens skipped (re-inserted downstream by the same J2 resync convention
    as the body level). Only the requested fields are computed."""
    idx = [t for t in range(start, end) if not tokens[t].isspace()]
    toks = list(map(tokens.__getitem__, idx))
    return {name: _ENTRY_COLUMNS[name](toks) for name in fields}, idx


def featurize_entry_tokens(
    tokens: list[str], start: int, end: int
) -> tuple[list[dict], list[int]]:
    """(the feature dict of every non-space token of one entry span,
    absolute token indices) — ``entry_token_columns`` of every field."""
    cols, idx = entry_token_columns(tokens, start, end, ENTRY_FIELD_NAMES)
    return feature_rows(cols), idx

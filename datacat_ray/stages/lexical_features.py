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

from datacat_ray.functions.textkit import position_bins, punct_type
from datacat_ray.stages.line_features import feature_rows
from datacat_ray.stages.token_features import _static_columns

NBBINS_ENTRY = 5


def _seen_colon(toks: list[str]) -> list[int]:
    # the category/description boundary marker in catalogue grammar is the
    # colon — a cross-token feature the local window can't see (document-
    # local running state, same pattern as the reference's font-transition
    # features): 1 on every token after the first colon
    k = toks.index(":") + 1 if ":" in toks else len(toks)
    return [0] * k + [1] * (len(toks) - k)


# the fields of the token string alone: the body level's static columns
# (the same functions), so both levels share one per-process token cache
_TOKEN_FIELDS = ("lowercase", "digit", "capitalisation", "punct_type")

# the run-local fields, one builder each over one span's non-space tokens;
# a neighbour that does not exist (or is "") reads as "_NONE_"
_RUN_COLUMNS = {
    "prev_punct": lambda toks: (["_NONE_"] + [
        punct_type(t) if t else "_NONE_" for t in toks])[:len(toks)],
    "next_lower": lambda toks: ([
        t.lower() if t else "_NONE_" for t in toks] + ["_NONE_"])[1:],
    "entry_position": lambda toks: position_bins(len(toks), NBBINS_ENTRY),
    "seen_colon": _seen_colon,
}

ENTRY_FIELD_NAMES = [*_TOKEN_FIELDS, *_RUN_COLUMNS]


def entry_runs_columns(
    tokens: list[str], spans: list[tuple[int, int]], fields
) -> tuple[dict[str, list], list[int], list[int]]:
    """The non-space tokens of every entry span [start, end), laid end to
    end, column-major → (one value list per requested feature field,
    absolute token indices, the position where each span's tokens start).
    Whitespace tokens are skipped (re-inserted downstream by the same J2
    resync convention as the body level); the run-local fields restart at
    every span. Only the requested fields are computed."""
    idx: list[int] = []
    starts: list[int] = []
    for start, end in spans:
        starts.append(len(idx))
        idx += [t for t in range(start, end) if not tokens[t].isspace()]
    toks = list(map(tokens.__getitem__, idx))
    static = tuple(name for name in fields if name in _TOKEN_FIELDS)
    cols = dict(zip(static, _static_columns(toks, static)))
    bounds = list(zip(starts, starts[1:] + [len(idx)]))
    for name in fields:
        if name not in cols:
            fn = _RUN_COLUMNS[name]
            cols[name] = [v for a, b in bounds for v in fn(toks[a:b])]
    return {name: cols[name] for name in fields}, idx, starts


def featurize_entry_tokens(
    tokens: list[str], start: int, end: int
) -> tuple[list[dict], list[int]]:
    """(the feature dict of every non-space token of one entry span,
    absolute token indices) — ``entry_runs_columns`` of that one span and
    every field."""
    cols, idx, _ = entry_runs_columns(tokens, [(start, end)],
                                      ENTRY_FIELD_NAMES)
    return feature_rows(cols), idx

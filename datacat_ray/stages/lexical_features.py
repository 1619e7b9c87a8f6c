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

Coded and batch-wide like the body level (``token_features``):
``entry_codes`` featurizes every entry run of a batch laid end to end as
``crf.VOCAB`` codes. The token fields are the body level's token-static
codes; ``prev_punct`` / ``next_lower`` shift per-token codes one position
within each run (the "_NONE_" code at a run's edge); ``entry_position``
and ``seen_colon`` are computed per run with numpy.
``featurize_entry_tokens`` is one run's codes decoded back to values,
under the same caps.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from datacat_ray.functions.textkit import punct_type
from datacat_ray.stages.crf import VOCAB
from datacat_ray.stages.token_features import (
    TOKENS,
    feature_rows,
    offsets,
    space_mask,
    static_codes,
)

NBBINS_ENTRY = 5

# the fields of the token string alone: the body level's static columns
# (the same functions), so both levels share one per-process token
# vocabulary
_TOKEN_FIELDS = ("lowercase", "digit", "capitalisation", "punct_type")


class _Runs:
    """The non-space tokens of several entry runs laid end to end (a run
    is a token range of one document; runs may repeat or overlap), and
    where each run starts and ends."""

    def __init__(self, tokens, runs) -> None:
        off = offsets(list(map(len, tokens)))
        ids = TOKENS.ids(list(chain.from_iterable(tokens)))
        starts = np.array([o + a for o, rs in zip(off.tolist(), runs)
                           for a, _ in rs], dtype=np.intp)
        ends = np.array([o + b for o, rs in zip(off.tolist(), runs)
                         for _, b in rs], dtype=np.intp)
        lens = ends - starts
        pos = np.repeat(starts - offsets(lens)[:-1], lens) + np.arange(
            int(lens.sum()))
        rid = np.repeat(np.arange(len(lens)), lens)
        keep = ~space_mask(ids[pos])
        self.pos, self.rid = pos[keep], rid[keep]
        self.ids = ids[self.pos]
        doc = np.repeat(np.arange(len(tokens)), list(map(len, runs)))
        # each position's absolute token index in its document
        self.idx = self.pos - off[doc[self.rid]]
        self.lens = np.bincount(self.rid, minlength=len(lens))
        self.starts = offsets(self.lens)[:-1]
        self.at = np.arange(len(self.pos)) - self.starts[self.rid]
        self.n = len(self.pos)

    def shifted(self, name: str, fn, by: int) -> np.ndarray:
        """The codes of ``fn`` of the token ``by`` positions ahead in the
        run (behind, for ``by`` < 0); "_NONE_" where there is none."""
        c = static_codes(name, self.ids, fn)
        out = np.full(self.n, VOCAB.code(name, "_NONE_"), dtype=np.intp)
        inside = (self.at + by >= 0) & (self.at + by < self.lens[self.rid])
        out[inside] = c[np.flatnonzero(inside) + by]
        return out

    def seen_colon(self) -> np.ndarray:
        """1 on every token after the first ":" token of its run: the
        category/description boundary marker in catalogue grammar — a
        cross-token feature the local window can't see (run-local running
        state, same pattern as the reference's font-transition
        features)."""
        colon = self.ids == TOKENS.ids([":"])[0]
        before = np.cumsum(colon) - colon  # colons before each position
        return (before - before[self.starts[self.rid]] > 0).astype(np.intp)


# the run-local fields, each mapping ``_Runs`` to the codes of its
# positions; a neighbour that does not exist (or is "") reads as "_NONE_"
_RUN_COLUMNS = {
    "prev_punct": lambda r: r.shifted(
        "prev_punct", lambda t: punct_type(t) if t else "_NONE_", -1),
    "next_lower": lambda r: r.shifted(
        "next_lower", lambda t: t.lower() if t else "_NONE_", 1),
    "entry_position": lambda r: VOCAB.ints("entry_position", (
        NBBINS_ENTRY * (r.at / r.lens[r.rid])).astype(np.intp)),
    "seen_colon": lambda r: VOCAB.ints("seen_colon", r.seen_colon()),
}

ENTRY_FIELD_NAMES = [*_TOKEN_FIELDS, *_RUN_COLUMNS]


def entry_codes(
    tokens: list[list[str]], runs: list[list[tuple[int, int]]], fields
) -> tuple[dict[str, np.ndarray], np.ndarray, np.ndarray]:
    """The batch kernel: the entry runs [start, end) of several documents
    (``runs[d]`` of ``tokens[d]``), their non-space tokens laid end to
    end → (the ``VOCAB`` codes of every requested field, each position's
    absolute token index in its document, the non-space token count of
    every run, in order). Whitespace tokens are skipped (re-inserted
    downstream by the same J2 resync convention as the body level); the
    run-local fields restart at every run. Only the requested fields are
    computed."""
    r = _Runs(tokens, runs)
    codes = {name: static_codes(name, r.ids) if name in _TOKEN_FIELDS
             else _RUN_COLUMNS[name](r) for name in fields}
    return codes, r.idx, r.lens


def featurize_entry_tokens(
    tokens: list[str], start: int, end: int
) -> tuple[list[dict], list[int]]:
    """(the feature dict of every non-space token of one entry span,
    absolute token indices) — ``entry_codes`` of that one span and every
    field, decoded back to values."""
    VOCAB.bound()
    # only the tokens the span covers
    codes, idx, _ = entry_codes([tokens[start:end]], [[(0, end - start)]],
                                ENTRY_FIELD_NAMES)
    return (feature_rows({name: VOCAB.decode(name, codes[name])
                          for name in ENTRY_FIELD_NAMES}),
            (idx + start).tolist())

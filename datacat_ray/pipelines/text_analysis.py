"""Text-analysis operators over the ``documents`` table (training-data ops).

Three shapes, each written once:

- **Per-document column map** (``_doc_map``): one read of (doc_id, text)
  and one ``map_batches`` that appends one typed column group per text
  kernel — token counts (whitespace and BPE-ish), text stats, language ID
  (stopword-profile heuristic, the engine analogue of the reference's
  ``LanguageUtilities.runLanguageId`` on a ~500-char sample,
  ``DatacatSegmenterParser.java:666-682``, with the same fallback-to-"fr"
  convention), quality scores (one sum, ``_quality_sum``), PII redaction,
  fingerprints (64-bit FNV-1a rolling hash over normalized tokens) and
  repetition stats. The fused ops (``token_counts``, ``doc_profile``) list
  several kernels in the one pass. No shuffle. The doc-local filters
  (``corpus_filter``, ``corpus_gate``, ``stratified_sample``) and the
  broadcast-set filters (``decontaminate``, ``ngram_decontaminate``,
  ``temperature_mix``'s pick, ``oov_ratio``'s scorer) are map-only too.
- **Combiner top-k** (``_top_k``): per-batch Counter partials, one
  groupby-sum shuffle, sort, limit — ``top_terms``, ``top_bigrams``,
  ``top_grams`` and ``oov_ratio``'s vocabulary.
- **Bucketed shuffles** (``stages/bucketed.py``): the doc-term rows of
  ``tfidf_top_terms`` and ``unigram_logprob`` (``_doc_term_rows``); the
  in-bucket term runs (``_term_runs`` over ``key_runs``) of those two and
  ``term_postings``; ``dup_ngram_fraction``'s gram-hash buckets; the per-source cap; the gate
  + exact dedup of ``corpus_prep``; and the global running sum without a
  global sort (``running_sum``) behind ``deterministic_shuffle`` and
  ``token_budget_head`` (and ``packing.pack_sequences``). The term,
  gram and doc-id buckets number ``bucketed.DEFAULT_BUCKETS``, read on the
  driver when the op is called.

Every ``*_SQL`` / ``*_sql()`` string is the DuckDB oracle of its op.
"""

from __future__ import annotations

import collections
import hashlib
import itertools
import math
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

import ray
import ray.data
from ray.data.aggregate import Sum

from datacat_ray.stages import bucketed
from datacat_ray.stages.bucketed import (
    add_bucket,
    cached_ref,
    hash64,
    hash_buckets,
    keep_first_k,
    key_runs,
    run_rank,
    running_sum,
    sorted_key_bounds,
)

# RE2's \s (the class every SQL oracle uses) is exactly [ \t\n\f\r] —
# NO vertical tab, and none of Python's Unicode whitespace (NBSP, U+2028,
# ...). Tokenize with the literal RE2 class so the two sides can never
# diverge on exotic whitespace.
_ASCII_WS = re.compile(r"[ \t\n\r\f]+")


def ascii_tokens(text: str | None) -> list[str]:
    return [w for w in _ASCII_WS.split(text or "") if w]

# stopword profiles for the lang-id heuristic (top function words)
_LANG_STOPWORDS: dict[str, frozenset[str]] = {
    "en": frozenset("the of and to a in is it you that he was for on are with as i his they be at".split()),
    "fr": frozenset("le la de et les des en un une du que est pour qui dans ce il au plus ne sur".split()),
    "de": frozenset("der die und in den von zu das mit sich des auf für ist im dem nicht ein eine als".split()),
    "es": frozenset("de la que el en y a los del se las por un para con no una su al es lo".split()),
}
_LANG_FALLBACK = "fr"  # reference fallback (DatacatSegmenterParser.java:810-818)
_SAMPLE_CHARS = 500  # reference samples ~500 chars for language ID

_PUNCT_SET = frozenset(".,;:!?")


def _read_documents(sf_dir: str, columns: list[str]) -> "ray.data.Dataset":
    return ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=columns)


# ---------------------------------------------------------------------------
# the per-document column map: every doc-local text op is one read of
# (doc_id, text) and one map_batches that appends each text kernel's typed
# columns; the fused ops (token_counts, doc_profile) list several kernels
# ---------------------------------------------------------------------------


def _doc_columns(*kernels):
    """Batch function of the column map: ``doc_id``, then each kernel's
    columns. A kernel is ``(names, type, fn)``: ``fn(text)`` gives one
    value per document, or a tuple of ``len(names)`` values."""

    def _batch(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        out = {"doc_id": batch["doc_id"]}
        for names, typ, fn in kernels:
            vals = [fn(t) for t in texts]
            cols = [vals] if len(names) == 1 else list(zip(*vals))
            for name, col in zip(names, cols or [[]] * len(names)):
                out[name] = pa.array(col, typ)
        return pa.Table.from_pydict(out)

    return _batch


def _doc_map(sf_dir: str, *kernels) -> "ray.data.Dataset":
    return _read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        _doc_columns(*kernels), batch_format="pyarrow"
    )


# ---------------------------------------------------------------------------
# token counting
# ---------------------------------------------------------------------------

# BPE-ish pre-tokenization: letter runs, single digits, single symbols —
# the GPT-2-style split shape, RE2-compatible so DuckDB runs the SAME regex
BPE_SPLIT_PATTERN = r"[A-Za-z]+|[0-9]|[^A-Za-z0-9\s]"
_BPE_RE = re.compile(BPE_SPLIT_PATTERN)

_TOKENS = (("n_tokens",), pa.int64(), lambda t: len(ascii_tokens(t)))
_BPE_TOKENS = (
    ("n_bpe_tokens",), pa.int64(), lambda t: len(_BPE_RE.findall(t or ""))
)


def token_count(sf_dir: str) -> "ray.data.Dataset":
    """(doc_id, n_tokens): whitespace-run token count.

    Oracle: ``len(regexp_split_to_array(trim(text), '\\s+'))`` with the
    empty-string → 0 convention.
    """
    return _doc_map(sf_dir, _TOKENS)


def token_count_bpe(sf_dir: str) -> "ray.data.Dataset":
    """(doc_id, n_bpe_tokens): GPT-2-style pre-tokenizer unit count (letter
    runs / single digits / single symbols) — the LLM-training token
    estimate, vs the whitespace count of ``token_count``. The oracle runs
    the IDENTICAL RE2 pattern via regexp_extract_all."""
    return _doc_map(sf_dir, _BPE_TOKENS)


TOKEN_COUNT_BPE_SQL = f"""
    SELECT doc_id,
           CAST(len(regexp_extract_all(coalesce(text, ''),
                '{BPE_SPLIT_PATTERN.replace("'", "''")}')) AS BIGINT)
               AS n_bpe_tokens
    FROM documents
"""


def token_counts(sf_dir: str) -> "ray.data.Dataset":
    """(doc_id, n_tokens, n_bpe_tokens): whitespace AND BPE-ish counts in
    ONE pass — the registry consolidation of ``token_count`` +
    ``token_count_bpe`` (both operators stay; one driver row covers both
    so every oracled query fits the driver's query budget)."""
    return _doc_map(sf_dir, _TOKENS, _BPE_TOKENS)


TOKEN_COUNTS_SQL = rf"""
    SELECT doc_id,
           len(list_filter(
               regexp_split_to_array(coalesce(text, ''), '\s+'),
               x -> x <> '')) AS n_tokens,
           CAST(len(regexp_extract_all(coalesce(text, ''),
                '{BPE_SPLIT_PATTERN.replace("'", "''")}')) AS BIGINT)
               AS n_bpe_tokens
    FROM documents
"""


# ---------------------------------------------------------------------------
# text stats (SQL-checkable integer counts)
# ---------------------------------------------------------------------------


def _text_stats_row(t: str | None) -> tuple[int, int, int, int]:
    t = t or ""
    return (
        len(t),
        sum(1 for c in t if "0" <= c <= "9"),
        sum(1 for c in t if "A" <= c <= "Z"),
        sum(1 for c in t if c in _PUNCT_SET),
    )


_TEXT_STATS = (
    ("n_chars_calc", "n_digits", "n_upper", "n_punct"), pa.int64(),
    _text_stats_row,
)


def text_stats(sf_dir: str) -> "ray.data.Dataset":
    """(doc_id, n_chars_calc, n_digits, n_upper, n_punct) — ASCII classes
    only, so DuckDB regexp counts reproduce the numbers exactly."""
    return _doc_map(sf_dir, _TEXT_STATS)


# ---------------------------------------------------------------------------
# language ID
# ---------------------------------------------------------------------------


def lang_id_text(text: str) -> str:
    """Stopword-profile vote over a ~500-char sample; deterministic
    tie-break (lexicographic language code), fallback ``"fr"``."""
    sample = (text or "")[:_SAMPLE_CHARS].lower()
    words = _ASCII_WS.split(sample)
    best_lang, best_hits = _LANG_FALLBACK, 0
    for lang in sorted(_LANG_STOPWORDS):
        hits = sum(1 for w in words if w in _LANG_STOPWORDS[lang])
        if hits > best_hits:
            best_lang, best_hits = lang, hits
    return best_lang


def lang_id(sf_dir: str) -> "ray.data.Dataset":
    return _doc_map(sf_dir, (("lang_pred",), pa.string(), lang_id_text))


def lang_id_sql() -> str:
    """DuckDB mirror of ``lang_id_text``: same 500-char sample, same
    whitespace split, per-language stopword hit counts, first-in-sorted-
    order max wins (ties to the lexicographically smaller code), fallback
    'fr' when nothing hits. Stopword lists are interpolated from the SAME
    ``_LANG_STOPWORDS`` dict the Ray kernel uses."""
    langs = sorted(_LANG_STOPWORDS)  # de, en, es, fr

    def inlist(lang: str) -> str:
        return ", ".join(f"'{w}'" for w in sorted(_LANG_STOPWORDS[lang]))

    hit_cols = ",\n               ".join(
        f"SUM(CASE WHEN w IN ({inlist(l)}) THEN 1 ELSE 0 END) AS {l}"
        for l in langs
    )
    # first-max-in-sorted-order: lang L wins iff hits(L) > 0, strictly
    # beats every earlier lang and ties-or-beats every later one
    cases = []
    for i, l in enumerate(langs[:-1]):
        conds = [f"h.{l} > 0"]
        conds += [f"h.{l} > h.{e}" for e in langs[:i]]
        conds += [f"h.{l} >= h.{e}" for e in langs[i + 1:]]
        cases.append(f"WHEN {' AND '.join(conds)} THEN '{l}'")
    return f"""
        WITH w AS (
            SELECT doc_id,
                   unnest(regexp_split_to_array(
                       lower(substring(coalesce(text, ''), 1, {_SAMPLE_CHARS})),
                       '\\s+')) AS w
            FROM documents
        ),
        h AS (
            SELECT doc_id,
               {hit_cols}
            FROM w GROUP BY doc_id
        )
        SELECT d.doc_id,
               CASE {' '.join(cases)} ELSE '{_LANG_FALLBACK}' END AS lang_pred
        FROM documents d LEFT JOIN h ON d.doc_id = h.doc_id
    """


def fingerprint_sql() -> str:
    """DuckDB mirror of ``doc_fingerprint``: per-token FNV-1a over UTF-8
    bytes (hex-decoded from the encoded blob), chained with
    xor → ×prime → rotate-left-7, all in HUGEINT mod 2^64 (DuckDB BIGINT
    multiplication would overflow-error instead of wrapping). The rotate
    uses +, valid because the shifted halves are bit-disjoint."""
    m = "18446744073709551616"  # 2^64
    prime = "1099511628211"
    off = "CAST(14695981039346656037 AS HUGEINT)"
    fnv_t = f"""list_reduce(
              list_prepend({off},
                list_transform(range(1, octet_length(encode(t))+1),
                  i -> CAST(CAST(concat('0x',
                       substring(hex(encode(t)), 2*i-1, 2)) AS INT) AS HUGEINT))),
              (h, b) -> (xor(h, b) * {prime}) % {m})"""
    step = f"((xor(h, f) * {prime}) % {m})"
    return f"""
        SELECT doc_id,
               CAST(CASE WHEN h >= 9223372036854775808
                         THEN h - {m} ELSE h END AS BIGINT) AS fingerprint
        FROM (
            SELECT doc_id,
                   list_reduce(
                       list_prepend({off},
                           list_transform(
                               list_filter(
                                   regexp_split_to_array(
                                       lower(coalesce(text, '')), '\\s+'),
                                   t -> t <> ''),
                               t -> {fnv_t})),
                       (h, f) -> (({step} * 128) % {m})
                                 + ({step} // 144115188075855872)
                   ) AS h
            FROM documents)
    """


# ---------------------------------------------------------------------------
# top-k terms (word count with map-side combiner)
# ---------------------------------------------------------------------------


def _top_k(sf_dir: str, k: int, col: str, grams) -> pa.Table:
    """Corpus-wide top-``k`` grams by occurrence, the combiner pattern:
    each batch pre-aggregates its counts locally (a Counter over
    ``grams(tokens)`` → one (gram, partial) row per DISTINCT gram per
    batch), so the groupby shuffle moves vocabulary-sized partials instead
    of one row per token — at web scale that is ~100× less exchange
    volume. Then groupby-sum, sort (n DESC, gram ASC) — the oracle's
    tie-break — and limit ``k``. Output columns: (``col``, n)."""

    def _partials(batch: pa.Table) -> pa.Table:
        c: collections.Counter = collections.Counter()
        for t in batch["text"].to_pylist():
            c.update(grams(ascii_tokens(t)))
        return pa.Table.from_pydict(
            {
                col: pa.array(list(c.keys()), type=pa.string()),
                "partial": pa.array(list(c.values()), type=pa.int64()),
            }
        )

    top = (
        _read_documents(sf_dir, ["text"])
        .map_batches(_partials, batch_format="pyarrow")
        .groupby(col)
        .aggregate(Sum("partial", alias_name="n"))
        .sort(["n", col], descending=[True, False])
        .limit(k)
        .take_all()
    )
    return pa.Table.from_pydict(
        {
            col: pa.array([r[col] for r in top], type=pa.string()),
            "n": pa.array([r["n"] for r in top], type=pa.int64()),
        }
    )


def top_terms(sf_dir: str, k: int = 20) -> pa.Table:
    """(term, n): corpus-wide top-k terms by occurrence (``_top_k``)."""
    return _top_k(sf_dir, k, "term", lambda toks: toks)


TOP_TERMS_SQL = r"""
    SELECT term, CAST(COUNT(*) AS BIGINT) AS n FROM (
        SELECT unnest(regexp_split_to_array(text, '\s+')) AS term FROM documents
    ) WHERE term <> ''
    GROUP BY term ORDER BY n DESC, term ASC LIMIT 20
"""


# ---------------------------------------------------------------------------
# corpus-vocabulary OOV scoring (the CCNet-style LM-filter shape)
# ---------------------------------------------------------------------------

OOV_VOCAB_K = 1000


def oov_ratio(sf_dir: str, vocab_k: int = OOV_VOCAB_K) -> "ray.data.Dataset":
    """(doc_id, oov_micros): fraction of a doc's tokens OUTSIDE the corpus
    top-``vocab_k`` vocabulary — the integer-exact stand-in for LM-filter
    quality scoring (CCNet/KenLM shape): a corpus-wide aggregate derives
    model state (the vocabulary), which broadcasts into a per-doc scoring
    pass. Two stages, one combiner-backed shuffle for the vocab, then
    map-only scoring; vocabulary ties break (count DESC, term ASC) exactly
    as in the SQL oracle."""
    vocab_tbl = top_terms(sf_dir, k=vocab_k)
    vocab = frozenset(vocab_tbl["term"].to_pylist())
    ref = ray.put(vocab)

    def _score(t: pa.Table) -> pa.Table:
        v = cached_ref(ref)
        out = []
        for text in t["text"].to_pylist():
            toks = ascii_tokens(text)
            if not toks:
                out.append(0)
                continue
            oov = sum(1 for w in toks if w not in v)
            out.append(int(math.floor(oov * 1.0 / len(toks) * 1_000_000 + 0.5)))
        return pa.Table.from_pydict(
            {"doc_id": t["doc_id"],
             "oov_micros": pa.array(out, type=pa.int64())}
        )

    return _read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        _score, batch_format="pyarrow"
    )


def oov_ratio_sql(vocab_k: int = OOV_VOCAB_K) -> str:
    return rf"""
        WITH vocab AS (
            SELECT term FROM (
                SELECT term, COUNT(*) AS n FROM (
                    SELECT unnest(regexp_split_to_array(text, '\s+')) AS term
                    FROM documents
                ) WHERE term <> ''
                GROUP BY term ORDER BY n DESC, term ASC LIMIT {vocab_k}
            )
        ),
        tok AS (
            SELECT doc_id, t AS term FROM (
                SELECT doc_id,
                       unnest(regexp_split_to_array(text, '\s+')) AS t
                FROM documents
            ) WHERE t <> ''
        ),
        agg AS (
            SELECT doc_id, COUNT(*) AS n,
                   SUM(CASE WHEN term IN (SELECT term FROM vocab)
                            THEN 0 ELSE 1 END) AS oov
            FROM tok GROUP BY doc_id
        )
        SELECT d.doc_id,
               CAST(FLOOR(COALESCE(oov * 1.0 / n, 0) * 1000000 + 0.5)
                    AS BIGINT) AS oov_micros
        FROM documents d LEFT JOIN agg ON d.doc_id = agg.doc_id
    """


# ---------------------------------------------------------------------------
# eval-set decontamination (broadcast anti-join on fingerprints)
# ---------------------------------------------------------------------------

DECONTAM_EVAL_DOCS = 20  # doc_ids [0, 20) stand in for the eval set


def decontaminate(sf_dir: str) -> "ray.data.Dataset":
    """Surviving doc_ids after eval-set decontamination: any doc whose
    order-sensitive fingerprint equals an eval-set doc's fingerprint is
    dropped (the training-data hygiene step that keeps benchmark text out
    of the corpus). The eval fingerprints load via a pushdown-filtered
    read and broadcast as a set (``ray.put``) — a broadcast ANTI-join;
    the corpus side streams once. At a billion-doc eval set this flips to
    the bucketed-join shape; eval sets are small by construction."""
    dset = pads.dataset(f"{sf_dir}/documents.parquet", format="parquet")
    ev = dset.to_table(
        columns=["text"],
        filter=pads.field("doc_id") < DECONTAM_EVAL_DOCS,
    )


    bad = frozenset(doc_fingerprint(t) for t in ev["text"].to_pylist())
    ref = ray.put(bad)

    def _filter(t: pa.Table) -> pa.Table:
        b = cached_ref(ref)
        keep = [doc_fingerprint(x) not in b for x in t["text"].to_pylist()]
        return pa.Table.from_pydict({"doc_id": t["doc_id"]}).filter(
            pa.array(keep, pa.bool_())
        )

    return _read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        _filter, batch_format="pyarrow"
    )


def decontaminate_sql() -> str:
    return f"""
        WITH fp AS ({fingerprint_sql()})
        SELECT doc_id FROM fp
        WHERE fingerprint NOT IN (
            SELECT fingerprint FROM fp WHERE doc_id < {DECONTAM_EVAL_DOCS}
        )
    """


# ---------------------------------------------------------------------------
# n-gram overlap decontamination (the published GPT-3/Llama method: drop any
# training doc sharing an n-gram with the eval set — strictly stronger than
# the whole-document fingerprint equality of ``decontaminate``)
# ---------------------------------------------------------------------------

NGRAM_DECONTAM_N = 8  # published pipelines use 13; the driver corpus's
# shortest docs run ~8 words, so 8 keeps every doc representable


def _word_ngrams(text: str, n: int) -> list[str]:
    w = (text or "").lower().split()
    return [" ".join(w[i : i + n]) for i in range(len(w) - n + 1)]


def ngram_decontaminate(
    sf_dir: str, n: int = NGRAM_DECONTAM_N
) -> "ray.data.Dataset":
    """Surviving train doc_ids after n-gram-overlap decontamination: a
    train doc (doc_id ≥ DECONTAM_EVAL_DOCS) drops if ANY of its word
    n-grams appears in any eval doc (doc_id below the cut).

    Scale shape: the eval side is small by construction — its distinct
    gram STRINGS load via one pushdown-filtered read and broadcast as an
    Arrow value_set (``ray.put`` once, read per worker through
    ``cached_ref``); the train side streams once, each batch probed by a
    single vectorized ``pc.is_in`` over the batch's exploded grams and a
    cumsum segment-any fold (zero-gram docs are never hits). Strings, not
    hashes, cross the probe — the SQL oracle compares the same strings,
    so there is no collision caveat. At a truly large eval set this flips
    to the bucketed anti-join shape (same pattern as
    ``incremental_dedup``'s join verify)."""
    dset = pads.dataset(f"{sf_dir}/documents.parquet", format="parquet")
    ev = dset.to_table(
        columns=["text"],
        filter=pads.field("doc_id") < DECONTAM_EVAL_DOCS,
    )
    eval_grams: set[str] = set()
    for t in ev["text"].to_pylist():
        eval_grams.update(_word_ngrams(t, n))
    value_set = pa.array(sorted(eval_grams), pa.string())
    ref = ray.put(value_set)

    def _filter(t: pa.Table) -> pa.Table:
        # empty batches are fine: shape-(1,) starts broadcasts with
        # shape-(0,) counts to an empty any_hit, and the mask is typed
        ids = np.asarray(t["doc_id"].to_pylist(), dtype=np.int64)
        grams_all: list[str] = []
        counts = np.empty(len(ids), dtype=np.int64)
        for k, x in enumerate(t["text"].to_pylist()):
            g = _word_ngrams(x, n)
            grams_all.extend(g)
            counts[k] = len(g)
        if grams_all:
            hit = pc.is_in(
                pa.array(grams_all, pa.string()), value_set=cached_ref(ref)
            ).to_numpy(zero_copy_only=False)
        else:
            hit = np.zeros(0, dtype=bool)
        cs = np.concatenate([[0], np.cumsum(hit.astype(np.int64))])
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
        any_hit = (cs[starts + counts] - cs[starts]) > 0
        keep = (ids >= DECONTAM_EVAL_DOCS) & ~any_hit
        return pa.Table.from_pydict({"doc_id": t["doc_id"]}).filter(
            pa.array(keep, pa.bool_())
        )

    return _read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        _filter, batch_format="pyarrow"
    )


def ngram_decontaminate_sql(n: int = NGRAM_DECONTAM_N) -> str:
    return rf"""
        WITH words AS (
            SELECT doc_id,
                   list_filter(regexp_split_to_array(
                       lower(coalesce(text, '')), '\s+'),
                       x -> x <> '') AS w
            FROM documents
        ), grams AS (
            SELECT doc_id,
                   array_to_string(
                       w[CAST(i AS INT):CAST(i + {n - 1} AS INT)], ' ') AS g
            FROM (SELECT doc_id, w,
                         unnest(range(1, len(w) - {n} + 2)) AS i
                  FROM words WHERE len(w) >= {n})
        )
        SELECT d.doc_id FROM documents d
        WHERE d.doc_id >= {DECONTAM_EVAL_DOCS}
          AND NOT EXISTS (
              SELECT 1 FROM grams t
              WHERE t.doc_id = d.doc_id
                AND t.g IN (SELECT g FROM grams e
                            WHERE e.doc_id < {DECONTAM_EVAL_DOCS}))
    """


# ---------------------------------------------------------------------------
# temperature-based source mixing (UniMax/CC-mix shape: upweight small
# sources, cap at 1.0 — the standard multi-source data-mixing step)
# ---------------------------------------------------------------------------

MIX_SCALE_K = 72.0  # keep-rate scale: rate_s = min(1, K / sqrt(chars_s))
# (72 puts the driver corpus sources at ~0.78-0.87 keep — non-vacuous,
# and any source 1/0.6^2 = 2.8x smaller than ~5.2k chars saturates at 1)
MIX_SEED = "mix0"


def temperature_mix(
    sf_dir: str, scale: float = MIX_SCALE_K, seed: str = MIX_SEED
) -> "ray.data.Dataset":
    """Deterministic temperature-0.5 source mixing: per-source keep rate
    ``min(1, scale / sqrt(total_chars_s))`` — rates ∝ size^-0.5, so small
    sources are upweighted relative to their share and large sources are
    downsampled (the UniMax/temperature-sampling shape; ``scale`` is the
    budget knob, a constant rather than a data-dependent normalizer so
    every arithmetic op here — sqrt, divide, min, floor — is IEEE
    correctly-rounded and the SQL oracle is bit-identical). A doc keeps
    iff ``md5(seed:doc_id) % 1e6`` falls under its source's rate in
    micros — the same hash-not-RNG determinism as ``stratified_sample``.

    Scale shape: per-source totals are a tiny aggregate (|sources| rows,
    map-side combinable); the thresholds broadcast as a dict; the corpus
    side is one map-only streaming pass."""
    totals = (
        _read_documents(sf_dir, ["source", "n_chars"])
        .groupby("source")
        .aggregate(Sum("n_chars", alias_name="c"))
        .take_all()
    )
    thr = {
        r["source"]: int(
            math.floor(min(1.0, scale / math.sqrt(float(r["c"]))) * 1_000_000)
        )
        for r in totals
    }
    ref = ray.put(thr)

    def _u_micros(doc_id: int) -> int:
        d = hashlib.md5(f"{seed}:{doc_id}".encode()).digest()
        return int.from_bytes(d[8:16], "little") % 1_000_000

    def _pick(t: pa.Table) -> pa.Table:
        th = cached_ref(ref)
        keep = [
            _u_micros(i) < th.get(s, 0)
            for i, s in zip(t["doc_id"].to_pylist(), t["source"].to_pylist())
        ]
        return pa.Table.from_pydict(
            {"doc_id": t["doc_id"], "source": t["source"]}
        ).filter(pa.array(keep, pa.bool_()))

    return _read_documents(sf_dir, ["doc_id", "source"]).map_batches(
        _pick, batch_format="pyarrow"
    )


def temperature_mix_sql(
    scale: float = MIX_SCALE_K, seed: str = MIX_SEED
) -> str:
    return f"""
        WITH tot AS (
            SELECT source, CAST(SUM(n_chars) AS BIGINT) AS c
            FROM documents GROUP BY source
        ), thr AS (
            SELECT source,
                   CAST(FLOOR(LEAST(1.0, {scale!r} / sqrt(CAST(c AS DOUBLE)))
                        * 1000000) AS BIGINT) AS t
            FROM tot
        )
        SELECT d.doc_id, d.source
        FROM documents d JOIN thr USING (source)
        WHERE md5_number_lower('{seed}:' || CAST(d.doc_id AS VARCHAR))
                  % 1000000 < thr.t
    """


# ---------------------------------------------------------------------------
# deterministic stratified sampling
# ---------------------------------------------------------------------------

STRATA_PCT = {"en": 50, "fr": 20, "de": 30, "es": 30, "it": 10}
_SAMPLE_KNUTH = 2654435761


def stratified_sample(sf_dir: str) -> "ray.data.Dataset":
    """Deterministic per-language downsampling: keep a doc iff
    ``(doc_id * knuth) % 100`` falls under its language's percentage —
    the reproducible corpus-mixing step of a training-data pipeline
    (seeded hash, no RNG state, identical in SQL). Unknown languages
    drop."""

    ds = _read_documents(sf_dir, ["doc_id", "lang"])

    def _pick(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_pylist()
        langs = t["lang"].to_pylist()
        keep = [
            lg in STRATA_PCT
            and (i * _SAMPLE_KNUTH) % 100 < STRATA_PCT[lg]
            for i, lg in zip(ids, langs)
        ]
        return pa.Table.from_pydict(
            {"doc_id": t["doc_id"], "lang": t["lang"]}
        ).filter(pa.array(keep, pa.bool_()))

    return ds.map_batches(_pick, batch_format="pyarrow")


def stratified_sample_sql() -> str:
    cases = " ".join(
        f"WHEN '{lg}' THEN {pct}" for lg, pct in sorted(STRATA_PCT.items())
    )
    return f"""
        SELECT doc_id, lang FROM documents
        WHERE (doc_id * {_SAMPLE_KNUTH}) % 100 <
              (CASE lang {cases} ELSE 0 END)
    """


# ---------------------------------------------------------------------------
# corpus bigram counts (combiner + one shuffle)
# ---------------------------------------------------------------------------


def top_bigrams(sf_dir: str, k: int = 20) -> pa.Table:
    """(bigram, n): corpus-wide top-k adjacent-token bigrams (``_top_k``)."""
    return _top_k(
        sf_dir, k, "bigram",
        lambda toks: (f"{a} {b}" for a, b in zip(toks, toks[1:])),
    )


TOP_BIGRAMS_SQL = r"""
    WITH toks AS (
        SELECT list_filter(regexp_split_to_array(coalesce(text, ''), '\s+'),
                           x -> x <> '') AS a
        FROM documents WHERE trim(coalesce(text, '')) <> ''
    ),
    b AS (
        SELECT unnest(list_transform(range(1, len(a)),
                                     i -> a[i] || ' ' || a[i + 1])) AS bigram
        FROM toks
    )
    SELECT bigram, CAST(COUNT(*) AS BIGINT) AS n
    FROM b GROUP BY bigram ORDER BY n DESC, bigram ASC LIMIT 20
"""


def top_grams(sf_dir: str, k: int = 20) -> pa.Table:
    """(gram, term, n): corpus top-k unigrams (gram=1) and bigrams (gram=2)
    — the registry consolidation of ``top_terms`` + ``top_bigrams`` (both
    combiner pipelines run; one driver row covers both)."""
    u = top_terms(sf_dir, k)
    b = top_bigrams(sf_dir, k)
    return pa.Table.from_pydict(
        {
            "gram": pa.array(
                [1] * u.num_rows + [2] * b.num_rows, pa.int64()),
            "term": pa.concat_arrays(
                [u["term"].combine_chunks(), b["bigram"].combine_chunks()]),
            "n": pa.concat_arrays(
                [u["n"].combine_chunks(), b["n"].combine_chunks()]),
        }
    )


def top_grams_sql() -> str:
    return f"""
        SELECT CAST(1 AS BIGINT) AS gram, term, n FROM ({TOP_TERMS_SQL})
        UNION ALL
        SELECT CAST(2 AS BIGINT) AS gram, bigram AS term, n
        FROM ({TOP_BIGRAMS_SQL})
    """


# ---------------------------------------------------------------------------
# quality scoring
# ---------------------------------------------------------------------------


def quality_features(text: str) -> dict:
    t = text or ""
    n = len(t)
    words = ascii_tokens(t)
    nw = len(words)
    alpha = sum(1 for c in t if c.isalpha())
    punct = sum(1 for c in t if c in _PUNCT_SET)
    stop = sum(1 for w in words if w.lower() in _LANG_STOPWORDS["en"]
               or w.lower() in _LANG_STOPWORDS["fr"])
    mean_wlen = (sum(len(w) for w in words) / nw) if nw else 0.0
    return {
        "n_chars": n,
        "n_words": nw,
        "alpha_ratio": alpha / n if n else 0.0,
        "punct_ratio": punct / n if n else 0.0,
        "stopword_ratio": stop / nw if nw else 0.0,
        "mean_word_len": mean_wlen,
    }


def _quality_sum(text: str) -> float:
    """Composite [0,1] quality score: rewards sane word length, stopword
    presence and alphabetic density; penalizes punctuation soup. The five
    terms accumulate in a FIXED order (left-assoc, matching the SQL
    expression tree of ``quality_score_micros_sql`` term for term), so both
    engines produce the identical IEEE double before rounding."""
    f = quality_features(text)
    s = (0.25 if 20 <= f["n_chars"] <= 100_000 else 0.0)
    s = s + (0.25 if 2.0 <= f["mean_word_len"] <= 12.0 else 0.0)
    s = s + 0.25 * min(1.0, f["stopword_ratio"] / 0.2)
    s = s + 0.25 * f["alpha_ratio"]
    s = s - 0.5 * max(0.0, f["punct_ratio"] - 0.2)
    return max(0.0, min(1.0, s))


def quality_score_value(text: str) -> float:
    return round(_quality_sum(text), 6)


def quality_score_micros_value(text: str) -> int:
    """Integer-micros quality score: floor(x·1e6 + 0.5), DuckDB-replayable."""
    return int(np.floor(_quality_sum(text) * 1_000_000 + 0.5))


_QUALITY_MICROS = (("quality_micros",), pa.int64(), quality_score_micros_value)


def quality_score(sf_dir: str) -> "ray.data.Dataset":
    return _doc_map(sf_dir, (("quality",), pa.float64(), quality_score_value))


def quality_score_micros(sf_dir: str) -> "ray.data.Dataset":
    return _doc_map(sf_dir, _QUALITY_MICROS)


def quality_score_micros_sql() -> str:
    """SQL replay of ``quality_score_micros_value``: identical word split
    (regexp '\\s+' + empty filter ≡ Python str.split on this data, the
    equivalence token_count's oracle already pins), \\p{L} ≡ str.isalpha,
    stopword union from the SAME dict, and the same left-assoc float
    accumulation."""
    stops = ", ".join(
        f"'{w}'" for w in sorted(_LANG_STOPWORDS["en"] | _LANG_STOPWORDS["fr"])
    )
    punct = "[.,;:!?]"
    return rf"""
        WITH f AS (
            SELECT doc_id,
                   length(coalesce(text, '')) AS n,
                   length(coalesce(text, ''))
                     - length(regexp_replace(coalesce(text, ''),
                                             '\p{{L}}', '', 'g')) AS alpha,
                   length(coalesce(text, ''))
                     - length(regexp_replace(coalesce(text, ''),
                                             '{punct}', '', 'g')) AS punct,
                   list_filter(regexp_split_to_array(coalesce(text, ''),
                                                     '\s+'),
                               t -> t <> '') AS words
            FROM documents
        ),
        g AS (
            SELECT doc_id, n, alpha, punct,
                   len(words) AS nw,
                   CASE WHEN len(words) = 0 THEN 0.0
                        ELSE list_sum(list_transform(words, w -> length(w)))
                             * 1.0 / len(words) END AS mean_wlen,
                   CASE WHEN len(words) = 0 THEN 0.0
                        ELSE len(list_filter(words,
                                             w -> lower(w) IN ({stops})))
                             * 1.0 / len(words) END AS stop_ratio
            FROM f
        ),
        s AS (
            SELECT doc_id,
                   ((((CASE WHEN n BETWEEN 20 AND 100000
                            THEN 0.25 ELSE 0.0 END)
                      + (CASE WHEN mean_wlen >= 2.0 AND mean_wlen <= 12.0
                              THEN 0.25 ELSE 0.0 END))
                     + 0.25 * LEAST(1.0, stop_ratio / 0.2))
                    + 0.25 * (CASE WHEN n = 0 THEN 0.0
                                   ELSE alpha * 1.0 / n END))
                   - 0.5 * GREATEST(0.0, (CASE WHEN n = 0 THEN 0.0
                                               ELSE punct * 1.0 / n END)
                                         - 0.2) AS score
            FROM g
        )
        SELECT doc_id,
               CAST(FLOOR(GREATEST(0.0, LEAST(1.0, score)) * 1000000 + 0.5)
                    AS BIGINT) AS quality_micros
        FROM s
    """


# ---------------------------------------------------------------------------
# corpus filter (composed quality gates — the training-data selection shape)
# ---------------------------------------------------------------------------

FILTER_MIN_TOKENS = 30
FILTER_MAX_TOKENS = 500
FILTER_MIN_CHARS = 150


def corpus_filter(sf_dir: str) -> "ray.data.Dataset":
    """Surviving doc_ids after chained quality gates (token-count band +
    char floor) — the canonical corpus-selection pipeline: every gate is a
    vectorized predicate inside ONE map_batches pass; no shuffle, no
    intermediate materialization. Gates here are SQL-expressible so the
    whole composition is oracle-checked."""
    ds = _read_documents(sf_dir, ["doc_id", "text", "n_chars"])

    def _gates(t: pa.Table) -> pa.Table:
        toks = pa.array(
            [len(ascii_tokens(x)) for x in t["text"].to_pylist()],
            type=pa.int64())
        keep = pc.and_(
            pc.and_(
                pc.greater_equal(toks, pa.scalar(FILTER_MIN_TOKENS, pa.int64())),
                pc.less_equal(toks, pa.scalar(FILTER_MAX_TOKENS, pa.int64())),
            ),
            pc.greater_equal(t["n_chars"], pa.scalar(FILTER_MIN_CHARS, pa.int64())),
        )
        return pa.Table.from_pydict({"doc_id": t["doc_id"]}).filter(keep)

    return ds.map_batches(_gates, batch_format="pyarrow")


CORPUS_FILTER_SQL = f"""
    SELECT doc_id FROM documents
    WHERE len(list_filter(regexp_split_to_array(coalesce(text, ''), '\\s+'),
                          x -> x <> ''))
              BETWEEN {FILTER_MIN_TOKENS} AND {FILTER_MAX_TOKENS}
      AND n_chars >= {FILTER_MIN_CHARS}
      AND text IS NOT NULL AND trim(text) <> ''
"""


# ---------------------------------------------------------------------------
# PII redaction (training-data hygiene)
# ---------------------------------------------------------------------------

# intentionally simple, RE2-compatible patterns so the DuckDB oracle can run
# the IDENTICAL regex (no lookbehind/lookahead)
PII_EMAIL = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
PII_PHONE = r"\+?[0-9][0-9().\- ]{7,}[0-9]"

_EMAIL_RE = re.compile(PII_EMAIL)
_PHONE_RE = re.compile(PII_PHONE)


def redact_pii_text(text: str) -> str:
    t = _EMAIL_RE.sub("<EMAIL>", text or "")
    return _PHONE_RE.sub("<PHONE>", t)


def redact_pii(sf_dir: str) -> "ray.data.Dataset":
    """(doc_id, redacted): emails/phones replaced with placeholder tokens —
    compiled-regex scalar kernel, embarrassingly parallel. The oracle runs
    the identical RE2 pattern via regexp_replace."""
    return _doc_map(sf_dir, (("redacted",), pa.string(), redact_pii_text))


REDACT_PII_SQL = f"""
    SELECT doc_id,
           regexp_replace(
               regexp_replace(text, '{PII_EMAIL}', '<EMAIL>', 'g'),
               '{PII_PHONE.replace("'", "''")}', '<PHONE>', 'g') AS redacted
    FROM documents
"""


# ---------------------------------------------------------------------------
# document fingerprint (rolling hash)
# ---------------------------------------------------------------------------

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return h


def doc_fingerprint(text: str) -> int:
    """Order-sensitive 64-bit fingerprint over normalized tokens (rolling
    FNV-1a chained across tokens); returned as signed int64."""
    h = _FNV_OFFSET
    for w in ascii_tokens((text or "").lower()):
        h = (h ^ fnv1a64(w.encode("utf-8"))) * _FNV_PRIME & _MASK64
        h = ((h << 7) | (h >> 57)) & _MASK64  # rotate: order sensitivity
    return h - (1 << 64) if h >= (1 << 63) else h


_FINGERPRINT = (("fingerprint",), pa.int64(), doc_fingerprint)


def fingerprint(sf_dir: str) -> "ray.data.Dataset":
    return _doc_map(sf_dir, _FINGERPRINT)


TEXT_STATS_SQL = r"""
    SELECT doc_id,
           length(text) AS n_chars_calc,
           length(text) - length(regexp_replace(text, '[0-9]',    '', 'g')) AS n_digits,
           length(text) - length(regexp_replace(text, '[A-Z]',    '', 'g')) AS n_upper,
           length(text) - length(regexp_replace(text, '[.,;:!?]', '', 'g')) AS n_punct
    FROM documents
"""


def doc_profile(sf_dir: str) -> "ray.data.Dataset":
    """(doc_id, n_chars_calc, n_digits, n_upper, n_punct, quality_micros,
    fingerprint): the per-doc scalar profile — registry consolidation of
    ``text_stats`` + ``quality_score_micros`` + ``fingerprint``. All three
    kernels run in ONE pass over one narrow read (cheaper than three
    separate reads, and one driver row covers all three operators)."""
    return _doc_map(sf_dir, _TEXT_STATS, _QUALITY_MICROS, _FINGERPRINT)


def doc_profile_sql() -> str:
    return f"""
        SELECT t.doc_id, t.n_chars_calc, t.n_digits, t.n_upper, t.n_punct,
               q.quality_micros, f.fingerprint
        FROM ({TEXT_STATS_SQL}) t
        JOIN ({quality_score_micros_sql()}) q USING (doc_id)
        JOIN ({fingerprint_sql()}) f USING (doc_id)
    """


# ---------------------------------------------------------------------------
# repetition stats (Gopher-style quality signals)
# ---------------------------------------------------------------------------


def repetition_stats_row(text: str | None) -> tuple[int, int, int, int, int]:
    """(n_words, n_distinct_words, top_word_count, n_bigrams,
    top_bigram_count) — the integer repetition signals behind Gopher-style
    quality gates (duplicate-word fraction = 1 - distinct/total; top-bigram
    fraction = top_bigram_count/n_bigrams). Integers only so the oracle
    value-hash is float-free."""
    words = ascii_tokens(text)
    n = len(words)
    if n == 0:
        return 0, 0, 0, 0, 0
    wc = collections.Counter(words)
    if n == 1:
        return 1, 1, 1, 0, 0
    bc = collections.Counter(zip(words, words[1:]))
    return n, len(wc), max(wc.values()), n - 1, max(bc.values())


def repetition_stats(sf_dir: str) -> "ray.data.Dataset":
    """Per-doc repetition/quality signals (Gopher rules 'fraction of
    duplicated words' and 'fraction of characters in the most common
    n-gram' — the crawl-corpus repetition filters). Embarrassingly
    parallel; one narrow read, no shuffle."""
    names = ("n_words", "n_distinct_words", "top_word_count", "n_bigrams",
             "top_bigram_count")
    return _doc_map(sf_dir, (names, pa.int64(), repetition_stats_row))


REPETITION_STATS_SQL = r"""
    WITH base AS (
        SELECT doc_id,
               list_filter(regexp_split_to_array(coalesce(text, ''), '\s+'),
                           x -> x <> '') AS ws
        FROM documents
    ), wc AS (
        SELECT doc_id,
               CAST(SUM(cnt) AS BIGINT) AS n_words,
               CAST(COUNT(*) AS BIGINT) AS n_distinct_words,
               CAST(MAX(cnt) AS BIGINT) AS top_word_count
        FROM (SELECT doc_id, word, COUNT(*) AS cnt
              FROM (SELECT doc_id, unnest(ws) AS word FROM base)
              GROUP BY doc_id, word)
        GROUP BY doc_id
    ), bg AS (
        SELECT doc_id,
               CAST(SUM(cnt) AS BIGINT) AS n_bigrams,
               CAST(MAX(cnt) AS BIGINT) AS top_bigram_count
        FROM (SELECT doc_id, w1, w2, COUNT(*) AS cnt
              FROM (SELECT doc_id, b[1] AS w1, b[2] AS w2
                    FROM (SELECT doc_id, unnest(list_zip(ws, ws[2:])) AS b
                          FROM base))
              WHERE w2 IS NOT NULL
              GROUP BY doc_id, w1, w2)
        GROUP BY doc_id
    )
    SELECT d.doc_id,
           COALESCE(wc.n_words, 0)           AS n_words,
           COALESCE(wc.n_distinct_words, 0)  AS n_distinct_words,
           COALESCE(wc.top_word_count, 0)    AS top_word_count,
           COALESCE(bg.n_bigrams, 0)         AS n_bigrams,
           COALESCE(bg.top_bigram_count, 0)  AS top_bigram_count
    FROM documents d
    LEFT JOIN wc ON d.doc_id = wc.doc_id
    LEFT JOIN bg ON d.doc_id = bg.doc_id
"""


# ---------------------------------------------------------------------------
# per-source document cap (domain-level crawl sampling)
# ---------------------------------------------------------------------------

SOURCE_CAP_K = 10


def source_cap_sample(sf_dir: str, k: int = SOURCE_CAP_K) -> "ray.data.Dataset":
    """Keep at most ``k`` docs per ``source`` (deterministic: smallest
    doc_ids win) — the domain-cap sampler every crawl pipeline runs so one
    hot domain cannot dominate the corpus.

    Shape (stages/bucketed.py): a per-batch LOCAL cap first (only ≤ k rows
    per source leave each read fragment — a 10^7-page domain sheds all but
    k rows before any data moves), then ONE hash shuffle on an int bucket
    of ``source`` and the same vectorized rank kernel per bucket. Never a
    per-key Python call."""
    ds = _read_documents(sf_dir, ["doc_id", "source"])

    def _local_cap(t: pa.Table) -> pa.Table:
        return add_bucket(keep_first_k(t, "source", ["doc_id"], k), "source")

    return (
        ds.map_batches(_local_cap, batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(
            lambda g: keep_first_k(
                g.drop_columns(["__bucket"]), "source", ["doc_id"], k
            ),
            batch_format="pyarrow",
        )
    )


def source_cap_sample_sql(k: int = SOURCE_CAP_K) -> str:
    return f"""
        SELECT doc_id, source FROM documents
        QUALIFY row_number() OVER (
            PARTITION BY source ORDER BY doc_id) <= {k}
    """


# ---------------------------------------------------------------------------
# duplicate n-gram fraction (corpus-level Gopher/Dolma dedup signal)
# ---------------------------------------------------------------------------

DUP_NGRAM_N = 8
_GRAM_B = np.uint64(1099511628211)  # FNV prime as positional base


def _word_ngram_hashes(texts: list, n: int) -> tuple[np.ndarray, np.ndarray]:
    """All docs of a batch at once → (doc_idx, gram_hash) for every DISTINCT
    word n-gram per doc. One vectorized pass: polars hashes the flattened
    word list, the n-gram combine is n shifted multiply-adds over the whole
    batch array, windows crossing doc boundaries are masked out, and
    per-doc dedup is a lexsort + neighbor-equality mask — no per-gram
    Python."""
    words_per_doc = [ascii_tokens(t) for t in texts]
    lens = np.fromiter((len(w) for w in words_per_doc), dtype=np.int64,
                       count=len(words_per_doc))
    flat: list[str] = [w for ws in words_per_doc for w in ws]
    if len(flat) < n:
        return np.empty(0, np.int64), np.empty(0, np.uint64)
    wh = hash64(flat)
    doc_of = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
    m = len(wh) - n + 1
    g = np.zeros(m, dtype=np.uint64)
    for j in range(n):  # n vector ops total
        g = g * _GRAM_B + wh[j : j + m]
    valid = doc_of[:m] == doc_of[n - 1 :]
    d, g = doc_of[:m][valid], g[valid]
    if not len(g):
        return d, g
    order = np.lexsort((g, d))
    d, g = d[order], g[order]
    first = np.empty(len(g), dtype=bool)
    first[0] = True
    first[1:] = (d[1:] != d[:-1]) | (g[1:] != g[:-1])
    return d[first], g[first]


def dup_ngram_fraction(
    sf_dir: str, n: int = DUP_NGRAM_N
) -> "ray.data.Dataset":
    """Per-doc fraction of distinct word ``n``-grams that appear in at
    least one OTHER document — the corpus-level duplicate-text signal the
    Gopher/Dolma quality gates threshold on (a boilerplate-heavy page
    scores high even when no single page is an exact dup).

    Distributed shape (the only exact way to get corpus-global counts):
    1. explode docs into NARROW (doc_id, gram_hash) rows, distinct per doc
       (uint64+int64 only — text never leaves the tokenize stage);
    2. ONE hash shuffle on ``gram_hash % P``; inside each bucket a
       vectorized kernel counts per-gram document frequency (every holder
       of a gram is in the same bucket) and reduces to per-doc partials
       (doc_id, n_grams_here, n_dup_here) — output is ≤ docs×P tiny rows;
    3. union zero rows (every doc appears even with < n words) and a
       distributed ``groupby(doc_id).sum`` over the int partials.
    """
    n_buckets = bucketed.DEFAULT_BUCKETS
    ds = _read_documents(sf_dir, ["doc_id", "text"])

    def _explode(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].combine_chunks().to_numpy(zero_copy_only=False)
        d, g = _word_ngram_hashes(t["text"].to_pylist(), n)
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(ids[d], pa.int64()),
                # bit-reinterpret so Arrow stores int64; values compare by
                # identity only, signedness is irrelevant
                "gram": pa.array(g.view(np.int64), pa.int64()),
                "__bucket": pa.array(hash_buckets(g, n_buckets)),
            }
        )

    def _bucket_partials(t: pa.Table) -> pa.Table:
        d = t["doc_id"].combine_chunks().to_numpy(zero_copy_only=False)
        g = t["gram"].combine_chunks().to_numpy(zero_copy_only=False)
        order = np.argsort(g, kind="stable")
        _, run_len = key_runs(g[order])
        df = np.repeat(run_len, run_len)  # per-row document frequency
        dup = (df > 1).astype(np.int64)
        ds_sorted = d[order]
        uids, inv = np.unique(ds_sorted, return_inverse=True)
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(uids, pa.int64()),
                "n_ngrams": pa.array(np.bincount(inv), pa.int64()),
                "n_dup": pa.array(
                    np.bincount(inv, weights=dup).astype(np.int64), pa.int64()
                ),
            }
        )

    partials = (
        ds.map_batches(_explode, batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(
            lambda t: _bucket_partials(t.drop_columns(["__bucket"])),
            batch_format="pyarrow",
        )
    )

    def _zeros(t: pa.Table) -> pa.Table:
        z = pa.nulls(t.num_rows, pa.int64()).fill_null(0)
        return pa.Table.from_pydict(
            {"doc_id": t["doc_id"], "n_ngrams": z, "n_dup": z}
        )

    presence = _read_documents(sf_dir, ["doc_id"]).map_batches(
        _zeros, batch_format="pyarrow"
    )

    def _finish(t: pa.Table) -> pa.Table:
        ng = t["n_ngrams"].combine_chunks().to_numpy(zero_copy_only=False)
        nd = t["n_dup"].combine_chunks().to_numpy(zero_copy_only=False)
        micros = np.where(
            ng > 0,
            (2 * nd * 1_000_000 + ng) // np.maximum(2 * ng, 1),
            0,
        )
        return pa.Table.from_pydict(
            {
                "doc_id": t["doc_id"],
                "n_ngrams": pa.array(ng, pa.int64()),
                "n_dup": pa.array(nd, pa.int64()),
                "dup_frac_micros": pa.array(micros, pa.int64()),
            }
        )

    return (
        partials.union(presence)
        .groupby("doc_id")
        .aggregate(
            Sum("n_ngrams", alias_name="n_ngrams"),
            Sum("n_dup", alias_name="n_dup"),
        )
        .map_batches(_finish, batch_format="pyarrow")
    )


def dup_ngram_fraction_sql(n: int = DUP_NGRAM_N) -> str:
    return rf"""
        WITH base AS (
            SELECT doc_id,
                   list_filter(regexp_split_to_array(text, '\s+'),
                               x -> x <> '') AS ws
            FROM documents
        ), g AS (
            SELECT DISTINCT doc_id,
                   array_to_string(
                       ws[CAST(i AS INT):CAST(i AS INT) + {n - 1}], ' ') AS gram
            FROM (SELECT doc_id, ws,
                         unnest(range(1, len(ws) - {n - 2})) AS i
                  FROM base)
        ), df AS (
            SELECT gram, COUNT(*) AS df FROM g GROUP BY 1
        ), per AS (
            SELECT g.doc_id,
                   CAST(COUNT(*) AS BIGINT) AS n_ngrams,
                   CAST(SUM(CASE WHEN df.df > 1 THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_dup
            FROM g JOIN df USING (gram)
            GROUP BY 1
        )
        SELECT d.doc_id,
               COALESCE(per.n_ngrams, 0) AS n_ngrams,
               COALESCE(per.n_dup, 0)    AS n_dup,
               CAST(CASE WHEN COALESCE(per.n_ngrams, 0) = 0 THEN 0
                    ELSE (2 * per.n_dup * 1000000 + per.n_ngrams)
                         // (2 * per.n_ngrams) END AS BIGINT)
                   AS dup_frac_micros
        FROM documents d LEFT JOIN per USING (doc_id)
    """


# ---------------------------------------------------------------------------
# TF-IDF top-k terms per document
# ---------------------------------------------------------------------------

TFIDF_K = 5


def _doc_term_rows(batch: pa.Table, sentinel: bool = False) -> pa.Table:
    """(doc_id, term, n): one row per distinct term of each document with
    its in-document count. ``sentinel`` gives a zero-token document one
    ("", 0) row, so it still reaches the output."""
    docs: list[int] = []
    terms: list[str] = []
    ns: list[int] = []
    for doc_id, text in zip(
        batch["doc_id"].to_pylist(), batch["text"].to_pylist()
    ):
        c = collections.Counter(ascii_tokens(text))
        if sentinel and not c:
            c[""] = 0
        docs.extend([doc_id] * len(c))
        terms.extend(c.keys())
        ns.extend(c.values())
    return pa.Table.from_pydict(
        {
            "doc_id": pa.array(docs, pa.int64()),
            "term": pa.array(terms, pa.string()),
            "n": pa.array(ns, pa.int64()),
        }
    )


def _term_runs(g: pa.Table) -> tuple[pa.Table, np.ndarray, np.ndarray]:
    """A term-bucketed table (``__bucket`` dropped) sorted by term, with
    its term runs (``key_runs``): a term's rows all live in one bucket, so
    its run is its whole corpus."""
    t = g.drop_columns(["__bucket"]).sort_by([("term", "ascending")])
    starts, lens = key_runs(
        t["term"].combine_chunks().to_numpy(zero_copy_only=False))
    return t, starts, lens


def tfidf_top_terms(sf_dir: str, k: int = TFIDF_K) -> "ray.data.Dataset":
    """Per-doc top-``k`` terms by tf*idf (idf = ln(N/df)) with (score DESC,
    term ASC) tie-break -- the classic keyword/feature extractor.

    Shape (NO driver-side vocabulary -- the whole term table never leaves
    the cluster): one tokenize pass emits narrow (doc_id, term, tf) rows
    (distinct per doc by construction), then TWO hash shuffles of those
    narrow rows. (1) bucket by term: a term's rows live wholly in one
    bucket, so its document frequency is just its run length after an
    in-bucket sort, and scores are computed in place -- one vectorized
    kernel per bucket, O(buckets) Python calls. (2) bucket by doc:
    vectorized per-bucket top-k (``keep_first_k``) + rank. The only
    driver-side state is the scalar N (parquet metadata; no data read).
    Ranking compares the ROUNDED integer micros with term-ASC tie-break,
    so Ray and SQL can never disagree on order within a doc."""
    n_buckets = bucketed.DEFAULT_BUCKETS
    n_docs = pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows

    def _score_bucket(g: pa.Table) -> pa.Table:
        t, _, run_len = _term_runs(g)
        df = np.repeat(run_len, run_len).astype(np.float64)
        tf = (
            t["n"].combine_chunks().to_numpy(zero_copy_only=False)
            .astype(np.float64)
        )
        score = np.floor(tf * np.log(n_docs / df) * 1_000_000 + 0.5).astype(
            np.int64
        )
        return add_bucket(
            pa.Table.from_pydict(
                {
                    "doc_id": t["doc_id"],
                    "term": t["term"],
                    "score_micros": pa.array(score, pa.int64()),
                    # keep_first_k sorts ascending only; rank on the negation
                    "neg_score": pa.array(-score, pa.int64()),
                }
            ),
            "doc_id",
            n_buckets,
        )

    def _topk_bucket(g: pa.Table) -> pa.Table:
        t = keep_first_k(
            g.drop_columns(["__bucket"]), "doc_id", ["neg_score", "term"], k
        )
        # keep_first_k returns rows in (doc, neg_score, term) order, so the
        # in-run offset IS the rank
        rank = run_rank(
            t["doc_id"].combine_chunks().to_numpy(zero_copy_only=False)) + 1
        return pa.Table.from_pydict(
            {
                "doc_id": t["doc_id"],
                "term": t["term"],
                "score_micros": t["score_micros"],
                "rank": pa.array(rank, pa.int64()),
            }
        )

    return (
        _read_documents(sf_dir, ["doc_id", "text"])
        .map_batches(
            lambda b: add_bucket(_doc_term_rows(b), "term", n_buckets),
            batch_format="pyarrow",
        )
        .groupby("__bucket")
        .map_groups(_score_bucket, batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(_topk_bucket, batch_format="pyarrow")
    )


def tfidf_top_terms_sql(k: int = TFIDF_K) -> str:
    return rf"""
        WITH terms AS (
            SELECT doc_id,
                   unnest(regexp_split_to_array(text, '\s+')) AS term
            FROM documents
        ), tf AS (
            SELECT doc_id, term, COUNT(*) AS tf FROM terms
            WHERE term <> '' GROUP BY 1, 2
        ), df AS (
            SELECT term, COUNT(DISTINCT doc_id) AS df FROM terms
            WHERE term <> '' GROUP BY 1
        ), scored AS (
            SELECT tf.doc_id, tf.term,
                   CAST(FLOOR(tf.tf * ln((SELECT COUNT(*) FROM documents)
                                         * 1.0 / df.df) * 1000000 + 0.5)
                        AS BIGINT) AS score_micros
            FROM tf JOIN df USING (term)
        )
        SELECT doc_id, term, score_micros, rank FROM (
            SELECT *, row_number() OVER (
                PARTITION BY doc_id
                ORDER BY score_micros DESC, term ASC) AS rank
            FROM scored
        ) WHERE rank <= {k}
    """


# ---------------------------------------------------------------------------
# inverted index: capped posting lists per term
# ---------------------------------------------------------------------------

POSTINGS_CAP = 20


def term_postings(
    sf_dir: str, cap: int = POSTINGS_CAP
) -> "ray.data.Dataset":
    """(term, df, postings): corpus document frequency plus the first
    ``cap`` doc_ids (ascending, comma-joined) per term — the inverted-index
    build, the one text op whose SHUFFLE IS the product.

    Map-side cap is lossless: every doc's rows live in exactly one input
    batch, so per-batch DISTINCT (term, doc) sets are disjoint — global df
    is the SUM of batch partials, and the k-smallest of a union is the
    k-smallest of the per-batch k-smallests. Each batch therefore ships at
    most (partial_df:int64 + cap doc_ids) per distinct term, and the single
    hash shuffle on the term bucket moves vocabulary-bounded data however
    many trillion tokens went in."""
    ds = _read_documents(sf_dir, ["doc_id", "text"])

    def _partials(t: pa.Table) -> pa.Table:
        docs: dict[str, list[int]] = collections.defaultdict(list)
        for doc_id, text in zip(
            t["doc_id"].to_pylist(), t["text"].to_pylist()
        ):
            for w in set(ascii_tokens(text)):
                docs[w].append(doc_id)
        terms = list(docs.keys())
        return pa.Table.from_pydict(
            {
                "term": pa.array(terms, pa.string()),
                "pdf": pa.array([len(docs[w]) for w in terms], pa.int64()),
                "plist": pa.array(
                    [sorted(docs[w])[:cap] for w in terms],
                    type=pa.list_(pa.int64()),
                ),
            }
        )

    n_buckets = bucketed.DEFAULT_BUCKETS

    def _merge_bucket(g: pa.Table) -> pa.Table:
        t, starts, lens = _term_runs(g)
        plists = t["plist"].to_pylist()
        return pa.Table.from_pydict(
            {
                "term": t["term"].take(pa.array(starts)),
                "df": pa.array(
                    np.add.reduceat(t["pdf"].to_numpy(), starts), pa.int64()),
                "postings": pa.array(
                    [",".join(map(str, sorted(
                        itertools.chain.from_iterable(plists[a:a + n])
                    )[:cap])) for a, n in zip(starts, lens)],
                    pa.string(),
                ),
            }
        )

    return (
        ds.map_batches(
            lambda t: add_bucket(_partials(t), "term", n_buckets),
            batch_format="pyarrow",
        )
        .groupby("__bucket")
        .map_groups(_merge_bucket, batch_format="pyarrow")
    )


def term_postings_sql(cap: int = POSTINGS_CAP) -> str:
    return rf"""
        WITH td AS (
            SELECT DISTINCT doc_id, term FROM (
                SELECT doc_id,
                       unnest(regexp_split_to_array(text, '\s+')) AS term
                FROM documents
            ) WHERE term <> ''
        )
        SELECT term,
               CAST(COUNT(*) AS BIGINT) AS df,
               array_to_string(list_sort(list(doc_id))[1:{cap}], ',')
                   AS postings
        FROM td GROUP BY term
    """


# ---------------------------------------------------------------------------
# unigram LM scoring (CCNet-style perplexity filter shape)
# ---------------------------------------------------------------------------


def unigram_logprob(sf_dir: str) -> "ray.data.Dataset":
    """Per-doc unigram negative log-likelihood under the corpus's own
    unigram model -- the CCNet/Wikipedia-LM quality-filter shape (docs with
    high average NLL are "surprising" relative to the corpus: noise, spam,
    wrong language).

    Shape (NO driver-side vocabulary): a tiny streaming aggregate first
    yields the corpus token total (ONE int64 on the driver). Then one
    tokenize pass emits narrow (doc_id, term, cnt) rows -- zero-token docs
    contribute a cnt=0 sentinel so every doc appears in the output, the
    LEFT JOIN of the SQL mirror. Bucketing by term puts each term's rows
    wholly in one bucket, where its corpus count is an in-bucket run sum
    and each row's contribution becomes cnt * nll(term) -- the term string
    is DROPPED there, so the second shuffle (bucket by doc, fold sums)
    moves three-int64 rows only. Every token's nll is rounded to integer
    micros BEFORE summation, so per-doc totals are exact integer sums --
    order-independent and bit-equal to the SQL mirror."""
    n_buckets = bucketed.DEFAULT_BUCKETS
    ds = _read_documents(sf_dir, ["doc_id", "text"])

    # the corpus token total: one int64 on the driver
    total = int(_doc_map(sf_dir, _TOKENS).sum("n_tokens") or 0)

    def _nll_bucket(g: pa.Table) -> pa.Table:
        t, starts, run_len = _term_runs(g)
        cnt = t["n"].combine_chunks().to_numpy(zero_copy_only=False)
        n_term = np.repeat(np.add.reduceat(cnt, starts), run_len)
        nll = np.zeros(len(cnt), dtype=np.int64)
        pos = n_term > 0  # sentinel runs (cnt 0 everywhere) stay at 0
        nll[pos] = np.floor(
            -np.log(n_term[pos] / float(total)) * 1_000_000 + 0.5
        ).astype(np.int64)
        return add_bucket(
            pa.Table.from_pydict(
                {
                    "doc_id": t["doc_id"],
                    "n_tokens": pa.array(cnt, pa.int64()),
                    "nll_micros": pa.array(cnt * nll, pa.int64()),
                }
            ),
            "doc_id",
            n_buckets,
        )

    def _doc_fold(g: pa.Table) -> pa.Table:
        t = g.drop_columns(["__bucket"]).sort_by([("doc_id", "ascending")])
        ids = t["doc_id"].combine_chunks().to_numpy(zero_copy_only=False)
        starts = sorted_key_bounds(ids)
        n = np.add.reduceat(
            t["n_tokens"].combine_chunks().to_numpy(zero_copy_only=False),
            starts,
        )
        v = np.add.reduceat(
            t["nll_micros"].combine_chunks().to_numpy(zero_copy_only=False),
            starts,
        )
        avg = np.where(n > 0, v // np.maximum(n, 1), 0)
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(ids[starts], pa.int64()),
                "n_tokens": pa.array(n, pa.int64()),
                "nll_micros": pa.array(v, pa.int64()),
                "avg_nll_micros": pa.array(avg, pa.int64()),
            }
        )

    return (
        ds.map_batches(
            lambda b: add_bucket(
                _doc_term_rows(b, sentinel=True), "term", n_buckets),
            batch_format="pyarrow",
        )
        .groupby("__bucket")
        .map_groups(_nll_bucket, batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(_doc_fold, batch_format="pyarrow")
    )


UNIGRAM_LOGPROB_SQL = r"""
    WITH toks AS (
        SELECT doc_id,
               unnest(regexp_split_to_array(text, '\s+')) AS term
        FROM documents
    ), tok AS (
        SELECT doc_id, term FROM toks WHERE term <> ''
    ), freq AS (
        SELECT term, COUNT(*) AS n FROM tok GROUP BY 1
    ), tot AS (
        SELECT COUNT(*) AS total FROM tok
    ), scored AS (
        SELECT tok.doc_id,
               CAST(FLOOR(-ln(freq.n / (tot.total * 1.0)) * 1000000 + 0.5)
                    AS BIGINT) AS tok_nll
        FROM tok JOIN freq USING (term), tot
    ), per AS (
        SELECT doc_id,
               CAST(COUNT(*) AS BIGINT) AS n_tokens,
               CAST(SUM(tok_nll) AS BIGINT) AS nll_micros
        FROM scored GROUP BY 1
    )
    SELECT d.doc_id,
           COALESCE(per.n_tokens, 0) AS n_tokens,
           COALESCE(per.nll_micros, 0) AS nll_micros,
           CAST(CASE WHEN COALESCE(per.n_tokens, 0) = 0 THEN 0
                ELSE per.nll_micros // per.n_tokens END AS BIGINT)
               AS avg_nll_micros
    FROM documents d LEFT JOIN per USING (doc_id)
"""


# ---------------------------------------------------------------------------
# corpus gate (Dolma-style mixer: signals → keep/drop + first-fail reason)
# ---------------------------------------------------------------------------

GATE_MIN_WORDS = 20
GATE_MAX_CHARS = 100_000
GATE_DUP_WORD_PCT = 40  # drop when duplicated-word fraction > 40%
GATE_LANGS = ("en", "fr", "de", "es")


def gate_reason(words: list[str], lang: str | None, n_chars: int) -> str:
    """The first corpus gate a document fails, in rule order too_short →
    too_long → dup_words → lang, or 'ok'. Rules are integer/set
    comparisons only (the duplicate-word test is ``(n - distinct) * 100 >
    pct * n``)."""
    n = len(words)
    if n < GATE_MIN_WORDS:
        return "too_short"
    if n_chars > GATE_MAX_CHARS:
        return "too_long"
    if (n - len(set(words))) * 100 > GATE_DUP_WORD_PCT * n:
        return "dup_words"
    if lang not in GATE_LANGS:
        return "lang"
    return "ok"


def _gate_batch(t: pa.Table) -> tuple[pa.Array, pa.Array]:
    """(reason, n_tokens) of each document of a (text, lang, n_chars)
    batch."""
    reasons, n_toks = [], []
    for text, lang, n_chars in zip(
        t["text"].to_pylist(), t["lang"].to_pylist(), t["n_chars"].to_pylist()
    ):
        words = ascii_tokens(text)
        reasons.append(gate_reason(words, lang, n_chars))
        n_toks.append(len(words))
    return pa.array(reasons, pa.string()), pa.array(n_toks, pa.int64())


def corpus_gate(sf_dir: str) -> "ray.data.Dataset":
    """(doc_id, keep, reason): the mixer every crawl corpus runs before
    training — each doc either passes every gate (reason='ok') or is
    tagged with the FIRST failing rule (``gate_reason``), so downstream
    can both filter and audit drop composition. One doc-local pass, no
    shuffle."""

    def _gate(t: pa.Table) -> pa.Table:
        reasons, _ = _gate_batch(t)
        return pa.Table.from_pydict(
            {
                "doc_id": t["doc_id"],
                "keep": pc.equal(reasons, "ok"),
                "reason": reasons,
            }
        )

    return _read_documents(
        sf_dir, ["doc_id", "text", "lang", "n_chars"]
    ).map_batches(_gate, batch_format="pyarrow")


CORPUS_GATE_SQL = rf"""
    WITH w AS (
        SELECT doc_id, lang, n_chars,
               list_filter(regexp_split_to_array(coalesce(text, ''), '\s+'),
                           x -> x <> '') AS ws
        FROM documents
    ), c AS (
        SELECT doc_id, lang, n_chars,
               len(ws) AS n,
               len(list_distinct(ws)) AS nd
        FROM w
    )
    SELECT doc_id,
           CASE
               WHEN n < {GATE_MIN_WORDS} THEN 'too_short'
               WHEN n_chars > {GATE_MAX_CHARS} THEN 'too_long'
               WHEN (n - nd) * 100 > {GATE_DUP_WORD_PCT} * n THEN 'dup_words'
               WHEN lang NOT IN {GATE_LANGS!r} THEN 'lang'
               ELSE 'ok'
           END AS reason,
           CASE
               WHEN n < {GATE_MIN_WORDS} THEN FALSE
               WHEN n_chars > {GATE_MAX_CHARS} THEN FALSE
               WHEN (n - nd) * 100 > {GATE_DUP_WORD_PCT} * n THEN FALSE
               WHEN lang NOT IN {GATE_LANGS!r} THEN FALSE
               ELSE TRUE
           END AS keep
    FROM c
"""


# ---------------------------------------------------------------------------
# deterministic corpus shuffle (reproducible training order)
# ---------------------------------------------------------------------------


def _md5_tag(t: pa.Table, seed: str, **cols) -> pa.Table:
    """(doc_id, *cols, h, __bucket): h = md5(seed:doc_id) hex, the shuffle
    order key; its first byte is the bucket, a range partition of that
    order into 256 uniform buckets."""
    hs = [
        hashlib.md5(f"{seed}:{d}".encode()).hexdigest()
        for d in t["doc_id"].to_pylist()
    ]
    return pa.Table.from_pydict(
        {
            "doc_id": t["doc_id"],
            **cols,
            "h": pa.array(hs, pa.string()),
            "__bucket": pa.array(
                np.array([int(h[:2], 16) for h in hs], dtype=np.int32)
            ),
        }
    )


def deterministic_shuffle(sf_dir: str, seed: str = "epoch0") -> "ray.data.Dataset":
    """(doc_id, shuffle_rank): a reproducible global permutation — rank in
    ascending md5(seed || ':' || doc_id) order. This is how a training run
    pins its data order across re-runs and resumes (``random_shuffle`` is
    nondeterministic across cluster shapes; a hash rank is a pure function
    of the data).

    Shape: ``running_sum`` with weight 1 over the md5 first-byte buckets
    (``_md5_tag``) — global rank with no global sort, balanced by
    construction (md5 is uniform, so no skew mitigation is needed). md5
    (not a faster 128-bit hash) is deliberate: DuckDB computes the
    identical digest, making the permutation SQL-checkable."""
    tagged = _read_documents(sf_dir, ["doc_id"]).map_batches(
        lambda t: _md5_tag(t, seed), batch_format="pyarrow"
    )
    return running_sum(
        tagged, 256, None, ["h"],
        lambda t, cum: pa.Table.from_pydict(
            {"doc_id": t["doc_id"], "shuffle_rank": pa.array(cum, pa.int64())}
        ),
    )


def deterministic_shuffle_sql(seed: str = "epoch0") -> str:
    return f"""
        SELECT doc_id,
               row_number() OVER (
                   ORDER BY md5('{seed}' || ':' || CAST(doc_id AS VARCHAR)))
                   AS shuffle_rank
        FROM documents
    """


# ---------------------------------------------------------------------------
# token-budget corpus head (training-mix assembly)
# ---------------------------------------------------------------------------

TOKEN_BUDGET = 15_000


def token_budget_head(
    sf_dir: str, budget: int = TOKEN_BUDGET, seed: str = "epoch0"
) -> "ray.data.Dataset":
    """(doc_id, n_tokens, cum_tokens): the PREFIX of the deterministic
    shuffle order (md5 rank, same permutation as ``deterministic_shuffle``)
    whose running token total stays ≤ ``budget`` — how a training mix is
    cut to a token budget reproducibly (the cut is a pure function of the
    data, stable across cluster shapes and resumes).

    Shape: ``running_sum`` of ``n_tokens`` over the md5 first-byte buckets
    in (h, doc_id) order — a global running sum with NO global sort — then
    the ``cum_tokens <= budget`` filter of the SQL oracle's QUALIFY."""

    def _tag(t: pa.Table) -> pa.Table:
        n = [len(ascii_tokens(x)) for x in t["text"].to_pylist()]
        return _md5_tag(t, seed, n_tokens=pa.array(n, pa.int64()))

    def _head(t: pa.Table, cum: np.ndarray) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "doc_id": t["doc_id"],
                "n_tokens": t["n_tokens"],
                "cum_tokens": pa.array(cum, pa.int64()),
            }
        ).filter(pa.array(cum <= budget))

    tagged = _read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        _tag, batch_format="pyarrow"
    )
    return running_sum(tagged, 256, "n_tokens", ["h", "doc_id"], _head)


def token_budget_head_sql(
    budget: int = TOKEN_BUDGET, seed: str = "epoch0"
) -> str:
    return rf"""
        WITH c AS (
            SELECT doc_id,
                   CAST(len(list_filter(
                       regexp_split_to_array(coalesce(text, ''),
                                             '[ \t\n\r\f]+'),
                       x -> x <> '')) AS BIGINT) AS n_tokens,
                   md5('{seed}' || ':' || CAST(doc_id AS VARCHAR)) AS h
            FROM documents
        )
        SELECT doc_id, n_tokens,
               CAST(SUM(n_tokens) OVER (ORDER BY h, doc_id) AS BIGINT)
                   AS cum_tokens
        FROM c QUALIFY cum_tokens <= {budget}
    """


# ---------------------------------------------------------------------------
# composed corpus-prep pipeline (gate -> exact dedup -> per-lang rollup)
# ---------------------------------------------------------------------------


def corpus_prep(sf_dir: str) -> "ray.data.Dataset":
    """(lang, n_docs, n_tokens): the composed corpus-preparation chain a
    crawl corpus actually runs — quality GATE (same rules/first-fail order
    as ``corpus_gate``), then exact DEDUP among the survivors (min doc_id
    per identical text), rolled up per language. One pipeline, stages
    fused where document-local:

      read → [gate filter + content hash + token count]   (one map stage)
           → bucket shuffle on text_hash (16-byte rows)   (the one exchange)
           → per-bucket survivor kernel → per-lang partial
           → tiny groupby(lang) Sum.

    The wide text column never crosses the exchange — only (hash, doc_id,
    lang, n_tokens). Demonstrates that the operator library composes into
    end-to-end corpus jobs without extra materialization."""

    def _gate_hash(t: pa.Table) -> pa.Table:
        reasons, n_toks = _gate_batch(t)
        t = t.append_column("n_tokens", n_toks).filter(pc.equal(reasons, "ok"))
        h = hash64(pc.fill_null(t["text"].combine_chunks(), ""))
        out = pa.Table.from_pydict(
            {
                "text_hash": pa.array(h.view(np.int64), pa.int64()),
                "doc_id": t["doc_id"],
                "lang": t["lang"],
                "n_tokens": t["n_tokens"],
            }
        )
        return add_bucket(out, "text_hash")

    def _survivor_partial(g: pa.Table) -> pa.Table:
        order = pc.sort_indices(
            g, sort_keys=[("text_hash", "ascending"), ("doc_id", "ascending")]
        )
        g = g.take(order)
        h = g["text_hash"].combine_chunks().to_numpy()
        if not len(h):
            return pa.Table.from_pydict(
                {"lang": pa.array([], pa.string()),
                 "docs": pa.array([], pa.int64()),
                 "toks": pa.array([], pa.int64())}
            )
        starts = sorted_key_bounds(h)  # first (min doc_id) row per text
        surv = g.take(pa.array(starts))
        return pa.Table.from_pydict(
            {"lang": surv["lang"], "docs": pa.array(
                np.ones(len(starts), dtype=np.int64)),
             "toks": surv["n_tokens"]}
        ).group_by(["lang"]).aggregate([("docs", "sum"), ("toks", "sum")]
        ).rename_columns(["lang", "docs", "toks"])

    ds = _read_documents(sf_dir, ["doc_id", "text", "lang", "n_chars"])
    return (
        ds.map_batches(_gate_hash, batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(
            lambda g: _survivor_partial(g.drop_columns(["__bucket"])),
            batch_format="pyarrow",
        )
        .groupby("lang")
        .aggregate(
            Sum("docs", alias_name="n_docs"),
            Sum("toks", alias_name="n_tokens"),
        )
    )


CORPUS_PREP_SQL = rf"""
    WITH gate AS ({CORPUS_GATE_SQL}),
    kept AS (
        SELECT d.doc_id, d.lang, d.text
        FROM documents d JOIN gate USING (doc_id)
        WHERE gate.keep
    ),
    surv AS (
        SELECT MIN(doc_id) AS doc_id FROM kept GROUP BY text
    )
    SELECT k.lang,
           CAST(COUNT(*) AS BIGINT) AS n_docs,
           CAST(SUM(len(list_filter(
               regexp_split_to_array(coalesce(k.text, ''), '[ \t\n\r\f]+'),
               x -> x <> ''))) AS BIGINT) AS n_tokens
    FROM kept k JOIN surv USING (doc_id)
    GROUP BY k.lang
"""

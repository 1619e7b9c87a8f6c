from datacat_ray.state.lexicon import (  # noqa: F401
    COMMON_WORDS,
    MONTH_NAMES,
    PROPER_NAMES,
    EMAIL_RE,
    YEAR_RE,
    has_link,
    has_month,
    is_common_word,
    is_month,
    is_proper_name,
)

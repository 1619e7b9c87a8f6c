"""A cascade level's emission matrix of value columns, through ``VOCAB``
codes and ``_Level.gather`` (the stage computes codes directly; tests that
hold values go through this)."""

from __future__ import annotations

import numpy as np

from datacat_ray.stages.crf import VOCAB


def level_emissions(level, cols, lens):
    """``level``'s emission matrix of value columns (one list per field in
    ``level.fields``) over documents of ``lens`` positions."""
    return level.gather({name: VOCAB.codes(name, cols[name])
                         for name in level.fields}, np.atleast_1d(lens))

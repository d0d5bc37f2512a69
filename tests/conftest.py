"""Hypothesis settings for the whole suite: a failing example prints the ``@reproduce_failure`` line that replays
it.  No seed is pinned and no example count changes, so every run still draws fresh examples."""

from hypothesis import settings

settings.register_profile("replayable", print_blob=True)
settings.load_profile("replayable")

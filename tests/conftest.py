"""Suite-wide ``hypothesis`` settings: every run draws the same examples
(``derandomize``), and no example fails for being slow (``deadline=None``),
so property tests give one answer on a loaded or shared host."""

from hypothesis import settings

settings.register_profile("catens", derandomize=True, deadline=None)
settings.load_profile("catens")

"""Every property test runs derandomized and without a deadline, so the
suite draws the same examples on every run; a test sets only its
max_examples."""

from hypothesis import settings

settings.register_profile("secnum", deadline=None, derandomize=True)
settings.load_profile("secnum")

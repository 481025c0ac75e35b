"""Pytest setup shared by every test directory of the repository."""

import warnings

# When a hypothesis example fails, hypothesis's pytest plugin imports
# hypothesis.extra._patching, which imports libcst, whose import of
# mypy_extensions warns with a DeprecationWarning.  Under ``-W error`` that
# warning turns the failure report into an INTERNALERROR that ends the
# session.  Importing the module here first, with the warning ignored, lets
# the failure be reported and the later tests run.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

"""The property tests' shared hypothesis profile (``tests/conftest.py``)."""

from hypothesis import settings


def test_failures_print_their_reproduce_line():
    assert settings.default.print_blob is True
    # Nothing else is changed: deadlines and example counts stay each
    # test's own, on hypothesis's defaults.
    assert settings.default.max_examples == settings.get_profile(
        "default"
    ).max_examples

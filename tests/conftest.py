import sys

import pytest


@pytest.fixture
def int_str_limit():
    """Runs the test under the default 4300-digit int-to-str limit, and
    gives str() of a value taken with the limit lifted for that call."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)

    def unlimited_str(value):
        sys.set_int_max_str_digits(0)
        try:
            return str(value)
        finally:
            sys.set_int_max_str_digits(4300)

    yield unlimited_str
    sys.set_int_max_str_digits(before)

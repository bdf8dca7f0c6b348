"""A pytest plugin that models Python 3.10, which has no int<->str digit limit, on a later interpreter.

    PYTHONPATH=src:tests python -m pytest -q -p py310_model

Before the tests are collected it switches the interpreter's limit off and
deletes `sys.get_int_max_str_digits` and `sys.set_int_max_str_digits`, so
every conversion runs unguarded and code that looks for the two functions
finds neither, as on 3.10.  Tests run in subprocesses get the real interpreter.
"""

import sys


def pytest_configure(config):
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
        del sys.set_int_max_str_digits, sys.get_int_max_str_digits

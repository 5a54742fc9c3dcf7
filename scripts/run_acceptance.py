#!/usr/bin/env python3
"""Run the acceptance suite and print one pass/fail line per criterion.

Equivalent to ``pytest tests/test_acceptance.py -v -s``; exits non-zero if
any criterion fails.  Expect roughly 10 minutes on a 2-core machine.
"""

import sys
from pathlib import Path

import pytest

if __name__ == "__main__":
    target = Path(__file__).resolve().parent.parent / "tests" / "test_acceptance.py"
    sys.exit(pytest.main([str(target), "-v", "-s", *sys.argv[1:]]))

#!/usr/bin/env python3
"""Run the full exact-identity suite with negative controls."""

import sys

from bergproj.cli import main

RUNS = (
    ["identities", "--max-n", "5", "--negative-controls", "--out", "identity_suite.json"],
)

if __name__ == "__main__":
    code = 0
    for argv in RUNS:
        print(f"--- bergproj {' '.join(argv)}")
        code = max(code, main(argv))
    sys.exit(code)

#!/usr/bin/env python3
"""Scan the ratio trend across exponents, including both endpoints."""

import sys

from bergproj.cli import main

RUNS = (
    ["scan", "--n", "2", "--p-list", "1.3333333333333333,1.5,2,3,3.9,4",
     "--out", "scan_n2.json", "--csv", "scan_n2.csv"],
)

if __name__ == "__main__":
    code = 0
    for argv in RUNS:
        print(f"--- bergproj {' '.join(argv)}")
        code = max(code, main(argv))
    sys.exit(code)

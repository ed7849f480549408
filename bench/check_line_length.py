#!/usr/bin/env python3
"""Fails on any C++ line wider than the ColumnLimit of .clang-format.

    python3 bench/check_line_length.py

Reads the limit from the repository's .clang-format, scans every .cpp and
.hpp file under src, tests, bench and examples (the set CI's format check
covers) and prints each offending line as ``path:line: N columns``.
Columns count characters, not bytes, as clang-format does for UTF-8
source. Exit status: 0 when every line fits, 1 otherwise.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIRS = ("src", "tests", "bench", "examples")


def column_limit():
    """The ColumnLimit of .clang-format."""
    with open(os.path.join(ROOT, ".clang-format"), encoding="utf-8") as f:
        for line in f:
            key, _, value = line.partition(":")
            if key.strip() == "ColumnLimit":
                return int(value)
    raise ValueError(".clang-format sets no ColumnLimit")


def sources():
    """Every .cpp/.hpp file under DIRS, in sorted order."""
    for directory in DIRS:
        for parent, dirs, files in os.walk(os.path.join(ROOT, directory)):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".cpp", ".hpp")):
                    yield os.path.join(parent, name)


def main():
    limit = column_limit()
    found = 0
    for path in sources():
        with open(path, encoding="utf-8") as f:
            for number, line in enumerate(f.read().splitlines(), start=1):
                if len(line) > limit:
                    print(f"{os.path.relpath(path, ROOT)}:{number}: "
                          f"{len(line)} columns")
                    found += 1
    if found:
        print(f"{found} lines over {limit} columns", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

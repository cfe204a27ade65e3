#!/usr/bin/env python3
"""Prints the code-line count of src/: non-blank, non-comment lines of every
src/**/*.h and src/**/*.cc file.

A line counts unless it is blank or holds only a comment (`// ...`, or part
of a `/* ... */` block). This is the figure design changes quote as "src/
code lines".

Usage: python3 scripts/src_lines.py
"""

import pathlib
import sys


def code_lines(text):
    count = 0
    in_block = False
    for line in text.splitlines():
        s = line.strip()
        if in_block:
            if "*/" not in s:
                continue
            in_block = False
            s = s.split("*/", 1)[1].strip()
        if s.startswith("/*"):
            if "*/" not in s:
                in_block = True
                continue
            s = s.split("*/", 1)[1].strip()
        if s and not s.startswith("//"):
            count += 1
    return count


def main():
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    total = 0
    for path in sorted(src.rglob("*")):
        if path.suffix in (".h", ".cc") and path.is_file():
            total += code_lines(path.read_text())
    print(total)
    return 0


if __name__ == "__main__":
    sys.exit(main())

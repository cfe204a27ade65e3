#!/usr/bin/env python3
"""Prints the code-line count of src/: non-blank, non-comment lines of every
src/**/*.h and src/**/*.cc file. Given directories, prints each one's
count and then their total.

A line counts unless it is blank or holds only a comment (`// ...`, or part
of a `/* ... */` block). This is the figure design changes quote as "src/
code lines".

Usage: python3 scripts/src_lines.py [DIR ...]   (e.g. src/sim; default src)
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


def dir_lines(root):
    return sum(code_lines(path.read_text()) for path in sorted(root.rglob("*"))
               if path.suffix in (".h", ".cc") and path.is_file())


def main():
    if len(sys.argv) == 1:
        print(dir_lines(pathlib.Path(__file__).resolve().parent.parent / "src"))
        return 0
    total = 0
    for arg in sys.argv[1:]:
        count = dir_lines(pathlib.Path(arg))
        print(f"{arg} {count}")
        total += count
    print(f"total {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

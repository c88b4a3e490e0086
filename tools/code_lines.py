#!/usr/bin/env python3
"""Counts code lines: the non-blank, non-comment lines of .cpp and .hpp files.

With no arguments, prints one row per top-level module of src/ and the
total. With arguments, prints one row per file or directory given.

  python3 tools/code_lines.py
  python3 tools/code_lines.py src/support/trace.hpp src/support/trace.cpp

A line counts when anything but whitespace is left on it once // and /* */
comments are removed; comment markers inside string and character literals
are not comments.
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SUFFIXES = (".cpp", ".hpp")


def code_lines(text):
    """Code lines of one C++ source text."""
    count = 0
    in_block = False
    for line in text.splitlines():
        code = False
        i, n = 0, len(line)
        quote = None  # the open literal's delimiter, if any
        while i < n:
            c = line[i]
            if in_block:
                if line.startswith("*/", i):
                    in_block = False
                    i += 2
                else:
                    i += 1
            elif quote is not None:
                code = True
                if c == "\\":
                    i += 2
                    continue
                if c == quote:
                    quote = None
                i += 1
            elif line.startswith("//", i):
                break
            elif line.startswith("/*", i):
                in_block = True
                i += 2
            else:
                if c in "\"'":
                    quote = c
                if not c.isspace():
                    code = True
                i += 1
        count += code
    return count


def count_path(path):
    """Code lines of a file, or of every .cpp/.hpp file under a directory."""
    files = [path] if path.is_file() else sorted(
        p for p in path.rglob("*") if p.suffix in SUFFIXES)
    return sum(code_lines(f.read_text(encoding="utf-8")) for f in files)


def main(argv):
    if len(argv) > 1:
        rows = [(arg, pathlib.Path(arg)) for arg in argv[1:]]
    else:
        src = ROOT / "src"
        rows = [(p.name, p) for p in sorted(src.iterdir())
                if p.is_dir() or p.suffix in SUFFIXES]
    for _, path in rows:
        if not path.exists():
            print(f"code_lines: no such file or directory: {path}",
                  file=sys.stderr)
            return 1
    counts = [(name, count_path(path)) for name, path in rows]
    width = max(len(name) for name, _ in counts + [("total", 0)])
    for name, lines in counts:
        print(f"{name:<{width}}  {lines:>6}")
    print(f"{'total':<{width}}  {sum(lines for _, lines in counts):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

#!/usr/bin/env python3
"""Lists the `thread::sleep` calls on product paths.

A site is a `thread::sleep` in a `.rs` file under `crates/*/src` that is
not inside an item marked `#[cfg(test)]` (the file's test module, or a
test-only function). Each site is named by its file and the nearest
enclosing `fn`, so it survives edits that move lines.

    python3 ci/product_sleeps.py           # print the sites, one per line
    python3 ci/product_sleeps.py --check   # compare with ci/product_sleeps.txt

`--check` exits non-zero when a site is not in the list, or when a listed
site is gone (so the list only shrinks). Each list line is
`<file> <fn> <reason>`; `#` starts a comment.
"""

import os
import re
import sys

LIST = os.path.join(os.path.dirname(os.path.abspath(__file__)), "product_sleeps.txt")
FN = re.compile(r"^\s*(?:pub(?:\([^)]*\))?\s+)?(?:const\s+)?fn\s+([A-Za-z_]\w*)")
# String and char literals, blanked before braces are counted.
LITERAL = re.compile(r'"(?:\\.|[^"\\])*"|\'(?:\\.|[^\'\\])\'')


def sources():
    for crate in sorted(os.listdir("crates")):
        src = os.path.join("crates", crate, "src")
        for dirpath, dirnames, filenames in os.walk(src):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".rs"):
                    yield os.path.join(dirpath, name).replace(os.sep, "/")


def sites(path):
    """Yields the enclosing fn name of each product-path sleep in `path`."""
    with open(path, encoding="utf-8") as f:
        lines = [LITERAL.sub('""', line).split("//")[0] for line in f]
    test_depth = None  # brace depth at which the current test item ends
    pending_test = False  # saw `#[cfg(test)]`, its item's `{` not yet
    depth = 0
    enclosing = "<top>"
    for line in lines:
        if test_depth is None:
            if "#[cfg(test)]" in line:
                pending_test = True
            m = FN.match(line)
            if m:
                enclosing = m.group(1)
            if not pending_test and "thread::sleep" in line:
                yield enclosing
        for ch in line:
            if ch == "{":
                if pending_test and test_depth is None:
                    test_depth = depth
                    pending_test = False
                depth += 1
            elif ch == "}":
                depth -= 1
                if test_depth is not None and depth == test_depth:
                    test_depth = None
        if pending_test and line.rstrip().endswith(";"):
            pending_test = False  # a braceless item, e.g. `use` or `mod x;`


def found():
    return sorted((path, name) for path in sources() for name in sites(path))


def listed():
    entries = []
    with open(LIST, encoding="utf-8") as f:
        for line in f:
            line = line.split("#", 1)[0].strip()
            if line:
                path, name = line.split()[:2]
                entries.append((path, name))
    return sorted(entries)


def main():
    now = found()
    if "--check" not in sys.argv[1:]:
        for path, name in now:
            print(f"{path} {name}")
        return 0
    allowed = listed()
    new = [s for s in now if s not in allowed]
    gone = [s for s in allowed if s not in now]
    for path, name in new:
        print(f"new product-path sleep: {path} in fn {name}")
    for path, name in gone:
        print(f"listed sleep is gone, drop it from ci/product_sleeps.txt: {path} {name}")
    print(f"{len(now)} product-path sleeps, {len(allowed)} listed")
    return 1 if new or gone else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Lists `pub` names in crates/ that no other source file mentions.

A name is *dead* when it is declared `pub` (fn, type, const, static, mod
or field) at the start of a line in a `.rs` file under `crates/`, and no
other `.rs` file under `crates/ src/ tests/ examples/ ledger/src`
mentions it as a word (a `pub use` re-export counts as a mention). Such a
name is public only by accident: rustc's `dead_code` lint cannot see it.
Names are matched as words, not resolved: a method name shared by several
types counts as used if any of them is called, so one live `is_durable`
hides every uncalled one.

    python3 ci/dead_pub.py           # print the dead names, one per line
    python3 ci/dead_pub.py --check   # compare with ci/dead_pub_allow.txt

`--check` exits non-zero when a dead name is not in the allow-list, or
when an allow-list entry is no longer dead (so the list only shrinks).
Each allow-list line is `<file> <name> <reason>`; `#` starts a comment.
"""

import os
import re
import sys

ROOTS = ["crates", "src", "tests", "examples", "ledger/src"]
ALLOW = os.path.join(os.path.dirname(os.path.abspath(__file__)), "dead_pub_allow.txt")
DECL = re.compile(
    r"^\s*pub\s+(?:(?:const|unsafe|async)\s+)*"
    r"(?:fn|struct|enum|trait|type|const|static|mod|union)\s+([A-Za-z_]\w*)"
    r"|^\s*pub\s+([A-Za-z_]\w*)\s*:"
)
WORD = re.compile(r"[A-Za-z_]\w*")


def sources():
    for root in ROOTS:
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".rs"):
                    yield os.path.join(dirpath, name).replace(os.sep, "/")


def dead_names():
    words, decls = {}, []
    for path in sources():
        with open(path, encoding="utf-8") as f:
            text = f.read()
        words[path] = set(WORD.findall(text))
        if path.startswith("crates/"):
            for line in text.splitlines():
                m = DECL.match(line)
                if m:
                    decls.append((path, m.group(1) or m.group(2)))
    return sorted(
        {
            (path, name)
            for path, name in decls
            if not any(name in w for other, w in words.items() if other != path)
        }
    )


def allow_list():
    entries = {}
    with open(ALLOW, encoding="utf-8") as f:
        for number, line in enumerate(f, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split(None, 2)
            if len(parts) < 3:
                sys.exit(f"{ALLOW}:{number}: expected `<file> <name> <reason>`")
            entries[(parts[0], parts[1])] = parts[2]
    return entries


def main():
    dead = dead_names()
    if "--check" not in sys.argv[1:]:
        for path, name in dead:
            print(f"{path} {name}")
        return 0
    allowed = allow_list()
    fresh = [d for d in dead if d not in allowed]
    stale = [a for a in allowed if a not in dead]
    for path, name in fresh:
        print(f"dead pub name, not allow-listed: {path} {name}")
    for path, name in stale:
        print(f"allow-list entry no longer dead, delete it: {path} {name}")
    print(f"{len(dead)} dead pub names, {len(allowed)} allow-listed")
    return 1 if fresh or stale else 0


if __name__ == "__main__":
    sys.exit(main())

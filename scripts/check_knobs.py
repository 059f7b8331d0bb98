#!/usr/bin/env python3
"""Check that every setting the program reads is documented, and nothing more.

    python3 scripts/check_knobs.py

Two checks, each failing on drift in either direction:
  * environment knobs: the HAM_AURORA_* names passed as a literal to
    env_string/env_int/env_int_or/env_flag/env_pm in src/, tools/ and bench/
    are exactly the names in the knob tables of docs/*.md and README.md (the
    rows whose first cell is a `HAM_AURORA_*` name);
  * runtime options: the fields of ham::offload::runtime_options
    (src/offload/options.hpp; a nested struct's fields as `member.field`) are
    exactly the rows of the options table under "### runtime_options" in
    docs/API.md.

Exit codes: 0 no drift, 1 drift (each difference is printed).
"""

import glob
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE_DIRS = ("src", "tools", "bench")
READ_RE = re.compile(
    r'\benv_(?:string|int|int_or|flag|pm)\(\s*"(HAM_AURORA_[A-Z0-9_]+)"')
KNOB_ROW_RE = re.compile(r"^\|\s*`(HAM_AURORA_[A-Z0-9_]+)`\s*\|")
OPTION_ROW_RE = re.compile(r"^\|\s*`([a-z_][a-z0-9_.]*)`\s*\|")


def read(path):
    with open(path, encoding="utf-8") as f:
        return f.read()


def knobs_read():
    """HAM_AURORA_* name -> the source directories that read it."""
    names = {}
    for top in SOURCE_DIRS:
        for dirpath, _, files in os.walk(os.path.join(ROOT, top)):
            for name in files:
                if not name.endswith((".cpp", ".hpp")):
                    continue
                for knob in READ_RE.findall(read(os.path.join(dirpath, name))):
                    names.setdefault(knob, set()).add(top)
    return names


def knobs_documented():
    """HAM_AURORA_* name -> documents whose knob tables list it."""
    docs = sorted(glob.glob(os.path.join(ROOT, "docs", "*.md")))
    docs.append(os.path.join(ROOT, "README.md"))
    names = {}
    for path in docs:
        for line in read(path).splitlines():
            m = KNOB_ROW_RE.match(line)
            if m:
                names.setdefault(m.group(1), set()).add(
                    os.path.relpath(path, ROOT))
    return names


def strip_comments(code):
    code = re.sub(r"/\*.*?\*/", "", code, flags=re.S)
    return re.sub(r"//[^\n]*", "", code)


def braced(code, open_at):
    """The text between the brace at `open_at` and its match, and the index
    after the match."""
    depth = 0
    for i in range(open_at, len(code)):
        if code[i] == "{":
            depth += 1
        elif code[i] == "}":
            depth -= 1
            if depth == 0:
                return code[open_at + 1:i], i + 1
    sys.exit("check_knobs: unbalanced braces in options.hpp")


def struct_fields(body):
    """Field names of a struct body, nested structs' fields as member.field."""
    nested = {}
    flat = ""
    pos = 0
    for m in re.finditer(r"\bstruct\s+(\w+)\s*\{", body):
        if m.start() < pos:
            continue
        inner, end = braced(body, m.end() - 1)
        nested[m.group(1)] = struct_fields(inner)
        flat += body[pos:m.start()]
        pos = end
    flat += body[pos:]
    fields = []
    for stmt in flat.split(";"):
        stmt = re.sub(r"\{[^{}]*\}", "", stmt.split("=")[0]).strip()
        m = re.match(r"^([\w:<>, ]+?)\s+(\w+)$", stmt)
        if not m:
            continue
        type_name, name = m.group(1).strip(), m.group(2)
        if type_name in nested:
            fields.extend(name + "." + f for f in nested[type_name])
        else:
            fields.append(name)
    return fields


def options_declared():
    code = strip_comments(read(os.path.join(ROOT, "src", "offload",
                                            "options.hpp")))
    m = re.search(r"\bstruct\s+runtime_options\s*\{", code)
    if not m:
        sys.exit("check_knobs: struct runtime_options not found")
    body, _ = braced(code, m.end() - 1)
    return struct_fields(body)


def options_documented():
    lines = read(os.path.join(ROOT, "docs", "API.md")).splitlines()
    try:
        start = lines.index("### runtime_options")
    except ValueError:
        sys.exit("check_knobs: docs/API.md has no '### runtime_options'")
    rows = []
    in_table = False
    for line in lines[start + 1:]:
        if line.startswith("|"):
            in_table = True
            m = OPTION_ROW_RE.match(line)
            if m:
                rows.append(m.group(1))
        elif in_table:
            break
    return rows


def main():
    ok = True
    read_knobs = knobs_read()
    doc_knobs = knobs_documented()
    for name in sorted(set(read_knobs) - set(doc_knobs)):
        print("knob %s: read in %s/, but in no knob table" %
              (name, "/, ".join(sorted(read_knobs[name]))))
        ok = False
    for name in sorted(set(doc_knobs) - set(read_knobs)):
        print("knob %s: in the knob table of %s, but read nowhere" %
              (name, ", ".join(sorted(doc_knobs[name]))))
        ok = False

    fields = options_declared()
    rows = options_documented()
    for name in sorted(set(fields) - set(rows)):
        print("option %s: a runtime_options field, but no row of the "
              "options table in docs/API.md" % name)
        ok = False
    for name in sorted(set(rows) - set(fields)):
        print("option %s: a row of the options table in docs/API.md, but "
              "no runtime_options field" % name)
        ok = False
    for name in sorted({r for r in rows if rows.count(r) > 1}):
        print("option %s: two rows in docs/API.md" % name)
        ok = False

    in_src_tools = [k for k, where in read_knobs.items()
                    if where & {"src", "tools"}]
    print("HAM_AURORA_* knobs read: %d (%d in src/ and tools/), documented: "
          "%d; runtime_options fields: %d, documented: %d" %
          (len(read_knobs), len(in_src_tools), len(doc_knobs), len(fields),
           len(rows)))
    print("OK" if ok else "DRIFT")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

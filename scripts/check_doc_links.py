#!/usr/bin/env python3
"""Check that every relative markdown link in the repo's docs resolves.

Scans the given markdown files (or the repo's standard doc set when run
with no arguments) for inline links/images `[text](target)` and reference
definitions `[id]: target`, and fails if a relative target does not exist
on disk. External links (http/https/mailto) are not fetched — CI must not
depend on the network — and pure-fragment links (`#section`) are checked
against the headings of the containing file.

Backticked source paths outside fenced code blocks (`src/core/pipeline.cpp`)
must exist too, relative to the repo root. A `{hpp,cpp}` group expands to
one path per alternative, and a `:line` suffix is ignored, so a doc cannot
keep naming a header that was deleted.

Usage: check_doc_links.py [FILE.md ...]
Exit code 0 when all links resolve, 1 otherwise.
"""

import os
import re
import sys

DEFAULT_DOCS = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "ROADMAP.md",
    "docs/ARCHITECTURE.md",
    "docs/BACKENDS.md",
    "docs/CHECKPOINT_FORMAT.md",
    "docs/GENERATOR.md",
    "docs/PIPELINE.md",
    "docs/RUN_REPORT_SCHEMA.md",
    "docs/SERVING.md",
    "docs/VERIFICATION.md",
]

# Inline links and images: [text](target) / ![alt](target). Targets never
# contain spaces or parens in this repo's docs, which keeps the regex sane.
INLINE_LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")
# Reference-style definitions: [id]: target
REF_DEF = re.compile(r"^\[[^\]]+\]:\s+(\S+)", re.MULTILINE)
EXTERNAL = re.compile(r"^(https?|mailto|ftp):")
SRC_PATH = re.compile(r"`(src/[^`\s]*)`")
BRACE_GROUP = re.compile(r"\{([^{}]*)\}")
LINE_SUFFIX = re.compile(r":\d+(-\d+)?$")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def strip_fences(text):
    return re.sub(r"```.*?```", "", text, flags=re.DOTALL)


def strip_code(text):
    """Drop fenced and inline code spans so example snippets aren't linted."""
    return re.sub(r"`[^`\n]*`", "", strip_fences(text))


def expand_braces(path):
    """`a.{hpp,cpp}` -> [`a.hpp`, `a.cpp`] (groups expand left to right)."""
    m = BRACE_GROUP.search(path)
    if not m:
        return [path]
    return [expanded for alt in m.group(1).split(",")
            for expanded in expand_braces(
                path[:m.start()] + alt + path[m.end():])]


def check_src_paths(md_path, raw):
    errors = []
    for ref in SRC_PATH.findall(strip_fences(raw)):
        for path in expand_braces(LINE_SUFFIX.sub("", ref)):
            if not os.path.exists(os.path.join(REPO_ROOT, path)):
                errors.append(f"{md_path}: `{ref}` names a missing path "
                              f"({path})")
    return errors


def heading_anchors(path):
    """GitHub-style anchor slugs for every heading in a markdown file."""
    anchors = set()
    with open(path, encoding="utf-8") as f:
        for line in f:
            m = re.match(r"#{1,6}\s+(.*)", line)
            if not m:
                continue
            slug = m.group(1).strip().lower()
            slug = re.sub(r"[^\w\s-]", "", slug, flags=re.UNICODE)
            anchors.add(re.sub(r"\s+", "-", slug))
    return anchors


def check_file(md_path):
    errors = []
    with open(md_path, encoding="utf-8") as f:
        raw = f.read()
    errors.extend(check_src_paths(md_path, raw))
    text = strip_code(raw)
    targets = INLINE_LINK.findall(text) + REF_DEF.findall(text)
    base = os.path.dirname(md_path)
    for target in targets:
        if EXTERNAL.match(target):
            continue
        path_part, _, fragment = target.partition("#")
        if not path_part:  # same-file anchor
            if fragment and fragment not in heading_anchors(md_path):
                errors.append(f"{md_path}: broken anchor '#{fragment}'")
            continue
        resolved = os.path.normpath(os.path.join(base, path_part))
        if not os.path.exists(resolved):
            errors.append(f"{md_path}: broken link '{target}' "
                          f"(no such file: {resolved})")
        elif fragment and resolved.endswith(".md"):
            if fragment not in heading_anchors(resolved):
                errors.append(f"{md_path}: broken anchor '{target}'")
    return errors


def main(argv):
    files = argv[1:] or [p for p in DEFAULT_DOCS if os.path.exists(p)]
    all_errors = []
    for md in files:
        if not os.path.exists(md):
            all_errors.append(f"no such file: {md}")
            continue
        all_errors.extend(check_file(md))
    if all_errors:
        for e in all_errors:
            print(f"error: {e}", file=sys.stderr)
        return 1
    print(f"ok: {len(files)} file(s), all links resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

#!/usr/bin/env python3
"""Check docs/ for drift against the repo.

Usage:
    check_docs.py [REPO_ROOT]

Six failure classes, all of which must stay green in CI (the `docs` job)
and locally (ctest entry `docs_check`):

1. Broken internal links — every relative markdown link target in docs/*.md
   (and every `docs/...` link in README.md) must exist on disk.
2. Layer-map drift — every subdirectory of src/ must appear in
   docs/architecture.md as `src/<name>/`; a new subsystem must be placed in
   the layer map before it ships.
3. README linkage — README.md must link docs/architecture.md,
   docs/benchmarking.md, docs/figures.md and docs/defenses.md (the docs
   are only discoverable if the front page points at them).
4. Figure-catalogue drift — every figure/table bench binary (one per
   bench/<name>.cpp, minus the shared figure_main.cpp) must be documented
   in docs/figures.md by name; a new paper artefact must be catalogued
   before it ships, exactly like a new src/ subsystem.  The other way
   round, every `### … — `name`` section of docs/figures.md must have a
   bench/<name>.cpp; a deleted artefact must not keep its section.
5. Defense-playbook drift — every scenario::AttackKind slug (parsed from
   the to_string switch in src/scenario/spec.cpp) must appear in
   docs/defenses.md; a new attack kind must get a playbook row before it
   ships.
6. Stale file paths — every backticked repo path in docs/*.md or README.md
   under src/, tests/, tools/, bench/, examples/, benchmark/ or docs/ that
   names a .hpp, .cpp, .py, .md, .json or .txt file must exist; a deleted
   or renamed file must not live on in the docs.

Exit status: 0 = clean, 1 = drift found, 2 = bad invocation/missing files.
"""

import os
import re
import sys

# [text](target) — target captured up to the first ')'; images excluded by
# the (?<!!) lookbehind.
LINK_RE = re.compile(r"(?<!!)\[[^\]]*\]\(([^)\s]+)\)")

# `### Figure 3 — `fig3_targeted_effort`` — a figure catalogue section.
SECTION_RE = re.compile(r"^### .* — `(\w+)`\s*$", re.MULTILINE)

# `dir/.../name.ext` — a whole backticked span naming one repo file (globs
# and brace lists fall outside the character class and never match).
PATH_RE = re.compile(
    r"`((?:src|tests|tools|bench|examples|benchmark|docs)/[\w./-]*"
    r"\.(?:hpp|cpp|py|md|json|txt))`")


def fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def relative_links(text):
    for target in LINK_RE.findall(text):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        target = target.split("#", 1)[0]  # drop anchors
        yield target[2:] if target.startswith("./") else target


def main(argv):
    root = os.path.abspath(argv[1] if len(argv) > 1 else ".")
    docs_dir = os.path.join(root, "docs")
    readme = os.path.join(root, "README.md")
    arch = os.path.join(docs_dir, "architecture.md")
    if not os.path.isdir(docs_dir):
        fail(f"no docs/ directory under {root}")
    if not os.path.isfile(readme):
        fail(f"no README.md under {root}")
    if not os.path.isfile(arch):
        fail("docs/architecture.md is missing")

    problems = []

    # 1. Internal links in docs/*.md resolve relative to the doc's directory.
    doc_files = sorted(
        os.path.join(docs_dir, f)
        for f in os.listdir(docs_dir)
        if f.endswith(".md")
    )
    for path in doc_files:
        with open(path) as f:
            text = f.read()
        for target in relative_links(text):
            if not target:
                continue
            resolved = os.path.normpath(
                os.path.join(os.path.dirname(path), target))
            if not os.path.exists(resolved):
                rel = os.path.relpath(path, root)
                problems.append(f"{rel}: broken link -> {target}")

    # README links into docs/ must resolve too.
    with open(readme) as f:
        readme_text = f.read()
    for target in relative_links(readme_text):
        if target.startswith("docs/"):
            if not os.path.exists(os.path.normpath(os.path.join(root, target))):
                problems.append(f"README.md: broken link -> {target}")

    # 2. Every src/* subdirectory appears in the architecture layer map.
    with open(arch) as f:
        arch_text = f.read()
    src_dir = os.path.join(root, "src")
    subdirs = sorted(
        d for d in os.listdir(src_dir)
        if os.path.isdir(os.path.join(src_dir, d))
    )
    for d in subdirs:
        if f"src/{d}/" not in arch_text:
            problems.append(
                f"docs/architecture.md: layer map omits src/{d}/ "
                "(new subsystem without an architecture entry)")

    # 3. README links the docs.
    for doc in ("docs/architecture.md", "docs/benchmarking.md",
                "docs/figures.md", "docs/defenses.md"):
        if doc not in readme_text:
            problems.append(f"README.md does not link {doc}")

    # 4. Every bench binary is catalogued in docs/figures.md.
    figures_doc = os.path.join(docs_dir, "figures.md")
    bench_dir = os.path.join(root, "bench")
    benches = []
    if not os.path.isfile(figures_doc):
        problems.append("docs/figures.md is missing")
    elif os.path.isdir(bench_dir):
        with open(figures_doc) as f:
            figures_text = f.read()
        benches = sorted(
            f[: -len(".cpp")] for f in os.listdir(bench_dir)
            if f.endswith(".cpp") and f != "figure_main.cpp"
        )
        for name in benches:
            if name not in figures_text:
                problems.append(
                    f"docs/figures.md: missing section for bench/{name} "
                    "(new figure/table bench without a catalogue entry)")
        for name in SECTION_RE.findall(figures_text):
            if name not in benches:
                problems.append(
                    f"docs/figures.md: section `{name}` has no "
                    f"bench/{name}.cpp (deleted artefact still catalogued)")

    # 5. Every AttackKind slug has a playbook entry in docs/defenses.md.
    defenses_doc = os.path.join(docs_dir, "defenses.md")
    spec_cpp = os.path.join(root, "src", "scenario", "spec.cpp")
    slugs = []
    if not os.path.isfile(defenses_doc):
        problems.append("docs/defenses.md is missing")
    elif os.path.isfile(spec_cpp):
        with open(spec_cpp) as f:
            spec_text = f.read()
        with open(defenses_doc) as f:
            defenses_text = f.read()
        # The slugs are the return values of to_string(AttackKind): every
        # `case AttackKind::kX: return "slug";` arm, wherever it line-wraps.
        slugs = re.findall(
            r'case AttackKind::k\w+:\s*return\s*"([^"]+)"', spec_text)
        if not slugs:
            problems.append(
                "tools/check_docs.py could not parse any AttackKind slug "
                "from src/scenario/spec.cpp (to_string switch moved?)")
        for slug in slugs:
            if f"`{slug}`" not in defenses_text:
                problems.append(
                    f"docs/defenses.md: no playbook entry for attack kind "
                    f"`{slug}` (new AttackKind without a defense row)")

    # 6. Every backticked repo file path in the docs and README exists.
    named_paths = 0
    for path in doc_files + [readme]:
        with open(path) as f:
            text = f.read()
        for target in sorted(set(PATH_RE.findall(text))):
            named_paths += 1
            if not os.path.isfile(os.path.join(root, target)):
                rel = os.path.relpath(path, root)
                problems.append(f"{rel}: names missing file `{target}`")

    if problems:
        for p in problems:
            print(p)
        print(f"\n{len(problems)} docs drift problem(s)")
        return 1
    print(f"docs OK: {len(doc_files)} doc file(s), "
          f"{len(subdirs)} src/ subsystems all mapped, "
          f"{len(benches)} bench artefacts catalogued, "
          f"{len(slugs)} attack kinds in the playbook, "
          f"{named_paths} named file paths exist, README linked")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

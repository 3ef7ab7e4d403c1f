"""Fail when a name defined in src/abeltrace has no caller.

Every function, class, method and module-level assignment in
``src/abeltrace`` is checked; dunders are not. A name counts as read where
it appears as a loaded name, an attribute or an imported alias.

- A private (single-underscore) name must be read in ``src/abeltrace``.
- A public name must be read in ``src/abeltrace`` or in ``bench/*.py``.
  The re-exports in ``src/abeltrace/__init__.py`` are not reads, and
  neither is anything under ``bench/tests``. A public name the paper
  defines but no workflow calls goes on ``ALLOWED``, with its reason.
- An ``ALLOWED`` entry that names nothing defined fails too.

Usage: ``python3 tools/check_callers.py``; it checks the repository that
holds the script. Exits 0 when every name has a caller and 1 otherwise,
with one line per offending name that gives its file.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path("src") / "abeltrace"

# public names that are the paper's objects in their own right: README
# documents each, and tests check it against the batched readers
ALLOWED = {
    "punctual_residue": "the paper's punctual residue of one simple point (README, traces)",
    "clustered_residue": "the paper's cluster sum of residues over a collision (README, traces)",
    "hypersurface_trace": "the Veronese cross-check on the hypersurface section (README, lifts)",
}


def _definitions(tree):
    """Names of every function, class and method, and of every
    module-level assignment target, dunders excluded."""
    names = [node.name for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                names += [t.id for t in ast.walk(target) if isinstance(t, ast.Name)]
    return [nm for nm in names if not (nm.startswith("__") and nm.endswith("__"))]


def _reads(tree, imports=True):
    """Every name a tree reads: loaded names, attributes and, when
    ``imports`` is set, imported aliases."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif imports and isinstance(node, ast.alias):
            used.add(node.name)
    return used


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def check(root):
    """Return one message per name without a caller, and per stale
    ``ALLOWED`` entry."""
    defined = {}                              # name -> first file defining it
    src_reads, bench_reads = set(), set()
    for path in sorted((root / PACKAGE).glob("*.py")):
        tree = _parse(path)
        for nm in _definitions(tree):
            defined.setdefault(nm, path.relative_to(root))
        src_reads |= _reads(tree, imports=path.name != "__init__.py")
    for path in sorted((root / "bench").glob("*.py")):
        bench_reads |= _reads(_parse(path))
    problems = []
    for nm, path in sorted(defined.items(), key=lambda item: (str(item[1]), item[0])):
        if nm.startswith("_"):
            if nm not in src_reads:
                problems.append(f"{path}: private name {nm} is read nowhere in {PACKAGE}")
        elif nm not in src_reads and nm not in bench_reads and nm not in ALLOWED:
            problems.append(f"{path}: public name {nm} has no caller in {PACKAGE} or bench")
    for nm in sorted(set(ALLOWED) - set(defined)):
        problems.append(f"{Path(__file__).name}: allowed name {nm} is defined nowhere in {PACKAGE}")
    return problems, len(defined)


def main():
    problems, count = check(Path(__file__).resolve().parent.parent)
    for line in problems:
        print(line)
    print(f"{count} names checked, {len(problems)} without a caller")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

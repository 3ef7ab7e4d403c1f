"""Fail when a name defined in src/abeltrace has no caller, or a default
that no caller sets or that every caller sets.

Every function, class, method and module-level assignment in
``src/abeltrace`` is checked; dunders are not. A name counts as read where
it appears as a loaded name, an attribute or an imported alias.

- A private (single-underscore) name must be read in ``src/abeltrace``.
- A public name must be read in ``src/abeltrace`` or in ``bench/*.py``.
  The re-exports in ``src/abeltrace/__init__.py`` are not reads, and
  neither is anything under ``bench/tests``. A public name the paper
  defines but no workflow calls goes on ``ALLOWED``, with its reason.
- Every parameter with a default, of a module-level function or a
  method (a class's ``__init__`` included), must be set by some call in
  ``src/abeltrace`` or ``bench/*.py``: passed by keyword, or reached by
  the call's positional arguments (``self`` and ``cls`` not counted). A
  call through a class name is a call of its ``__init__``. Calls match
  by name, as reads do; a call that unpacks ``*args`` or ``**kwargs``
  sets every parameter of its name.
- Some such call must also leave the default at its value: a default
  that every call sets is a value only tests use, so the parameter
  should be required. One kept on purpose goes on ``ALWAYS_SET``, with
  its reason.
- An ``ALLOWED`` or ``ALWAYS_SET`` entry that names nothing defined fails.

Usage: ``python3 tools/check_callers.py``; it checks the repository that
holds the script. Exits 0 when every name has a caller and every default
is set by some call and left at its value by another, and 1 otherwise,
with one line per offending name or parameter that gives its file.
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

# defaults that every call in src/abeltrace and bench/*.py overrides, kept
# with their reason. A tolerance default is the constant each library call
# passes down from its own caller's default, so it adds no second mode.
_PASSED_DOWN = "a public tolerance: library calls pass their caller's own, which defaults to it"
ALWAYS_SET = {
    "solve_fiber(tol)": _PASSED_DOWN,
    "solve_family(tol)": _PASSED_DOWN,
    "poly_roots(tol)": _PASSED_DOWN,
    "evaluate_chart(tol)": _PASSED_DOWN,
    "poly_interpolate(tol)": _PASSED_DOWN,
    "fit_minimal_polys(tol)": _PASSED_DOWN,
    "reconstruct_numerator(tol)": _PASSED_DOWN,
    "reconstruct_global(tol)": _PASSED_DOWN,
    "reparametrize_check(tol)": _PASSED_DOWN,
    "fit_minimal_polys(coeff_deg_bound)":
        "None (the lowest degree that fits) is reconstruct_global's deg_bounds passed down",
    "reconstruct_numerator(coeff_deg_bound)":
        "None (the lowest degree that fits) is reconstruct_global's deg_bounds passed down",
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


def _defaults(tree):
    """(called name, qualified name, parameter, positional slot or None)
    of every parameter with a default, in the module's functions and its
    classes' methods: a class's ``__init__`` is called by the class name,
    and other dunders are skipped. A slot counts positional arguments
    after ``self`` or ``cls``; a keyword-only parameter has none."""
    out = []
    for owner in [tree] + [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]:
        method = owner is not tree
        for fn in owner.body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            called = owner.name if method and fn.name == "__init__" else fn.name
            if called.startswith("__") and called.endswith("__"):
                continue
            bound = method and not any(getattr(d, "id", None) == "staticmethod"
                                       for d in fn.decorator_list)
            qualified = f"{owner.name}.{fn.name}" if method else fn.name
            positional = fn.args.posonlyargs + fn.args.args
            first = len(positional) - len(fn.args.defaults)
            out += [(called, qualified, arg.arg, i - bound)
                    for i, arg in enumerate(positional) if i >= first]
            out += [(called, qualified, arg.arg, None)
                    for arg, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
    return out


def _calls(tree, into):
    """Append to ``into``, by called name, what each call in a tree sets:
    its positional reach (inf for a call that unpacks ``*args``) and the
    keywords it passes (None for ``**kwargs``)."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        if name:
            unpacks = any(isinstance(a, ast.Starred) for a in node.args)
            into.setdefault(name, []).append(
                (float("inf") if unpacks else len(node.args), {kw.arg for kw in node.keywords}))


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def check(root):
    """Return one message per name without a caller, per default no
    caller sets or every caller sets and per stale ``ALLOWED`` or
    ``ALWAYS_SET`` entry, then the counts of names and of defaults
    checked."""
    defined = {}                              # name -> first file defining it
    defaults = []                             # (file, called, qualified, parameter, slot)
    src_reads, bench_reads, calls = set(), set(), {}
    for path in sorted((root / PACKAGE).glob("*.py")):
        tree = _parse(path)
        for nm in _definitions(tree):
            defined.setdefault(nm, path.relative_to(root))
        defaults += [(path.relative_to(root), *d) for d in _defaults(tree)]
        src_reads |= _reads(tree, imports=path.name != "__init__.py")
        _calls(tree, calls)
    for path in sorted((root / "bench").glob("*.py")):
        tree = _parse(path)
        bench_reads |= _reads(tree)
        _calls(tree, calls)
    problems = []
    for nm, path in sorted(defined.items(), key=lambda item: (str(item[1]), item[0])):
        if nm.startswith("_"):
            if nm not in src_reads:
                problems.append(f"{path}: private name {nm} is read nowhere in {PACKAGE}")
        elif nm not in src_reads and nm not in bench_reads and nm not in ALLOWED:
            problems.append(f"{path}: public name {nm} has no caller in {PACKAGE} or bench")
    for path, called, qualified, param, slot in defaults:
        sets = [param in keywords or None in keywords or (slot is not None and reach > slot)
                for reach, keywords in calls.get(called, [])]
        if not any(sets):
            problems.append(f"{path}: default of {qualified}({param}) is set by no caller "
                            f"in {PACKAGE} or bench")
        elif all(sets) and f"{qualified}({param})" not in ALWAYS_SET:
            problems.append(f"{path}: default of {qualified}({param}) is set by every caller "
                            f"in {PACKAGE} or bench")
    for nm in sorted(set(ALLOWED) - set(defined)):
        problems.append(f"{Path(__file__).name}: allowed name {nm} is defined nowhere in {PACKAGE}")
    known = {f"{qualified}({param})" for _, _, qualified, param, _ in defaults}
    for nm in sorted(set(ALWAYS_SET) - known):
        problems.append(f"{Path(__file__).name}: always-set default {nm} is defined nowhere "
                        f"in {PACKAGE}")
    return problems, len(defined), len(defaults)


def main():
    problems, names, defaults = check(Path(__file__).resolve().parent.parent)
    for line in problems:
        print(line)
    print(f"{names} names and {defaults} defaults checked, {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

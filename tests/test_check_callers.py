"""tools/check_callers.py: every name in src/abeltrace has a caller, and
every default is set by one."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = Path("tools") / "check_callers.py"


def run(root):
    return subprocess.run([sys.executable, str(root / SCRIPT)],
                          capture_output=True, text=True, timeout=60)


def test_tree_passes():
    out = run(ROOT)
    assert out.returncode == 0, out.stdout + out.stderr


@pytest.fixture
def copy(tmp_path):
    """The package, the benchmark's modules and the checker, copied."""
    shutil.copytree(ROOT / "src" / "abeltrace", tmp_path / "src" / "abeltrace")
    (tmp_path / "bench").mkdir()
    for path in (ROOT / "bench").glob("*.py"):
        shutil.copy(path, tmp_path / "bench")
    (tmp_path / "tools").mkdir()
    shutil.copy(ROOT / SCRIPT, tmp_path / SCRIPT)
    assert run(tmp_path).returncode == 0
    return tmp_path


def append(path, text):
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(text)


UNCALLED = "\n\ndef {}():\n    return 1\n"


@pytest.mark.parametrize("fault, file, name", [
    ("public", "numeric.py", "uncalled_helper"),
    ("re-exported", "numeric.py", "uncalled_helper"),
    ("private", "radon.py", "_uncalled_helper"),
    ("stale", "check_callers.py", "no_such_name"),
])
def test_each_fault_fails_and_names_its_file(copy, fault, file, name):
    package = copy / "src" / "abeltrace"
    if fault == "stale":
        script = copy / SCRIPT
        text = script.read_text(encoding="utf-8")
        script.write_text(text.replace("ALLOWED = {", f"ALLOWED = {{\n    {name!r}: 'stale',", 1),
                          encoding="utf-8")
    else:
        append(package / file, UNCALLED.format(name))
    if fault == "re-exported":
        # a re-export in __init__.py is not a caller
        append(package / "__init__.py", f"from .numeric import {name}\n")
    out = run(copy)
    assert out.returncode == 1
    assert any(file in line and name in line for line in out.stdout.splitlines()), out.stdout


def test_a_read_in_bench_tests_is_no_caller(copy):
    # bench/tests is not a caller, bench/*.py is
    append(copy / "src" / "abeltrace" / "numeric.py", UNCALLED.format("bench_only"))
    (copy / "bench" / "tests").mkdir()
    (copy / "bench" / "tests" / "test_x.py").write_text("from abeltrace.numeric import bench_only\n")
    assert run(copy).returncode == 1
    (copy / "bench" / "extra.py").write_text("from abeltrace.numeric import bench_only\n")
    assert run(copy).returncode == 0


@pytest.mark.parametrize("definition, shown, unset, sets", [
    ("def with_default(x, flag=False):\n    return x\n", "with_default(flag)",
     "with_default(1)", ["with_default(1, True)", "with_default(1, flag=True)",
                         "with_default(*args)", "with_default(1, **options)"]),
    ("def with_default(x, *, flag=False):\n    return x\n", "with_default(flag)",
     "with_default(1, 2)", ["with_default(1, flag=True)"]),
    # self is not counted, and a call through the class name is __init__'s
    ("class WithDefault:\n    def __init__(self, x, flag=False):\n        self.x = x\n",
     "WithDefault.__init__(flag)", "WithDefault(1)", ["WithDefault(1, True)"]),
    ("class WithDefault:\n    def with_default(self, x, flag=False):\n        return x\n",
     "WithDefault.with_default(flag)", "WithDefault().with_default(1)",
     ["WithDefault().with_default(1, True)"]),
])
def test_an_unset_default_fails(copy, definition, shown, unset, sets):
    # every name has a caller in bench/*.py; only the default is unset
    append(copy / "src" / "abeltrace" / "numeric.py", "\n\n" + definition)
    caller = copy / "bench" / "extra.py"
    head = "from abeltrace.numeric import WithDefault, with_default\n"
    caller.write_text(f"{head}{unset}\n")
    out = run(copy)
    assert out.returncode == 1
    assert [line for line in out.stdout.splitlines() if "numeric.py" in line] == [
        f"src/abeltrace/numeric.py: default of {shown} is set by no caller "
        "in src/abeltrace or bench"], out.stdout
    for call in sets:
        caller.write_text(f"{head}{unset}\n{call}\n")
        out = run(copy)
        assert out.returncode == 0, (call, out.stdout)


@pytest.mark.parametrize("always", ["with_default(1, True)", "with_default(1, flag=True)",
                                    "with_default(*args)", "with_default(1, **options)"])
def test_an_always_set_default_fails(copy, always):
    # a default every call sets, by position, keyword or unpacking, is a
    # value only tests use; one call that leaves it alone clears it
    append(copy / "src" / "abeltrace" / "numeric.py",
           "\n\ndef with_default(x, flag=False):\n    return x\n")
    caller = copy / "bench" / "extra.py"
    head = "from abeltrace.numeric import with_default\n"
    caller.write_text(f"{head}{always}\nwith_default(1, False)\n")
    out = run(copy)
    assert out.returncode == 1
    assert [line for line in out.stdout.splitlines() if "numeric.py" in line] == [
        "src/abeltrace/numeric.py: default of with_default(flag) is set by every caller "
        "in src/abeltrace or bench"], out.stdout
    caller.write_text(f"{head}{always}\nwith_default(1)\n")
    assert run(copy).returncode == 0


def test_always_set_entries_are_kept_and_checked(copy):
    # an ALWAYS_SET entry keeps an always-set default; one that names no
    # default fails
    append(copy / "src" / "abeltrace" / "numeric.py",
           "\n\ndef with_default(x, flag=False):\n    return x\n")
    (copy / "bench" / "extra.py").write_text(
        "from abeltrace.numeric import with_default\nwith_default(1, True)\n")
    script = copy / SCRIPT
    text = script.read_text(encoding="utf-8")
    script.write_text(text.replace("ALWAYS_SET = {", "ALWAYS_SET = {\n    'with_default(flag)': 'kept',", 1),
                      encoding="utf-8")
    assert run(copy).returncode == 0
    script.write_text(text.replace("ALWAYS_SET = {", "ALWAYS_SET = {\n    'with_default(nothing)': 'stale',", 1),
                      encoding="utf-8")
    out = run(copy)
    assert out.returncode == 1
    assert "always-set default with_default(nothing) is defined nowhere" in out.stdout


def test_an_unread_local_fails(copy):
    # the local that reparametrize_check assigned and never read
    radon = copy / "src" / "abeltrace" / "radon.py"
    anchor = "    k = n * (p + 1)\n"
    text = radon.read_text(encoding="utf-8")
    assert text.count(anchor) == 1
    radon.write_text(text.replace(anchor, anchor + "    names = domain.chart.param_names()\n"),
                     encoding="utf-8")
    out = run(copy)
    assert out.returncode == 1
    assert [line for line in out.stdout.splitlines() if "radon.py" in line] == [
        "src/abeltrace/radon.py: reparametrize_check assigns local names and never reads it"
    ], out.stdout


@pytest.mark.parametrize("body, flagged", [
    ("x = 1\n    return 2", ["with_local assigns local x"]),
    ("x = 0\n    x += 1", ["with_local assigns local x"]),
    ("return [0 for i in range(2)]", ["with_local assigns local i"]),
    ("x, _ = 1, 2\n    return x", []),
    ("x = 1\n    return lambda: x", []),
    ("global STATE\n    STATE = 1", []),
])
def test_which_locals_count_as_unread(copy, body, flagged):
    # ``_``, a read in a nested lambda and a global are not unread locals
    append(copy / "src" / "abeltrace" / "numeric.py", f"\n\ndef with_local():\n    {body}\n")
    (copy / "bench" / "extra.py").write_text(
        "from abeltrace.numeric import with_local\nwith_local()\n")
    out = run(copy)
    lines = [line for line in out.stdout.splitlines() if "numeric.py" in line]
    assert lines == [f"src/abeltrace/numeric.py: {f} and never reads it" for f in flagged], out.stdout
    assert out.returncode == (1 if flagged else 0)

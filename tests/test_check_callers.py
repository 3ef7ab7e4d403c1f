"""tools/check_callers.py: every name in src/abeltrace has a caller."""

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

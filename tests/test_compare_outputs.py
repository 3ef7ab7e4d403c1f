"""tools/compare_outputs.py: a known change to the library shows on the
jobs it reaches, and on no other."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = Path("tools") / "compare_outputs.py"


def git(repo, *args):
    subprocess.run(["git", "-C", str(repo), "-c", "user.name=test", "-c", "user.email=test@example.com",
                    *args], check=True, capture_output=True, timeout=60)


def test_nudged_resultant_radius_changes_exactly_its_jobs(tmp_path):
    # the library, the benchmark's modules and the tool, committed in a
    # new repository; then the resultant's interpolation radius is nudged
    # by 1e-7 relative in the working tree only
    shutil.copytree(ROOT / "src" / "abeltrace", tmp_path / "src" / "abeltrace",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "bench").mkdir()
    for path in (ROOT / "bench").glob("*.py"):
        shutil.copy(path, tmp_path / "bench")
    (tmp_path / "tools").mkdir()
    shutil.copy(ROOT / SCRIPT, tmp_path / SCRIPT)
    git(tmp_path, "init", "-q")
    git(tmp_path, "add", "-A")
    git(tmp_path, "commit", "-q", "-m", "base")
    geometry = tmp_path / "src" / "abeltrace" / "geometry.py"
    text = geometry.read_text(encoding="utf-8")
    assert text.count("radius = 1.37\n") == 1
    geometry.write_text(text.replace("radius = 1.37\n", "radius = 1.3700001\n"), encoding="utf-8")

    out = subprocess.run([sys.executable, str(tmp_path / SCRIPT), "HEAD"],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 1, out.stdout + out.stderr
    rows = [line.split() for line in out.stdout.splitlines()[1:-1]]
    assert len(rows) == 216
    # workload, "seed", seed, "pass", pass, #position, kind, bitwise, diff, labels
    differ = [r for r in rows if r[7] == "differ"]
    assert {r[6] for r in differ} == {"p2_resultant", "lifted"} and len(differ) == 66
    assert all(r[6] not in ("p2_resultant", "lifted") for r in rows if r[7] == "equal")
    # rounding-sized differences; flags, verdicts and baseline degrees hold
    assert all(0 < float(r[8]) < 1e-12 for r in differ)
    assert all(r[9] == "identical" for r in rows)
    assert out.stdout.splitlines()[-1] == (
        "216 jobs: 150 bitwise equal, 216 with identical labels, 66 beyond rtol 0")
    # the worktree of the revision is gone again
    listed = subprocess.run(["git", "-C", str(tmp_path), "worktree", "list"],
                            capture_output=True, text=True, check=True).stdout
    assert len(listed.splitlines()) == 1

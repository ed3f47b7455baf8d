"""tools/ab_lockstep.py times two checkouts only while their outputs agree:
an A/A run passes, and a copy whose solver picks other centers fails."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "ab_lockstep.py"


def lockstep(a, b):
    return subprocess.run([sys.executable, str(TOOL), str(a), str(b),
                           "--workload", "window-k20", "--rounds", "1",
                           "--seed", "1"],
                          capture_output=True, text=True, timeout=300)


def test_lockstep_same_program_passes():
    out = lockstep(ROOT, ROOT)
    assert out.returncode == 0, out.stderr
    assert "outputs identical" in out.stdout and "time ratio B/A" in out.stdout


def test_lockstep_fails_when_solutions_differ(tmp_path):
    pkg = tmp_path / "src" / "dynkmeans"
    shutil.copytree(ROOT / "src" / "dynkmeans", pkg,
                    ignore=shutil.ignore_patterns("__pycache__"))
    sub = pkg / "subroutines.py"
    text = sub.read_text()
    # swap candidates sampled instead of scanned: other solver results
    assert "_EXHAUSTIVE_LIMIT = 128" in text
    sub.write_text(text.replace("_EXHAUSTIVE_LIMIT = 128",
                                "_EXHAUSTIVE_LIMIT = 0"))
    out = lockstep(ROOT, tmp_path)
    assert out.returncode == 1
    assert "differ" in out.stderr


def test_lockstep_fails_when_rng_draws_differ(tmp_path):
    # one extra draw per epoch start: reported as a random-state difference
    pkg = tmp_path / "src" / "dynkmeans"
    shutil.copytree(ROOT / "src" / "dynkmeans", pkg,
                    ignore=shutil.ignore_patterns("__pycache__"))
    ctl = pkg / "controller.py"
    text = ctl.read_text()
    anchor = "        self.S_init = frozenset(self.cent.centers)\n"
    assert text.count(anchor) == 1
    extra = "        self.rng.random()\n"
    ctl.write_text(text.replace(anchor, anchor + extra))
    out = lockstep(ROOT, tmp_path)
    assert out.returncode == 1
    assert "rng" in out.stderr

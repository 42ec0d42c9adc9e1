"""The experiment scripts under scripts/ run end to end on tiny arguments."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args", [
    ("gamma_ablation.py", ["--learning-rates", "1.0", "--steps", "2", "--seeds", "2"]),
    ("synth_convergence.py", ["--separations", "6", "--noises", "1", "--episodes", "2",
                              "--steps", "2", "--classes", "5", "--per-class", "12",
                              "--dim", "4"]),
    ("row_normalization_gate.py", ["--pools", "isotropic", "--losses", "mokd",
                                   "--learning-rates", "2.5", "--steps", "2", "--tasks", "2"]),
    # the checkout against itself: every command identical, none failing
    ("byte_identity_gate.py", ["--against", str(ROOT), "--quick"]),
])
def test_script_runs(script, args, src_env):
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=src_env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 2  # header and one result row

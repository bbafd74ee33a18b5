"""Smoke runs of the two reproduction scripts at sizes that take seconds."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args, header",
    [
        (
            "table_reproduction.py",
            ["--seeds", "1", "--pulses", "200000"],
            "preset detected sifted QBER secured closed form",
        ),
        (
            "rate_curves.py",
            ["--dmax", "5", "--step", "1"],
            "distance_km,nv,siv,ideal10,ideal95,wcp,decoy",
        ),
    ],
)
def test_script_runs(script, args, header):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert " ".join(proc.stdout.splitlines()[0].split()) == header

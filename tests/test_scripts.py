"""Smoke runs of the two reproduction scripts at sizes that take seconds."""

import hashlib
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


def test_rate_curves_stdout_is_pinned():
    # the digest of the CSV and crossover report the script printed while its
    # curves were still listed by the rates module
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "rate_curves.py"), "--dmax", "60",
         "--step", "0.2"],
        env=env, capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    digest = "ef50119fd622a56aa5308c542c2a632be901339a5e4a18be880c4a5fcd87ed19"
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


def test_table_reproduction_stdout_is_pinned():
    # the measured rows and the closed-form column, which comes from gllp_rate
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "table_reproduction.py"), "--seeds", "1",
         "--pulses", "200000"],
        env=env, capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    digest = "51f329dbb4c45475e6b0b62ca138b662d67c7368bfa403a5c2d54434f20c231e"
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


@pytest.mark.parametrize(
    "script, args, setting",
    [
        ("rate_curves.py", ["--step", "nan"], "step"),
        ("rate_curves.py", ["--step", "0"], "step"),
        ("rate_curves.py", ["--dmax", "inf"], "dmax"),
        ("rate_curves.py", ["--dmax", "-1"], "dmax"),
        ("rate_curves.py", ["--step", "1e-12", "--dmax", "1"], "step"),
        ("rate_curves.py", ["--rep-rate", "nan"], "rep_rate_hz"),
        ("rate_curves.py", ["--dmax", "1", "--out", "no-such-dir/curves.csv"], "out"),
        ("table_reproduction.py", ["--seeds", "0"], "seeds"),
        ("table_reproduction.py", ["--pulses", "0"], "pulses"),
        ("table_reproduction.py", ["--seed-base", "-1"], "seed_base"),
        ("table_reproduction.py", ["--seeds", "1", "--pulses", "100000000000"], "pulses"),
    ],
)
def test_script_refuses_bad_settings(script, args, setting):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert setting in proc.stderr
    # refused before the first line of the table or the curves
    assert proc.stdout == ""

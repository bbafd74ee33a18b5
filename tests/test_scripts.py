"""Smoke runs of the reproduction script at sizes that take seconds, and the
rate curves it once printed beside it, now written by the ``rates`` command."""

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


def test_rates_over_several_presets_is_pinned(tmp_path):
    # the four single-photon presets against both rivals, the roster of the
    # retired scripts/rate_curves.py.  Below the header, the rows are the
    # bytes of the CSV that script printed at the same grid
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "spsqkd.cli", "rates", "--preset", "nv,siv", "--ideal10",
         "--ideal95", "--wcp", "--decoy", "--dmax", "60", "--step", "0.2",
         "--out", str(tmp_path / "curves"), "--quiet"],
        env=env, capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    data = (tmp_path / "curves.rates.csv").read_bytes()
    rows = b"".join(line for line in data.splitlines(keepends=True)
                    if not line.startswith(b"#"))
    assert hashlib.sha256(rows).hexdigest() == (
        "d9b09559fb4af748d7428f2041a59e5d2fc368da5786c684010f0612c99fb0db"
    )
    assert hashlib.sha256(data).hexdigest() == (
        "6339633161557f4c51b91a15b0225240824134f1535b31b2274542895bd137b8"
    )


def test_table_reproduction_stdout_is_pinned():
    # the measured rows and the closed-form column, which comes from gllp_rate
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "table_reproduction.py"), "--seeds", "1",
         "--pulses", "200000"],
        env=env, capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    digest = "06f7b12b0e122390750932c5146081b9adb2b406e9a9f2418fd58bef781adfae"
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


@pytest.mark.parametrize(
    "script, args, setting",
    [
        # the rates command refuses what scripts/rate_curves.py refused
        ("rates", ["--step", "nan"], "step"),
        ("rates", ["--step", "0"], "step"),
        ("rates", ["--dmax", "inf"], "dmax"),
        ("rates", ["--dmax", "-1"], "dmax"),
        ("rates", ["--step", "1e-12", "--dmax", "1"], "step"),
        ("rates", ["--rep-rate", "nan"], "rep_rate_hz"),
        ("rates", ["--dmax", "1", "--out", "no-such-dir/curves"], "no-such-dir/curves"),
        ("table_reproduction.py", ["--seeds", "0"], "seeds"),
        ("table_reproduction.py", ["--pulses", "0"], "pulses"),
        ("table_reproduction.py", ["--seed-base", "-1"], "seed_base"),
        ("table_reproduction.py", ["--seeds", "1", "--pulses", "100000000000"], "pulses"),
    ],
)
def test_script_refuses_bad_settings(script, args, setting, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    program = ["-m", "spsqkd.cli", script] if script == "rates" else [ROOT / "scripts" / script]
    proc = subprocess.run(
        [sys.executable, *program, *args],
        env=env, capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert setting in proc.stderr
    # refused before the first line of the table or the curves
    assert proc.stdout == ""
    assert not list(tmp_path.iterdir())

"""Config parsing, hash binding, and the four CLI subcommands."""

import hashlib
import inspect
import os
import re
import resource
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from spsqkd import cli, config, hbt, pipeline, rates
from spsqkd.config import (
    coerce_value,
    config_hash,
    format_csv,
    load_config_file,
    parse_config_text,
)

ROOT = Path(__file__).resolve().parents[1]


def _read_fields(path):
    fields = {}
    for line in path.read_text().splitlines():
        if line.startswith("#") or not line.strip():
            continue
        key, _, value = line.partition("=")
        fields[key.strip()] = value.strip()
    return fields


def _run_limited(limit, args, timeout=300):
    """Run ``python args`` under an address-space limit of ``limit`` bytes."""

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    # one BLAS thread: per-thread buffers on a many-core host would count
    # against the limit before the run starts
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=timeout, preexec_fn=limit_address_space)


# ---------------------------------------------------------------- config


def test_parse_config_basics():
    text = """
    # a comment
    link.distance_km = 2.0

    session.pulses = 1000000   # trailing comment
    session.pulses = 500
    """
    cfg = parse_config_text(text)
    assert cfg == {"link.distance_km": "2.0", "session.pulses": "500"}


def test_parse_config_rejects_junk():
    with pytest.raises(ValueError):
        parse_config_text("just some words\n")
    with pytest.raises(ValueError):
        parse_config_text("= 3\n")


def test_coerce_value_handles_counts_and_bools():
    assert coerce_value("k", "1e6", int) == 1_000_000
    assert coerce_value("k", "42", int) == 42
    assert coerce_value("k", "yes", bool) is True
    assert coerce_value("k", "off", bool) is False
    with pytest.raises(ValueError, match="session.pulses"):
        coerce_value("session.pulses", "1.5", int)
    with pytest.raises(ValueError, match="session.pulses"):
        coerce_value("session.pulses", "inf", int)
    with pytest.raises(ValueError):
        coerce_value("k", "maybe", bool)


def test_integer_literals_are_read_exactly_past_2_53():
    # a float holds every integer only up to 2^53: 2^53 + 1 would read as 2^53
    assert coerce_value("seed", "9007199254740993", int) == 2**53 + 1
    assert coerce_value("seed", " +9007199254740993 ", int) == 2**53 + 1
    assert coerce_value("k", "-7", int) == -7
    assert coerce_value("k", "2.5e3", int) == 2500
    with pytest.raises(ValueError, match="seed"):
        coerce_value("seed", "+-9", int)


def test_config_hash_is_order_free_and_value_bound():
    a = {"x": 1, "y": 2.5}
    b = {"y": 2.5, "x": 1}
    assert config_hash(a) == config_hash(b)
    assert len(config_hash(a)) == 12
    assert config_hash(a) != config_hash({"x": 1, "y": 2.6})


def _csv_one_row_at_a_time(metadata, columns, row_format):
    """The table as format_csv once wrote it: one ``%`` per row."""
    lines = [f"# {k}={v}" for k, v in metadata.items()]
    lines.append(",".join(columns))
    lines += [row_format % row for row in zip(*(c.tolist() for c in columns.values()))]
    return "\n".join(lines) + "\n"


_BLOCK = config._CSV_BLOCK


@pytest.mark.parametrize("n_rows, block", [
    (0, _BLOCK), (1, _BLOCK), (_BLOCK - 1, _BLOCK), (_BLOCK, _BLOCK), (_BLOCK + 1, _BLOCK),
    (23, 4),
], ids=["0", "1", "block-1", "block", "block+1", "6-blocks-of-4"])
def test_csv_blocks_match_the_row_writer(n_rows, block, monkeypatch):
    rng = np.random.default_rng(n_rows)
    columns = {"tau_ns": rng.normal(0.0, 1e3, n_rows), "counts": rng.integers(0, 10**6, n_rows),
               "bit": rng.integers(0, 2, n_rows)}
    metadata = {"config_hash": "deadbeef", "command": "g2"}
    monkeypatch.setattr(config, "_CSV_BLOCK", block)
    text = format_csv(metadata, columns, "%.6g,%d,%d")
    assert text == _csv_one_row_at_a_time(metadata, columns, "%.6g,%d,%d")
    assert text.count("\n") == len(metadata) + 1 + n_rows


_ALL_SETTINGS = [(c, d) for c, schema in cli._SCHEMAS.items() for d in schema]


@pytest.mark.parametrize(
    "command, dest", _ALL_SETTINGS, ids=[f"{c}-{d}" for c, d in _ALL_SETTINGS]
)
def test_flag_and_config_key_are_one_setting(command, dest, tmp_path):
    setting = cli._SCHEMAS[command][dest]
    text = {int: "7", float: "0.125", str: "other", bool: "true"}[setting.kind]
    flag = "--" + dest.replace("_", "-")
    cfg = tmp_path / "one.cfg"
    cfg.write_text(f"{setting.key} = {text}\n")

    def hash_of(argv):
        args = cli.build_parser([command, *argv]).parse_args([command, *argv])
        file_cfg = load_config_file(args.config) if args.config else {}
        return config_hash(cli._effective(command, cli._resolve(command, args, file_cfg)))

    by_flag = hash_of([flag] if setting.kind is bool else [flag, text])
    assert by_flag == hash_of(["--config", str(cfg)]) != hash_of([])


def _help_text(parser, argv, capsys):
    with pytest.raises(SystemExit) as exit_:
        parser.parse_args(argv)
    assert exit_.value.code == 0
    return capsys.readouterr().out


def _flags(command):
    return ["--config", "--out", "--quiet"] + [
        "--" + dest.replace("_", "-") for dest in cli._SCHEMAS[command]
    ]


def test_program_help_lists_every_command(capsys):
    text = _help_text(cli.build_parser(["--help"]), ["--help"], capsys)
    for command, (_, help_line, _) in cli._COMMANDS.items():
        assert re.search(rf"^ +{command} +{re.escape(help_line)}$", text, re.M), command


@pytest.mark.parametrize("command", cli._SCHEMAS)
def test_command_help_names_every_flag(command, capsys):
    text = _help_text(cli.build_parser([command, "--help"]), [command, "--help"], capsys)
    for flag in _flags(command):
        assert re.search(rf"(?<![\w-]){flag}(?![\w-])", text), flag


@pytest.mark.parametrize("command", cli._SCHEMAS)
def test_only_the_command_being_run_gets_flags(command, capsys):
    # the other commands' help lists no flag but its own --help
    parser = cli.build_parser([command])
    for other in cli._SCHEMAS:
        text = _help_text(parser, [other, "--help"], capsys)
        flags = set(re.findall(r"(?<![\w-])--[\w-]+", text)) - {"--help"}
        assert flags == (set(_flags(command)) if other == command else set()), other


@pytest.mark.parametrize(
    "argv, setting",
    [
        (["rates", "--f-ec", "nan"], "f_ec"),
        (["rates", "--f-ec", "inf"], "f_ec"),
        (["rates", "--rep-rate", "nan"], "rep_rate"),
        (["rates", "--attenuation-db-per-km", "nan"], "attenuation_db_per_km"),
        (["rates", "--dmax", "nan"], "dmax"),
        (["rates", "--step", "nan"], "step"),
        (["g2", "--pulses", "10000", "--lifetime-ns", "nan"], "lifetime_ns"),
        (["g2", "--pulses", "10000", "--rep-rate", "inf"], "rep_rate"),
        (["g2", "--pulses", "10000", "--bin-width-ns", "1e-9"], "bin_width_ns"),
        (["session", "--pulses", "1000", "--distance-km", "nan"], "distance_km"),
        (["session", "--pulses", "1000", "--double-click-policy", "drop"],
         "double_click_policy"),
        # the pass number is a u8 below the reserved confirmation tags 0xFE/0xFF
        (["cascade", "--n-bits", "1000", "--n-passes", "254"], "n_passes"),
        (["cascade", "--n-bits", "1000", "--n-passes", "256"], "n_passes"),
        (["cascade", "--n-bits", "1000", "--n-passes", "257"], "n_passes"),
        (["cascade", "--n-bits", "1000", "--n-passes", "1e12"], "n_passes"),
        (["session", "--preset", "wcp", "--pulses", "10000", "--n-passes", "254"],
         "n_passes"),
        (["session", "--preset", "wcp", "--pulses", "10000", "--n-passes", "1e12"],
         "n_passes"),
        (["cascade", "--n-bits", "1000", "--qber", "nan", "--est-qber", "0.03"], "qber"),
        (["cascade", "--n-bits", "1000", "--qber", "0.5"], "qber"),
        (["rates", "--step", "1e-12"], "step"),
        (["rates", "--dmax", "1e12"], "step"),
        (["cascade", "--n-bits", "-1"], "n_bits"),
        (["session", "--pulses", "1000", "--seed", "-1"], "seed"),
        (["rates", "--dmax", "2", "--seed", "-1"], "seed"),
        (["cascade", "--n-bits", "1000", "--seed", "-1"], "seed"),
        (["g2", "--pulses", "10000", "--seed", "-1"], "seed"),
        (["g2", "--pulses", "10000", "--window-periods", "-1"], "window_periods"),
        (["g2", "--pulses", "10000", "--window-periods", "1e12"], "window_periods"),
        (["session", "--pulses", "2e10"], "pulses"),
        (["g2", "--pulses", "1e12"], "pulses"),
        (["cascade", "--n-bits", "1e12"], "n_bits"),
        # within the bin cap, but 2.3e9 tag pairs to histogram
        (["g2", "--preset", "ideal95", "--pulses", "100000", "--window-periods", "100000"],
         "window_periods"),
        # an output file that cannot be opened is named, not a traceback
        (["session", "--pulses", "1000", "--out", "/dev/null/x"], "/dev/null/x.summary.txt"),
        (["rates", "--dmax", "2", "--out", "/dev/null/x"], "/dev/null/x.rates.csv"),
        (["cascade", "--n-bits", "1000", "--out", "/dev/null/x"], "/dev/null/x.cascade.txt"),
        (["g2", "--pulses", "10000", "--out", "/dev/null/x"], "/dev/null/x.hist.csv"),
        # reconciliation settings are refused even when the run would not reach them
        (["session", "--pulses", "10", "--n-passes", "1"], "n_passes"),
        (["session", "--pulses", "10", "--verify-bits", "-1"], "verify_bits"),
        (["session", "--pulses", "10", "--safety-margin", "-1"], "safety_margin"),
        (["session", "--distance-km", "1000", "--safety-margin", "-5"], "safety_margin"),
        # a preset that is also a rival would be one curve under two roles
        (["rates", "--preset", "wcp", "--wcp", "--dmax", "2"], "'wcp'"),
        (["rates", "--preset", "decoy", "--decoy", "--dmax", "2"], "'decoy'"),
        # both file loaders make one check, so a directory is named alike
        (["session", "--pulses", "1000", "--entropy-file", "."],
         "entropy file is not a regular file: ."),
    ],
)
def test_bad_input_exits_2_naming_the_setting(argv, setting, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv + ["--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and setting in err


def test_a_rep_rate_with_no_finite_period_is_refused_before_sampling(tmp_path, monkeypatch,
                                                                      capsys):
    # 1e9 / 1e-300 overflows to an infinite period; it is named before a draw
    def must_not_sample(*args, **kwargs):
        raise AssertionError("photons were sampled for an infinite period")

    monkeypatch.setattr(hbt, "sample_photon_numbers", must_not_sample)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["g2", "--rep-rate", "1e-300", "--quiet"]) == 2
    assert list(tmp_path.iterdir()) == []
    err = capsys.readouterr().err
    assert err.startswith("error: rep_rate_hz = 1e-300") and "infinite" in err


@pytest.mark.parametrize(
    "argv, compute, first",
    [
        (["session", "--pulses", "1000"], "run_experiment_detailed", "summary.txt"),
        (["rates", "--dmax", "2"], "sweep_variants", "rates.csv"),
        (["cascade", "--n-bits", "1000"], "cascade", "cascade.txt"),
        (["g2", "--pulses", "10000"], "simulate_hbt", "hist.csv"),
    ],
)
def test_unwritable_out_is_refused_before_the_run(argv, compute, first, monkeypatch, capsys):
    def must_not_run(*args, **kwargs):
        raise AssertionError(f"{compute} ran before --out was checked")

    # the command's library call, or the pipeline call, looks the name up
    for module in (cli, pipeline):
        if hasattr(module, compute):
            monkeypatch.setattr(module, compute, must_not_run)
    assert cli.main(argv + ["--out", "/dev/null/x", "--quiet"]) == 2
    assert f"/dev/null/x.{first}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, module, compute",
    [
        (["session", "--pulses", "1000"], pipeline, "run_session"),
        (["cascade", "--n-bits", "1000"], pipeline, "cascade"),
    ],
    ids=["session", "cascade"],
)
def test_verify_bits_past_the_round_budget_exit_2_before_the_run(
    argv, module, compute, tmp_path, monkeypatch, capsys
):
    # the 0x04 frame counts rounds in a u16, so a streak of 65536 agreeing
    # rounds can never be reached; the setting is refused, not run to failure
    def must_not_run(*args, **kwargs):
        raise AssertionError(f"{compute} ran with an unreachable verify_bits")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(module, compute, must_not_run)
    assert cli.main(argv + ["--verify-bits", "65536", "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "verify_bits" in err
    assert not list(tmp_path.iterdir())


# (command, dest) -> (library function, parameter) each literal default feeds
_LIBRARY_DEFAULTS = {
    ("session", "disclose_fraction"): (pipeline.run_experiment_detailed, "disclose_fraction"),
    ("session", "double_click_policy"): (pipeline.run_experiment_detailed,
                                         "double_click_policy"),
    ("session", "safety_margin"): (pipeline.run_experiment_detailed, "safety_margin"),
    ("rates", "rep_rate"): (rates.sweep_variants, "rep_rate_hz"),
    ("rates", "f_ec"): (rates.sweep_variants, "f_ec"),
    ("rates", "flat_error"): (rates.sweep_variants, "flat_error"),
    ("g2", "splitter_ratio"): (hbt.simulate_hbt, "splitter_ratio"),
    ("g2", "detection_eff"): (hbt.simulate_hbt, "detection_eff"),
    ("g2", "bin_width_ns"): (hbt.correlation_histogram, "bin_width_ns"),
    ("g2", "window_periods"): (hbt.correlation_histogram, "window_periods"),
}


@pytest.mark.parametrize(
    "command, dest", _LIBRARY_DEFAULTS, ids=[f"{c}-{d}" for c, d in _LIBRARY_DEFAULTS]
)
def test_literal_defaults_match_the_library(command, dest):
    function, parameter = _LIBRARY_DEFAULTS[command, dest]
    expected = inspect.signature(function).parameters[parameter].default
    assert cli._SCHEMAS[command][dest].default == expected


def test_commands_without_flags_pass_the_library_defaults(tmp_path, monkeypatch):
    # every argument a flagless command hands a library function equals that
    # parameter's own default, so a default the command line typed again
    # and let drift fails here
    monkeypatch.chdir(tmp_path)
    calls = []

    def spy(module, name):
        real = getattr(module, name)

        def recorded(*args, **kwargs):
            calls.append((real, inspect.signature(real).bind(*args, **kwargs).arguments))
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, recorded)

    names = ["run_experiment_detailed", "sweep_variants", "simulate_hbt",
             "correlation_histogram", "fit_lifetime"]
    for name in names:
        # the commands' own calls, and the estimators inside the g2 run
        spy(cli if name in names[:2] else pipeline, name)
    for command in ("session", "rates", "g2"):
        assert cli.main([command, "--quiet"]) == 0
    assert sorted(real.__name__ for real, _ in calls) == sorted(names)
    checked = 0
    for real, arguments in calls:
        params = inspect.signature(real).parameters
        for name, value in arguments.items():
            default = params[name].default
            if name == "link":
                default = cli.LinkSpec()
            if default is not inspect.Parameter.empty:
                assert value == default, (real.__name__, name)
                checked += 1
    # the session's six and link, the sweep's three and link, the splitter's
    # two and the bins' three
    assert checked == 16


# every numeric flag alone on a small run, the run sizes included
_FUZZ_BASE = {
    "session": ["--preset", "wcp", "--pulses", "2000"],
    "rates": ["--dmax", "2", "--step", "0.5"],
    "cascade": ["--n-bits", "1000"],
    "g2": ["--pulses", "20000"],
}
_FUZZ_VALUES = ["nan", "inf", "-inf", "-1", "0", "1e-12", "1e12"]
_FUZZ_CASES = [
    (command, dest, value)
    for command, schema in cli._SCHEMAS.items()
    for dest, setting in schema.items()
    if setting.kind in (int, float)
    for value in _FUZZ_VALUES
]


@pytest.mark.parametrize(
    "command, dest, value",
    _FUZZ_CASES,
    ids=[f"{c}-{d}-{v}" for c, d, v in _FUZZ_CASES],
)
def test_numeric_flags_fail_cleanly(command, dest, value, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    flag = "--" + dest.replace("_", "-")
    argv = [command, *_FUZZ_BASE[command], f"{flag}={value}", "--quiet"]
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse refusing the value
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 2, 3), err
    assert "Traceback" not in err
    if code == 2:
        assert "error" in err


# ---------------------------------------------------------------- session


def test_session_writes_summary(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = cli.main(
        ["session", "--preset", "siv", "--pulses", "200000", "--seed", "5", "--quiet"]
    )
    assert code == 0
    text = (tmp_path / "session.summary.txt").read_text()
    assert text.startswith("# config_hash=")
    fields = _read_fields(tmp_path / "session.summary.txt")
    detected = int(fields["detected_count"])
    expect = 200000 * (0.012 * 0.31 + 2.4e-5)
    assert abs(detected - expect) < 4 * np.sqrt(expect)
    assert fields["verified"] == "True"
    assert fields["aborted"] == "False"
    assert int(fields["secret_bits"]) > 0


def test_session_rerun_is_byte_identical(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["session", "--preset", "nv", "--pulses", "100000", "--seed", "9"]
    assert cli.main(argv + ["--out", "a", "--quiet"]) == 0
    assert cli.main(argv + ["--out", "b", "--quiet"]) == 0
    assert (tmp_path / "a.summary.txt").read_bytes() == (
        tmp_path / "b.summary.txt"
    ).read_bytes()


def test_long_session_runs_in_bounded_memory(tmp_path):
    # 3e8 pulses: a dense per-pulse simulation needs several GB, while the
    # ~3e5 clicks of an event-driven one fit easily under a 1 GiB address space
    proc = _run_limited(1 << 30, [
        "-m", "spsqkd.cli", "session", "--preset", "nv", "--distance-km", "25",
        "--pulses", "300000000", "--out", str(tmp_path / "long"), "--quiet"])
    assert proc.returncode == 0, proc.stderr
    fields = _read_fields(tmp_path / "long.summary.txt")
    assert fields["n_pulses"] == "300000000"


def test_g2_at_the_tag_cap_runs_in_bounded_memory(tmp_path):
    # 5.7e8 nv pulses expect 1.65e7 tags, just under the events cap.  Built
    # in windows on two threads and appended in order to one reserved
    # stream, the run needs about 460 MiB of address space; one draw over
    # the whole run needed about 520 MiB
    proc = _run_limited(768 << 20, [
        "-m", "spsqkd.cli", "g2", "--preset", "nv", "--pulses", "570000000",
        "--out", str(tmp_path / "cap"), "--quiet"])
    assert proc.returncode == 0, proc.stderr
    fields = _read_fields(tmp_path / "cap.g2.txt")
    assert int(fields["n_tags"]) > 16_000_000


def test_bright_g2_histograms_pairs_in_bounded_memory(tmp_path):
    # 8e6 ideal95 pulses give 7.6e6 tags and 1.62e7 cross pairs.  Walked in
    # blocks of 2^16 tags and binned in batches of at most 2^20 delays, the
    # run fits in 272 MiB of address space (448 MiB with two window searches
    # and a pair expansion); one index and one delay array per pair needed
    # over 768
    proc = _run_limited(512 << 20, [
        "-m", "spsqkd.cli", "g2", "--preset", "ideal95", "--pulses", "8000000",
        "--out", str(tmp_path / "bright"), "--quiet"])
    assert proc.returncode == 0, proc.stderr
    rows = [r for r in (tmp_path / "bright.hist.csv").read_text().splitlines()
            if not r.startswith("#")]
    assert rows[0] == "tau_ns,counts"
    assert sum(int(r.split(",")[1]) for r in rows[1:]) > 16_000_000


def test_a_wide_g2_window_finds_its_side_peaks_in_one_pass(tmp_path):
    # 1e5 ideal95 pulses over a 0.9999 splitter give about 9.5e5 pairs in a
    # window of 1e5 periods and 2.5e6 bins, inside both caps.  Masking every
    # bin once per side peak ran for over 3 minutes; one search and one
    # cumulative sum of the counts take about 0.1 s of a 1.6 s run
    proc = _run_limited(1 << 30, [
        "-m", "spsqkd.cli", "g2", "--preset", "ideal95", "--pulses", "100000",
        "--splitter-ratio", "0.9999", "--window-periods", "100000",
        "--out", str(tmp_path / "wide"), "--quiet"], timeout=60)
    assert proc.returncode == 0, proc.stderr
    fields = _read_fields(tmp_path / "wide.g2.txt")
    assert fields["g2_zero"] == "0"


def test_cascade_runs_in_bounded_memory(tmp_path):
    # a cascade over 2^22 bits holds a shuffle and its inverse for each of
    # its 4 passes, and shuffles two passes at once on two threads.  Each
    # shuffle scatters and gathers through its int64 indices before only
    # their int32 copy is kept.  The run fails at 348 MiB of address space
    # and passes every time from 368; in between it passed 12 of 20 runs,
    # the need moving with how the two threads' builds overlap.  Per-pass
    # mask lists, one entry a block, read the same as the dict masks did
    proc = _run_limited(400 << 20, [
        "-m", "spsqkd.cli", "cascade", "--n-bits", "4194304", "--qber", "0.03",
        "--out", str(tmp_path / "big"), "--quiet"])
    assert proc.returncode == 0, proc.stderr
    fields = _read_fields(tmp_path / "big.cascade.txt")
    assert fields["verified"] == "True"


def test_long_entropy_file_session_runs_in_bounded_memory(tmp_path):
    # the 113 MB file stays packed: unpacking it to a byte per bit, plus a
    # mask of the same size, would not fit under the 1 GiB address space
    pulses = 300_000_000
    ent = tmp_path / "ent.bin"
    ent.touch()
    os.truncate(ent, -(-3 * pulses // 8))  # sparse, all zero bits
    proc = _run_limited(1 << 30, [
        "-m", "spsqkd.cli", "session", "--preset", "nv", "--distance-km", "25",
        "--pulses", str(pulses), "--entropy-file", str(ent),
        "--out", str(tmp_path / "long"), "--quiet"])
    assert proc.returncode == 0, proc.stderr
    fields = _read_fields(tmp_path / "long.summary.txt")
    assert fields["n_pulses"] == str(pulses)
    # all-zero bits match every basis, so every detection is sifted
    assert fields["sifted_count"] == fields["detected_count"]


def test_flags_override_config_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("source.preset = siv\nsession.pulses = 200000\nseed = 5\n")
    assert cli.main(["session", "--config", str(cfg), "--out", "f", "--quiet"]) == 0
    fields = _read_fields(tmp_path / "f.summary.txt")
    assert fields["n_pulses"] == "200000"
    assert cli.main(
        ["session", "--config", str(cfg), "--pulses", "300000", "--out", "g", "--quiet"]
    ) == 0
    fields = _read_fields(tmp_path / "g.summary.txt")
    assert fields["n_pulses"] == "300000"


def test_unknown_config_key_is_refused(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("link.color = blue\n")
    assert cli.main(["session", "--config", str(cfg)]) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["session", "--config", str(tmp_path / "nope.cfg")]) == 2
    assert "config file not found" in capsys.readouterr().err


def test_unknown_preset_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["session", "--preset", "bogus"]) == 2
    assert "unknown preset" in capsys.readouterr().err


def test_session_bits_csv(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(
        ["session", "--preset", "nv", "--pulses", "100000", "--seed", "3",
         "--bits-csv", "--quiet"]
    ) == 0
    lines = (tmp_path / "session.bits.csv").read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    header_at = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    assert lines[header_at] == "pulse_index,basis,alice_bit,bob_bit,disclosed"
    fields = _read_fields(tmp_path / "session.summary.txt")
    assert len(lines) - header_at - 1 == int(fields["sifted_count"])


def test_dead_link_session_aborts_with_exit_3(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = cli.main(
        ["session", "--preset", "nv", "--pulses", "20000",
         "--distance-km", "200", "--seed", "1", "--quiet"]
    )
    assert code == 3
    assert "aborted" in capsys.readouterr().err


def test_entropy_file_too_short_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    ent = tmp_path / "ent.bin"
    ent.write_bytes(b"\x00" * 10)
    assert cli.main(
        ["session", "--preset", "nv", "--pulses", "1000",
         "--entropy-file", str(ent)]
    ) == 2
    assert "too short" in capsys.readouterr().err


def test_over_cap_session_pages_in_none_of_its_entropy_file(tmp_path):
    # the 375 MB file is mapped, not read: the run is refused its size before
    # any pulse, so none of the file is paged in (reading it would be ~410 MB)
    pulses = 1_000_000_000
    ent = tmp_path / "ent.bin"
    ent.touch()
    os.truncate(ent, -(-3 * pulses // 8))  # sparse
    code = (
        "import resource, sys\n"
        "from spsqkd import cli\n"
        f"code = cli.main(['session', '--preset', 'wcp', '--pulses', '{pulses}',"
        f" '--entropy-file', {str(ent)!r}, '--out', {str(tmp_path / 'x')!r}])\n"
        "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss >> 10)\n"
    )
    proc = _run_limited(1 << 30, ["-c", code], timeout=120)
    assert proc.stderr.startswith("error: pulses = 1e+09 expects "), proc.stderr
    exit_code, max_rss_mb = map(int, proc.stdout.split())
    assert exit_code == 2
    assert max_rss_mb < 200
    assert list(tmp_path.iterdir()) == [ent]


def test_entropy_file_with_no_pulses_leaves_the_refusal_to_the_session(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    ent = tmp_path / "ent.bin"
    ent.touch()
    assert cli.main(["session", "--pulses", "0", "--entropy-file", str(ent)]) == 2
    assert capsys.readouterr().err == "error: n_pulses must be at least 1\n"


def test_entropy_file_drives_protocol_bits(tmp_path, monkeypatch):
    # all-zero bits: every basis matches, so every detection is sifted
    monkeypatch.chdir(tmp_path)
    ent = tmp_path / "ent.bin"
    ent.write_bytes(b"\x00" * (3 * 50000 // 8 + 1))
    assert cli.main(
        ["session", "--preset", "nv", "--pulses", "50000",
         "--entropy-file", str(ent), "--seed", "4", "--quiet"]
    ) == 0
    fields = _read_fields(tmp_path / "session.summary.txt")
    assert fields["sifted_count"] == fields["detected_count"]


# ---------------------------------------------------------------- rates


def test_rates_csv_and_crossover_metadata(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(
        ["rates", "--preset", "nv", "--wcp", "--decoy",
         "--dmax", "2", "--step", "0.5", "--quiet"]
    ) == 0
    lines = (tmp_path / "rates.rates.csv").read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert any(l.startswith("# crossover_nv_wcp_km=") for l in lines)
    assert any(l.startswith("# crossover_nv_decoy_km=") for l in lines)
    header_at = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    assert lines[header_at] == "distance_km,nv,wcp,decoy"
    assert len(lines) - header_at - 1 == 5  # 0, 0.5, 1.0, 1.5, 2.0


@pytest.mark.parametrize("preset, rival", [("wcp", "decoy"), ("decoy", "wcp")])
def test_rates_laser_preset_is_crossed_with_the_other_rival_only(
    preset, rival, tmp_path, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["rates", "--preset", preset, f"--{rival}", "--dmax", "2", "--quiet"]) == 0
    lines = (tmp_path / "rates.rates.csv").read_text().splitlines()
    crossovers = [l.partition("=")[0] for l in lines if l.startswith("# crossover_")]
    assert crossovers == [f"# crossover_{preset}_{rival}_km"]


def test_rates_step_must_be_positive(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["rates", "--preset", "nv", "--step", "-1"]) == 2
    assert "step" in capsys.readouterr().err


def test_rates_rerun_is_byte_identical(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["rates", "--preset", "siv", "--wcp", "--dmax", "5", "--step", "1"]
    assert cli.main(argv + ["--out", "x", "--quiet"]) == 0
    assert cli.main(argv + ["--out", "y", "--quiet"]) == 0
    assert (tmp_path / "x.rates.csv").read_bytes() == (tmp_path / "y.rates.csv").read_bytes()


def test_rates_past_the_float_range_of_loss_read_zero_quietly(tmp_path):
    # 1e308 dB/km times 5 km overflows to -inf dB: a transmission of 0,
    # computed without numpy's overflow warning on stderr
    proc = subprocess.run(
        [sys.executable, "-m", "spsqkd.cli", "rates", "--wcp", "--decoy", "--ideal95",
         "--attenuation-db-per-km", "1e308", "--dmax", "10", "--step", "5", "--quiet"],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), cwd=tmp_path,
        capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = (tmp_path / "rates.rates.csv").read_text().splitlines()
    rows = np.loadtxt([l for l in lines if not l.startswith("#")][1:], delimiter=",")
    assert rows[:, 0].tolist() == [0.0, 5.0, 10.0]
    assert (rows[0, 1:] > 0).all() and not rows[1:, 1:].any()


def test_rates_past_the_float_range_of_f_ec_read_zero_quietly(tmp_path, monkeypatch):
    # f_ec = 1e308 overflows the rate to -inf, floored to 0 without numpy's
    # overflow warning, which the suite turns into an error
    monkeypatch.chdir(tmp_path)
    assert cli.main(["rates", "--f-ec", "1e308", "--wcp", "--decoy", "--ideal95",
                     "--dmax", "10", "--step", "5", "--quiet"]) == 0
    lines = (tmp_path / "rates.rates.csv").read_text().splitlines()
    rows = np.loadtxt([l for l in lines if not l.startswith("#")][1:], delimiter=",")
    assert rows[:, 0].tolist() == [0.0, 5.0, 10.0]
    assert rows.shape == (3, 5) and not rows[:, 1:].any()


# ---------------------------------------------------------------- cascade


def test_cascade_seeds_past_2_53_run_exactly(tmp_path, monkeypatch):
    # the flag and the config file both keep the seed's last bit, so
    # 2^53 + 1 writes itself in the header and draws its own keys
    monkeypatch.chdir(tmp_path)
    big = 2**53 + 1
    (tmp_path / "big.cfg").write_text(f"seed = {big}\n")
    runs = {
        "flag": ["--seed", str(big)],
        "file": ["--config", "big.cfg"],
        "below": ["--seed", str(big - 1)],
    }
    for out, argv in runs.items():
        assert cli.main(["cascade", "--n-bits", "1000", *argv, "--out", out, "--quiet"]) == 0
    header = (tmp_path / "flag.cascade.txt").read_text().splitlines()
    assert f"# seed={big}" in header
    for suffix in ("cascade.txt", "transcript.bin"):
        assert (tmp_path / f"flag.{suffix}").read_bytes() == (
            tmp_path / f"file.{suffix}").read_bytes()
        assert (tmp_path / f"flag.{suffix}").read_bytes() != (
            tmp_path / f"below.{suffix}").read_bytes()


def test_cascade_identical_keys_means_zero_corrections(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(
        ["cascade", "--n-bits", "4096", "--qber", "0", "--seed", "11", "--quiet"]
    ) == 0
    fields = _read_fields(tmp_path / "cascade.cascade.txt")
    assert fields["corrections_made"] == "0"
    assert fields["residual_error_rate"] == "0"
    assert fields["verified"] == "True"
    assert (tmp_path / "cascade.transcript.bin").stat().st_size > 0


def test_cascade_seeded_run_corrects_everything(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(
        ["cascade", "--n-bits", "10000", "--qber", "0.03", "--seed", "3", "--quiet"]
    ) == 0
    fields = _read_fields(tmp_path / "cascade.cascade.txt")
    assert float(fields["residual_error_rate"]) < 1e-3
    assert fields["verified"] == "True"
    assert 1.0 < float(fields["shannon_ratio"]) < 1.35


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["--n-bits", "100000", "--qber", "0.1", "--seed", "2"],
         "58626e84506182e30a1bdb1f79cfb3a9e9c3ae1326641cf95c625a34db717ba7"),
        (["--n-bits", "10000", "--qber", "0.03", "--seed", "5"],
         "c7a90b84f2946f0d20982da5045fd69d84904c9c630e7d65843541f6e8ae22ef"),
        # 2-bit pass-1 blocks
        (["--n-bits", "1000", "--qber", "0.3", "--est-qber", "0.49", "--seed", "4"],
         "75877bb802251e34cf15617dd88b8c4949fe13765dc7c02114a42e055a223271"),
        # no odd pass-1 block, so no bisection runs in pass 1
        (["--n-bits", "4096", "--qber", "0", "--seed", "11"],
         "fb37da7f6ea3a2c989701193bd56a835d28adfdfcbb5fba45838565b7dace97f"),
        (["--n-bits", "20000", "--qber", "0.05", "--n-passes", "2", "--verify-bits", "0",
          "--seed", "6"],
         "bbcc244b5d3a155396f0fe252b2e77ae9764200f7f9ba01a1d6ed374189fed3f"),
        # above reconciliation._THREAD_FROM: the pass tables built on two
        # threads
        (["--n-bits", "262144", "--qber", "0.03", "--seed", "7"],
         "4f6007ad91f8478f607c051c07457851ffbeafadf1cc6ad7f73ece386c7cd1c2"),
    ],
    ids=["n100000-qber0.1", "n10000-qber0.03", "n1000-block2", "n4096-qber0",
         "n20000-2passes-unverified", "n262144-threaded"],
)
def test_cascade_transcript_is_pinned(argv, digest, tmp_path, monkeypatch):
    # digests of transcripts written by earlier implementations (one frame
    # at a time, then one pass-1 bisection per block): every query, reply
    # and its order must survive
    monkeypatch.chdir(tmp_path)
    assert cli.main(["cascade", *argv, "--quiet"]) == 0
    data = (tmp_path / "cascade.transcript.bin").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["--preset", "nv", "--wcp", "--decoy", "--ideal10", "--ideal95",
          "--dmax", "60", "--step", "0.05"],
         "747590686f54a850dc5ddff4a704a8ae9b624e351b89940829393ef1c4d3849b"),
        (["--preset", "siv", "--wcp", "--decoy", "--flat-error",
          "--dmax", "200", "--step", "0.01"],
         "c36e53141751201baf186ee82dbc4530e0b7ba61f8ce7fe083f928e3e49d904f"),
        # the preset is also one of the ideal flags, and is swept once
        (["--preset", "ideal95", "--ideal10", "--ideal95", "--wcp",
          "--dmax", "20", "--step", "0.1"],
         "e119ba380cbf49c4cd1cad9f2e6420fd594b53255716e8d8cff696af4846e5c7"),
        # a clock and an error-correction inefficiency other than the defaults
        (["--preset", "decoy", "--wcp", "--ideal10", "--rep-rate", "2e6", "--f-ec", "1.1",
          "--dmax", "100", "--step", "0.05"],
         "2abb0810636ae671405ebcb0e82fc5726f4b80b37e6e512db66cc607d9e95091"),
        # 20,001 points, many decoy search tiles wide and not ending on a tile
        # edge, on a noisier link; the digest is of the CSV the one-intensity-
        # at-a-time decoy search wrote at commit 4e6cdb1
        (["--preset", "siv", "--decoy", "--wcp", "--dmax", "100", "--step", "0.005",
          "--dark-count-prob", "1e-4", "--misalignment", "0.05"],
         "634a60d0a37e7ced73e5ccc339f58789900869825bf4f54f7bae0db54c57715a"),
    ],
    ids=["nv-all-60km", "siv-flat-200km", "ideal95-twice-20km", "decoy-2MHz-fec1.1",
         "siv-decoy-noisy-100km"],
)
def test_rates_csv_is_pinned(argv, digest, tmp_path, monkeypatch):
    # digests of the CSVs written by the per-distance scalar sweep the array
    # kernels replaced: every printed rate and crossover must survive
    monkeypatch.chdir(tmp_path)
    assert cli.main(["rates", *argv, "--quiet"]) == 0
    data = (tmp_path / "rates.rates.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["--preset", "nv", "--pulses", "3000000"],
         "b75e524cdd990a63ebe54266f30e54958b0af8f9f33f1a389f4b008329d65847"),
        (["--preset", "siv", "--bin-width-ns", "0.5"],
         "6d1f9faa41a316806cc8c64ee16f92a4e0d261f5c0c137a43fad3b5ab68d10a7"),
        # 61% of ideal10's tags have a neighbour inside the window; siv80's
        # window is 62.5 ns wide, and its 28.75k expected tags are the only
        # run here that fits in one window of simulate_hbt
        (["--preset", "ideal10", "--pulses", "1000000"],
         "a856a84315a2d5a93a9c20ae9f449f2183cf5cd2c944d46d5141705a1c0b538b"),
        (["--preset", "siv80"],
         "3aa8d400f836dafa1791b26f45092a1ecafbe8f47d168f2e8e5962a389edc70b"),
        # a period (1e9 / 3e6 ns) and a bin width that are not exact in binary
        (["--preset", "nv", "--pulses", "5000000", "--rep-rate", "3e6",
          "--bin-width-ns", "0.37"],
         "748346c10e143ba97ed643955208c6952ece17f28580e7061f54d9fb68977dd8"),
    ],
    ids=["nv-3e6", "siv-half-ns", "ideal10-1e6", "siv80", "nv-3MHz-0.37ns"],
)
def test_g2_hist_csv_is_pinned(argv, digest, tmp_path, monkeypatch):
    # digests of the histograms written one formatted row at a time: every
    # bin centre and count must survive a change of writer
    monkeypatch.chdir(tmp_path)
    assert cli.main(["g2", *argv, "--quiet"]) == 0
    data = (tmp_path / "g2.hist.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, digests",
    [
        (["session", "--preset", "wcp", "--pulses", "1000000", "--seed", "7",
          "--disclose-fraction", "0.1", "--bits-csv"],
         {"session.summary.txt":
          "dda3444c985b4a3e4005e1a9aa93ea74c9e9aa0f8e8b69b10237f1d54fb03a4e",
          "session.bits.csv":
          "63c96825b224c08f3937d83e34bd6e4fac61683ba63d787c0bafe43ec2990ff1"}),
        (["session", "--preset", "wcp", "--pulses", "1000000", "--seed", "7"],
         {"session.summary.txt":
          "ca221d7951de8f51c03fa71b851759ef7fc424da777a0416aaacd1e7fbca8e6f"}),
        (["session", "--preset", "nv", "--pulses", "1000000", "--seed", "7", "--bits-csv"],
         {"session.summary.txt":
          "377a7d623cc897f10d228f67e3ce1d30bdbb3d65aa801ae138e0ee5c0c5902ed",
          "session.bits.csv":
          "e5985c3b77407e0cafbba849d7a7d0a7ea457c75a245548f742d9e9f07818f65"}),
        (["session", "--preset", "decoy", "--pulses", "1000000", "--seed", "3"],
         {"session.summary.txt":
          "9425aab084e7e71e578441f186d1a02b3d1cd8faf615eb6ef637cd00770653c8"}),
        (["session", "--preset", "siv", "--pulses", "1000000", "--seed", "7"],
         {"session.summary.txt":
          "40f00fabf7ae27f988fe89299c5d89c4510f17dee180f04c84b9f6ce4398a102"}),
        (["session", "--preset", "ideal95", "--pulses", "200000", "--distance-km", "10",
          "--seed", "7"],
         {"session.summary.txt":
          "38f601d8bab56e4f160868016bc72093ceaa01c2caf652088502b5e4d5730202"}),
        (["cascade", "--n-bits", "10000", "--qber", "0.03", "--seed", "5"],
         {"cascade.cascade.txt":
          "cbb9a9d52cec295610a7a5e4e19b1db0741d64073b685829b1213884dbc600d5"}),
        (["g2", "--preset", "nv", "--pulses", "3000000"],
         {"g2.g2.txt":
          "5e760e061160f33ca36946040f7a91d569db509f675355d26371e9f9a1f448d2"}),
        (["g2", "--preset", "siv", "--bin-width-ns", "0.5"],
         {"g2.g2.txt":
          "976fc4f0e53fef2525e3ee6a05be59eb96cb878285540a2c29e977188febd919"}),
        (["g2", "--preset", "ideal10", "--pulses", "1000000"],
         {"g2.g2.txt":
          "346320aba3e8a1a8e71c8b6e5d1f02183d4ec237305a11308f140e75b6d85c21"}),
        (["g2", "--preset", "siv80"],
         {"g2.g2.txt":
          "84e73dda39fb51fbce47cce6ddf28cf2d9934a17dab34e348ce448d67c9696cc"}),
        (["g2", "--preset", "nv", "--pulses", "5000000", "--rep-rate", "3e6",
          "--bin-width-ns", "0.37"],
         {"g2.g2.txt":
          "dcd4af90f0a8599de02cb4725b0942095052939edee2078e824f2dfac2e27224"}),
    ],
    ids=["session-wcp-disclose", "session-wcp", "session-nv", "session-decoy", "session-siv",
         "session-ideal95-10km", "cascade-n10000", "g2-nv-3e6",
         "g2-siv-half-ns", "g2-ideal10-1e6", "g2-siv80", "g2-nv-3MHz-0.37ns"],
)
def test_report_files_are_pinned(argv, digests, tmp_path, monkeypatch):
    # every header line, report field and bit row is fixed: a change to the
    # shared writers must leave these bytes as they are
    monkeypatch.chdir(tmp_path)
    assert cli.main([*argv, "--quiet"]) == 0
    for name, digest in digests.items():
        data = (tmp_path / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, name


def test_cascade_key_files_round_trip(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(1)
    alice = rng.integers(0, 2, 256)
    bob = alice.copy()
    bob[17] ^= 1
    (tmp_path / "a.key").write_text("".join(map(str, alice)))
    (tmp_path / "b.key").write_text("".join(map(str, bob)))
    assert cli.main(
        ["cascade", "--alice-file", str(tmp_path / "a.key"),
         "--bob-file", str(tmp_path / "b.key"), "--est-qber", "0.02", "--quiet"]
    ) == 0
    fields = _read_fields(tmp_path / "cascade.cascade.txt")
    assert fields["corrections_made"] == "1"
    assert fields["residual_error_rate"] == "0"


def test_cascade_key_files_transcript_is_pinned(tmp_path, monkeypatch):
    # 10,001 bits in blocks of 25: the last pass-1 block is one bit, and
    # it holds an error
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(8)
    alice = rng.integers(0, 2, 10_001)
    bob = alice ^ (rng.random(alice.size) < 0.03)
    bob[-1] = 1 - alice[-1]
    (tmp_path / "a.key").write_text("".join(map(str, alice)))
    (tmp_path / "b.key").write_text("".join(map(str, bob)))
    assert cli.main(
        ["cascade", "--alice-file", str(tmp_path / "a.key"),
         "--bob-file", str(tmp_path / "b.key"), "--est-qber", "0.03", "--quiet"]
    ) == 0
    fields = _read_fields(tmp_path / "cascade.cascade.txt")
    assert fields["corrections_made"] == str(int((alice != bob).sum()))
    data = (tmp_path / "cascade.transcript.bin").read_bytes()
    assert hashlib.sha256(data).hexdigest() == (
        "3b497c9a43d1321faa032c2042bd9ffa640a225a9b4e3994a3b8d602bd5f0aaa"
    )


def test_cascade_out_of_rounds_names_the_budget(tmp_path, monkeypatch, capsys):
    # test_confirmation_stage_repairs_pass_blind_pattern's keys: a round must
    # mismatch to repair them, so a streak of 65535 agreeing rounds no longer
    # fits in the 65535-round budget, although no bit still differs
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(4)
    alice = rng.integers(0, 2, 32, dtype=np.uint8)
    bob = alice.copy()
    bob[[0, 1]] ^= 1
    (tmp_path / "a.key").write_text("".join(map(str, alice)))
    (tmp_path / "b.key").write_text("".join(map(str, bob)))
    assert cli.main(
        ["cascade", "--alice-file", str(tmp_path / "a.key"),
         "--bob-file", str(tmp_path / "b.key"), "--verify-bits", "65535", "--quiet"]
    ) == 3
    err = capsys.readouterr().err
    assert "65535-round confirmation budget" in err
    assert "verify_bits = 65535" in err
    assert "0 of 32 bits still differ" in err
    fields = _read_fields(tmp_path / "cascade.cascade.txt")
    assert fields["verified"] == "False"
    assert fields["residual_error_rate"] == "0"


def test_cascade_mismatched_key_files_exit_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.key").write_text("0" * 64)
    (tmp_path / "b.key").write_text("0" * 63)
    assert cli.main(
        ["cascade", "--alice-file", str(tmp_path / "a.key"),
         "--bob-file", str(tmp_path / "b.key")]
    ) == 2
    assert "equal length" in capsys.readouterr().err


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda path: path.write_text(""), "key file is empty"),
        (lambda path: path.write_bytes(b"01\xff10"), "key file is not UTF-8 text"),
        (lambda path: path.mkdir(), "key file is not a regular file"),
    ],
    ids=["empty", "not-utf8", "directory"],
)
def test_cascade_bad_key_file_exits_2_naming_it(make, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.key").write_text("01" * 32)
    make(tmp_path / "b.key")
    assert cli.main(
        ["cascade", "--alice-file", str(tmp_path / "a.key"),
         "--bob-file", str(tmp_path / "b.key")]
    ) == 2
    assert f"{message}: {tmp_path / 'b.key'}" in capsys.readouterr().err
    assert not (tmp_path / "cascade.transcript.bin").exists()


def test_cascade_over_the_shuffle_budget_exits_2_before_any_key(
    tmp_path, monkeypatch, capsys
):
    # 253 shuffles of a key at the events cap would take about 38 GB
    def must_not_draw(*args, **kwargs):
        raise AssertionError("a key was drawn past the shuffle budget")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli.np.random, "default_rng", must_not_draw)
    assert cli.main(["cascade", "--n-bits", str(1 << 24), "--n-passes", "253"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: n_passes = 253 over 16777216 key bits")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, key_bits",
    [
        (["cascade", "--n-bits", "1.6e7"], "over 16000000 key bits"),
        (["session", "--preset", "wcp", "--pulses", "1e8"], "key bits"),
    ],
    ids=["cascade", "session"],
)
def test_confirmation_past_its_budget_exits_2_before_any_draw(
    argv, key_bits, tmp_path, monkeypatch, capsys
):
    # 65535 rounds over a 1.6e7-bit key, or a 1e8-pulse wcp session's 4.6e6
    # sifted bits, ran for 99.7 and 26.6 s before the budget
    def must_not_draw(*args, **kwargs):
        raise AssertionError("a draw was made past the confirmation budget")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(np.random, "default_rng", must_not_draw)
    assert cli.main(argv + ["--verify-bits", "65535", "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: verify_bits = 65535 over ") and key_bits in err
    assert not list(tmp_path.iterdir())


def test_session_over_the_shuffle_budget_exits_2_before_the_monte_carlo(
    tmp_path, monkeypatch, capsys
):
    # about 4.6e5 sifted bits times 253 passes is over the shuffle budget,
    # which is known from the expected click probability before any pulse
    def must_not_run(*args, **kwargs):
        raise AssertionError("the session ran past the shuffle budget")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(pipeline, "run_session", must_not_run)
    argv = ["session", "--preset", "wcp", "--pulses", "10000000", "--n-passes", "253"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: n_passes = 253 over ") and "shuffled bits" in err
    assert not list(tmp_path.iterdir())


def test_oversized_key_file_is_refused_by_name_in_bounded_memory(tmp_path):
    # a 2 GiB file, sparse past its first 2^24 + 1 bits: it is read only
    # until the bits pass the events cap, not whole, and bob_file is
    # checked as alice_file is
    (tmp_path / "a.key").write_text("01" * 64)
    bob = tmp_path / "b.key"
    bob.write_text("0" * ((1 << 24) + 1))
    os.truncate(bob, 2 << 30)
    proc = _run_limited(512 << 20, [
        "-m", "spsqkd.cli", "cascade", "--alice-file", str(tmp_path / "a.key"),
        "--bob-file", str(bob), "--out", str(tmp_path / "x"), "--quiet"], timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == f"error: bob_file = {bob} holds over 16777216 key bits\n"
    assert not (tmp_path / "x.transcript.bin").exists()


def test_cascade_key_files_over_the_events_cap_exit_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name in ("a.key", "b.key"):
        (tmp_path / name).write_text("0" * ((1 << 24) + 1))
    assert cli.main(
        ["cascade", "--alice-file", str(tmp_path / "a.key"),
         "--bob-file", str(tmp_path / "b.key")]
    ) == 2
    assert "alice_file" in capsys.readouterr().err
    assert not (tmp_path / "cascade.transcript.bin").exists()


# ---------------------------------------------------------------- g2


def test_g2_writes_histogram_and_estimates(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(
        ["g2", "--preset", "nv", "--pulses", "200000", "--seed", "2", "--quiet"]
    ) == 0
    hist_lines = (tmp_path / "g2.hist.csv").read_text().splitlines()
    assert hist_lines[0].startswith("# config_hash=")
    fields = _read_fields(tmp_path / "g2.g2.txt")
    assert 0.0 <= float(fields["g2_zero"]) < 0.5
    assert int(fields["n_tags"]) > 0


def test_g2_sparse_stream_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["g2", "--preset", "nv", "--pulses", "100", "--seed", "2"]) == 3
    assert "side peaks" in capsys.readouterr().err


def test_g2_empty_stream_exits_3(tmp_path, monkeypatch, capsys):
    # no tag at all: the histogram refuses the stream, which has no detector pair
    monkeypatch.chdir(tmp_path)
    assert cli.main(["g2", "--pulses", "10000", "--detection-eff", "0"]) == 3
    assert capsys.readouterr().err.startswith("error: ")
    assert not list(tmp_path.iterdir())


def test_g2_source_overrides_are_validated(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    # Poissonian presets admit no g2 dial
    assert cli.main(["g2", "--preset", "wcp", "--g2-zero", "0.1"]) == 2
    assert cli.main(["g2", "--preset", "nv", "--mu", "-0.5"]) == 2


@pytest.mark.parametrize("last", ["fit_lifetime", "correlation_histogram"])
def test_g2_estimators_write_the_same_bytes_in_either_order(last, tmp_path, monkeypatch):
    # the two estimators run side by side; held until the other has
    # returned, either one still gives the files of a run left alone
    monkeypatch.chdir(tmp_path)
    argv = ["g2", "--preset", "nv", "--pulses", "300000", "--seed", "4", "--quiet"]
    assert cli.main([*argv, "--out", "free"]) == 0
    first = "fit_lifetime" if last == "correlation_histogram" else "correlation_histogram"
    returned = threading.Event()
    run_first, run_last = getattr(pipeline, first), getattr(pipeline, last)

    def signals(*args, **kwargs):
        result = run_first(*args, **kwargs)
        returned.set()
        return result

    def waits(*args, **kwargs):
        assert returned.wait(timeout=60)
        return run_last(*args, **kwargs)

    monkeypatch.setattr(pipeline, first, signals)
    monkeypatch.setattr(pipeline, last, waits)
    assert cli.main([*argv, "--out", "held"]) == 0
    for suffix in ("hist.csv", "g2.txt"):
        assert (tmp_path / f"held.{suffix}").read_bytes() == \
            (tmp_path / f"free.{suffix}").read_bytes()


def test_g2_fit_failure_is_raised_after_the_join(tmp_path, monkeypatch):
    class Injected(Exception):
        pass

    def fail(*args, **kwargs):
        raise Injected

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(pipeline, "fit_lifetime", fail)
    live = threading.active_count()
    with pytest.raises(Injected):
        cli.main(["g2", "--preset", "nv", "--pulses", "300000", "--quiet"])
    assert threading.active_count() == live


def test_g2_reports_the_histogram_refusal_over_the_fit(tmp_path, monkeypatch, capsys):
    # 1e-4-ns bins are refused by both estimators: the fit over nv's
    # 1000-ns period needs 1e7 of them, the histogram over ten periods 1e8.
    # The histogram waits until the fit has refused; its refusal is printed
    monkeypatch.chdir(tmp_path)
    refusals, refused = [], threading.Event()
    fit, hist = pipeline.fit_lifetime, pipeline.correlation_histogram

    def fit_refuses(*args, **kwargs):
        try:
            return fit(*args, **kwargs)
        except ValueError as exc:
            refusals.append(str(exc))
            refused.set()
            raise

    def hist_after_the_fit(*args, **kwargs):
        assert refused.wait(timeout=60)
        return hist(*args, **kwargs)

    monkeypatch.setattr(pipeline, "fit_lifetime", fit_refuses)
    monkeypatch.setattr(pipeline, "correlation_histogram", hist_after_the_fit)
    argv = ["g2", "--preset", "nv", "--pulses", "100000", "--bin-width-ns", "1e-4"]
    assert cli.main(argv) == 2
    assert len(refusals) == 1 and "needs 1e+07 bins" in refusals[0]
    err = capsys.readouterr().err
    assert err.startswith("error: bin_width_ns = 0.0001 needs 1e+08 bins")
    assert not list(tmp_path.iterdir())


def test_g2_rerun_is_byte_identical(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["g2", "--preset", "siv", "--pulses", "300000", "--seed", "6"]
    assert cli.main(argv + ["--out", "p", "--quiet"]) == 0
    assert cli.main(argv + ["--out", "q", "--quiet"]) == 0
    assert (tmp_path / "p.hist.csv").read_bytes() == (tmp_path / "q.hist.csv").read_bytes()
    assert (tmp_path / "p.g2.txt").read_bytes() == (tmp_path / "q.g2.txt").read_bytes()


# ---------------------------------------------------------------- README


def test_the_readme_quick_start_prints_what_it_shows(tmp_path, monkeypatch, capsys):
    # each "$ spsqkd ..." line the README follows with an output line
    monkeypatch.chdir(tmp_path)
    readme = (ROOT / "README.md").read_text().splitlines()
    shown = {}
    for line, following in zip(readme, readme[1:]):
        if line.startswith("$ spsqkd ") and following and following != "```":
            shown[line] = following
    assert {line.split()[2] for line in shown} == {"session", "rates", "cascade", "g2"}
    for line, expected in shown.items():
        capsys.readouterr()
        assert cli.main(line.split()[2:]) == 0
        assert capsys.readouterr().out.splitlines() == [expected], line

"""Config parsing, hash binding, and the four CLI subcommands."""

import numpy as np
import pytest

from spsqkd import cli
from spsqkd.config import coerce_value, config_hash, load_config_file, parse_config_text


def _read_fields(path):
    fields = {}
    for line in path.read_text().splitlines():
        if line.startswith("#") or not line.strip():
            continue
        key, _, value = line.partition("=")
        fields[key.strip()] = value.strip()
    return fields


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
    with pytest.raises(ValueError):
        coerce_value("k", "maybe", bool)


def test_config_hash_is_order_free_and_value_bound():
    a = {"x": 1, "y": 2.5}
    b = {"y": 2.5, "x": 1}
    assert config_hash(a) == config_hash(b)
    assert len(config_hash(a)) == 12
    assert config_hash(a) != config_hash({"x": 1, "y": 2.6})


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
        args = cli.build_parser().parse_args([command, *argv])
        file_cfg = load_config_file(args.config) if args.config else {}
        return config_hash(cli._effective(command, cli._resolve(command, args, file_cfg)))

    by_flag = hash_of([flag] if setting.kind is bool else [flag, text])
    assert by_flag == hash_of(["--config", str(cfg)]) != hash_of([])


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
    ],
)
def test_bad_input_exits_2_naming_the_setting(argv, setting, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv + ["--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and setting in err


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


# ---------------------------------------------------------------- cascade


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


def test_cascade_mismatched_key_files_exit_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.key").write_text("0" * 64)
    (tmp_path / "b.key").write_text("0" * 63)
    assert cli.main(
        ["cascade", "--alice-file", str(tmp_path / "a.key"),
         "--bob-file", str(tmp_path / "b.key")]
    ) == 2
    assert "equal length" in capsys.readouterr().err


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


def test_g2_source_overrides_are_validated(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    # Poissonian presets admit no g2 dial
    assert cli.main(["g2", "--preset", "wcp", "--g2-zero", "0.1"]) == 2
    assert cli.main(["g2", "--preset", "nv", "--mu", "-0.5"]) == 2


def test_g2_rerun_is_byte_identical(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["g2", "--preset", "siv", "--pulses", "300000", "--seed", "6"]
    assert cli.main(argv + ["--out", "p", "--quiet"]) == 0
    assert cli.main(argv + ["--out", "q", "--quiet"]) == 0
    assert (tmp_path / "p.hist.csv").read_bytes() == (tmp_path / "q.hist.csv").read_bytes()
    assert (tmp_path / "p.g2.txt").read_bytes() == (tmp_path / "q.g2.txt").read_bytes()
import json
import os

import pytest

import ensembles
from lsmclab.cli import CSV_COLUMNS, CSV_VERSION, main


def write_config(tmp_path, text, name="bench.ini"):
    path = str(tmp_path / name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


SMALL = """
[engine]
size_ratio = 4
buffer_bytes = 1024
page_bytes = 256
entry_bytes = 64
block_cache_bytes = 0

[workload]
inserts = 300
point_lookups = 40
alpha = 0.5
seed = 7
"""


def run_cli(args):
    return main(args)


def test_run_writes_all_artifacts(tmp_path):
    cfg = write_config(tmp_path, SMALL)
    out = str(tmp_path / "out")
    assert run_cli(["run", "--config", cfg, "--strategy", "lo1", "--out", out]) == 0
    with open(os.path.join(out, "metrics.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == f"# {CSV_VERSION}"
    assert lines[1] == ",".join(CSV_COLUMNS)
    assert len(lines) == 3
    row = dict(zip(CSV_COLUMNS, lines[2].split(",")))
    assert row["strategy"] == "lo1"
    assert int(row["inserts"]) == 300
    with open(os.path.join(out, "report.json")) as fh:
        report = json.load(fh)
    assert report[0]["strategy"] == "lo1"
    assert report[0]["metrics"]["point_lookups"] == 40
    assert os.path.exists(os.path.join(out, "manifest-dump.txt"))


def test_run_is_reproducible(tmp_path):
    cfg = write_config(tmp_path, SMALL)
    outputs = []
    for sub in ("a", "b"):
        out = str(tmp_path / sub)
        assert run_cli(["run", "--config", cfg, "--strategy", "lo1,tier", "--out", out]) == 0
        with open(os.path.join(out, "metrics.csv")) as fh:
            outputs.append(fh.read())
    assert outputs[0] == outputs[1]


def test_run_seed_changes_output(tmp_path):
    cfg = write_config(tmp_path, SMALL)
    outputs = []
    for seed in ("1", "2"):
        out = str(tmp_path / seed)
        assert run_cli(
            ["run", "--config", cfg, "--strategy", "lo1", "--seed", seed, "--out", out]
        ) == 0
        with open(os.path.join(out, "report.json")) as fh:
            outputs.append(json.load(fh)[0]["metrics"])
    assert outputs[0] != outputs[1]


def test_env_var_out_dir(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, SMALL)
    out = str(tmp_path / "env-out")
    monkeypatch.setenv("LSMCLAB_OUT", out)
    assert run_cli(["run", "--config", cfg, "--strategy", "full"]) == 0
    assert os.path.exists(os.path.join(out, "metrics.csv"))


def test_missing_out_dir_is_config_error(tmp_path, monkeypatch):
    monkeypatch.delenv("LSMCLAB_OUT", raising=False)
    cfg = write_config(tmp_path, SMALL)
    assert run_cli(["run", "--config", cfg]) == 2


def test_bad_config_exits_2(tmp_path):
    cfg = write_config(tmp_path, "[engine]\nsize_ratio = banana\n")
    assert run_cli(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_entry_bytes_too_small_for_generated_keys_exits_2(tmp_path, capsys):
    # 1,000 inserts make 4-digit keys, one byte wider than key_bytes
    text = SMALL.replace("entry_bytes = 64", "entry_bytes = 16")
    cfg = write_config(tmp_path, text.replace("inserts = 300", "inserts = 1000\nkey_bytes = 3"))
    assert run_cli(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "entry_bytes too small for 4-byte keys" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, section, named",
    [
        ("model", "[model]\nn = abc\n", "model.n:"),
        ("model", "[model]\nselectivity = x\n", "model.selectivity:"),
        ("model", "[model]\nn = 0\n", "[model] n = 0:"),
        ("model", "[model]\ningest_rate = 0\n", "[model] ingest_rate = 0:"),
        ("run", "[run]\nrepetitions = two\n", "run.repetitions:"),
        ("run", "[run]\nrepetitions = 0\n", "[run] repetitions = 0:"),
        ("run", "[run]\nseed = x\n", "run.seed:"),
    ],
    ids=[
        "n-abc",
        "selectivity-x",
        "n-0",
        "ingest_rate-0",
        "repetitions-two",
        "repetitions-0",
        "seed-x",
    ],
)
def test_bad_config_value_exits_2(tmp_path, capsys, command, section, named):
    # a value that does not parse or is out of range is a config error that
    # names its section and key, like an unknown key
    cfg = write_config(tmp_path, SMALL + "\n" + section)
    assert run_cli([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert named in capsys.readouterr().err


def test_unknown_strategy_exits_2(tmp_path):
    cfg = write_config(tmp_path, SMALL)
    assert run_cli(
        ["run", "--config", cfg, "--strategy", "bogus", "--out", str(tmp_path / "o")]
    ) == 2


def test_unknown_option_exits_2(tmp_path):
    cfg = write_config(tmp_path, "[workload]\ninserts = 10\nturbo = yes\n")
    assert run_cli(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize(
    "section, args, option",
    [
        ("[run]\nwall_clock = true\n", [], "wall_clock"),
        ("", ["--strategy", "sat/leveling/file/movment"], "movment"),
    ],
    ids=["run", "strategy"],
)
def test_unknown_run_or_strategy_option_exits_2(tmp_path, capsys, section, args, option):
    cfg = write_config(tmp_path, SMALL + "\n" + section)
    assert run_cli(["run", "--config", cfg, "--out", str(tmp_path / "o"), *args]) == 2
    assert repr(option) in capsys.readouterr().err


def test_explicit_strategy_section(tmp_path):
    cfg = write_config(tmp_path, SMALL)
    out = str(tmp_path / "out")
    name = "runs:3+sa:0.5/tiering/sorted_run/full"
    assert run_cli(["run", "--config", cfg, "--strategy", name, "--out", out]) == 0
    with open(os.path.join(out, "report.json")) as fh:
        assert json.load(fh)[0]["strategy"] == name


def test_invalid_strategy_section_exits_2(tmp_path):
    cfg = write_config(tmp_path, SMALL)
    # a movement chain must end with a policy that never abstains
    args = ["run", "--config", cfg, "--strategy", "sat/leveling/file/ts"]
    assert run_cli([*args, "--out", str(tmp_path / "o")]) == 2


def test_staleness_without_ttl_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL)
    args = ["run", "--config", cfg, "--strategy", "stale+sat/leveling/file/lo1"]
    assert run_cli([*args, "--out", str(tmp_path / "o")]) == 2
    assert "file staleness needs a ttl" in capsys.readouterr().err


def test_strategy_section_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL + "\n[strategy]\nmovement = entire_level\n")
    assert run_cli(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "[run] strategy = <triggers>/<layout>/<granularity>/<chain>" in err


def test_gen_and_run_from_file(tmp_path):
    cfg = write_config(tmp_path, SMALL)
    out = str(tmp_path / "gen-out")
    assert run_cli(["gen", "--config", cfg, "--out", out]) == 0
    wl_path = os.path.join(out, "workload.txt")
    assert os.path.exists(wl_path)

    cfg2 = write_config(
        tmp_path,
        f"""
[engine]
size_ratio = 4
buffer_bytes = 1024
page_bytes = 256
entry_bytes = 64

[workload]
file = {wl_path}
""",
        name="replay.ini",
    )
    out2 = str(tmp_path / "replay-out")
    assert run_cli(["run", "--config", cfg2, "--strategy", "lo1", "--out", out2]) == 0
    with open(os.path.join(out2, "report.json")) as fh:
        assert json.load(fh)[0]["op_counts"]["I"] == 300


@pytest.mark.parametrize("missing", [True, False])
def test_unreadable_workload_file_exits_2(tmp_path, capsys, missing):
    # a path that does not exist, or a directory, which cannot be read
    wl_path = str(tmp_path / "nowhere.txt") if missing else str(tmp_path)
    cfg = write_config(tmp_path, f"[workload]\nfile = {wl_path}\n")
    args = ["run", "--config", cfg, "--strategy", "lo1", "--out", str(tmp_path / "o")]
    assert run_cli(args) == 2
    err = capsys.readouterr().err
    assert "workload.file" in err and wl_path in err


def test_model_prints_table(tmp_path, capsys):
    assert run_cli(["model", "--n", "10000000"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["metric", "leveling", "tiering"]
    table = {ln.split()[0]: ln.split()[1:] for ln in lines[1:]}
    assert float(table["disk_levels"][0]) == 3.0
    assert float(table["write_amp"][0]) == 30.0
    assert float(table["write_amp"][1]) == 3.0


def test_unknown_model_option_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "[model]\nselectivty = 0.5\n")
    assert run_cli(["model", "--config", cfg]) == 2
    assert "'selectivty'" in capsys.readouterr().err


def test_compare_ranks_strategies(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL)
    reports = []
    for name in ("lo1", "tier"):
        out = str(tmp_path / name)
        assert run_cli(["run", "--config", cfg, "--strategy", name, "--out", out]) == 0
        reports.append(os.path.join(out, "report.json"))
    assert run_cli(["compare", *reports]) == 0
    text = capsys.readouterr().out
    assert "ranking write_amp:" in text
    assert "lo1" in text and "tier" in text


def test_compare_refuses_mismatched_workloads(tmp_path, capsys):
    cfg_a = write_config(tmp_path, SMALL, name="a.ini")
    cfg_b = write_config(tmp_path, SMALL.replace("inserts = 300", "inserts = 301"), name="b.ini")
    reports = []
    for cfg, sub in ((cfg_a, "a"), (cfg_b, "b")):
        out = str(tmp_path / sub)
        assert run_cli(["run", "--config", cfg, "--strategy", "lo1", "--out", out]) == 0
        reports.append(os.path.join(out, "report.json"))
    assert run_cli(["compare", *reports]) == 2


def test_repetitions_emit_multiple_rows(tmp_path):
    cfg = write_config(tmp_path, SMALL + "\n[run]\nrepetitions = 2\n")
    out = str(tmp_path / "out")
    assert run_cli(["run", "--config", cfg, "--strategy", "lo1", "--out", out]) == 0
    with open(os.path.join(out, "metrics.csv")) as fh:
        rows = fh.read().splitlines()[2:]
    assert len(rows) == 2
    seeds = [r.split(",")[1] for r in rows]
    assert seeds == ["7", "8"]


PRESETS_CONFIG = """
[engine]
size_ratio = 10
buffer_bytes = 32768
page_bytes = 2048
entry_bytes = 128
block_cache_bytes = 0
delete_persistence_threshold = 3000

[workload]
inserts = 20000
update_ratio = 0.5
delete_fraction = 0.1
point_lookups = 2000
alpha = 0.5
range_lookups = 50
seed = 7
"""


def test_every_preset_metrics_csv_is_pinned(tmp_path):
    # criterion 12's workload with a delete persistence threshold, so that
    # tsa's TTL trigger fires; a change that sets out to change a paper
    # measure rewrites tests/data/presets.metrics.csv with this run
    cfg = write_config(tmp_path, PRESETS_CONFIG)
    out = str(tmp_path / "out")
    strategies = "full,lo1,lo2,rr,cold,old,tsd,tsa,tier,1lvl"
    assert run_cli(["run", "--config", cfg, "--strategy", strategies, "--out", out]) == 0
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "data", "presets.metrics.csv"), "rb") as fh:
        pinned = fh.read()
    with open(os.path.join(out, "metrics.csv"), "rb") as fh:
        assert fh.read() == pinned


ENSEMBLES_CONFIG = """
[engine]
size_ratio = 3
buffer_bytes = 512
page_bytes = 256
entry_bytes = 64
block_cache_bytes = 4096
delete_persistence_threshold = 400

[workload]
inserts = 300
update_ratio = 0.5
delete_fraction = 0.2
point_lookups = 200
alpha = 0.5
range_lookups = 20
seed = 7
"""


def test_ensemble_subset_metrics_csv_is_pinned(tmp_path):
    # the ensemble grid's tree geometry; a change to any subset ensemble's
    # picks shows here, and a change that sets out to make one rewrites
    # tests/data/ensembles.metrics.csv with this run
    cfg = write_config(tmp_path, ENSEMBLES_CONFIG)
    out = str(tmp_path / "out")
    strategies = ",".join(ensembles.SUBSET)
    assert run_cli(["run", "--config", cfg, "--strategy", strategies, "--out", out]) == 0
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "data", "ensembles.metrics.csv"), "rb") as fh:
        pinned = fh.read()
    with open(os.path.join(out, "metrics.csv"), "rb") as fh:
        assert fh.read() == pinned

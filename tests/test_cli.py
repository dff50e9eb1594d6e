import json
import os

import pytest

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


def test_unknown_strategy_exits_2(tmp_path):
    cfg = write_config(tmp_path, SMALL)
    assert run_cli(
        ["run", "--config", cfg, "--strategy", "bogus", "--out", str(tmp_path / "o")]
    ) == 2


def test_unknown_option_exits_2(tmp_path):
    cfg = write_config(tmp_path, "[workload]\ninserts = 10\nturbo = yes\n")
    assert run_cli(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize(
    "section, option",
    [("[run]\nwall_clock = true\n", "wall_clock"), ("[strategy]\nmovment = lo1\n", "movment")],
    ids=["run", "strategy"],
)
def test_unknown_run_or_strategy_option_exits_2(tmp_path, capsys, section, option):
    cfg = write_config(tmp_path, SMALL + "\n" + section)
    assert run_cli(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert repr(option) in capsys.readouterr().err


def test_explicit_strategy_section(tmp_path):
    cfg = write_config(
        tmp_path,
        SMALL
        + """
[strategy]
name = custom-tier
triggers = sorted_run_count:3, space_amp:0.5
layout = tiering
granularity = sorted_run
movement = entire_level
""",
    )
    out = str(tmp_path / "out")
    assert run_cli(["run", "--config", cfg, "--out", out]) == 0
    with open(os.path.join(out, "report.json")) as fh:
        assert json.load(fh)[0]["strategy"] == "custom-tier"


def test_invalid_strategy_section_exits_2(tmp_path):
    cfg = write_config(
        tmp_path, SMALL + "\n[strategy]\nmovement = most_tombstones\n"
    )
    assert run_cli(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


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


def test_model_prints_table(tmp_path, capsys):
    assert run_cli(["model", "--n", "10000000"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["metric", "leveling", "tiering"]
    table = {ln.split()[0]: ln.split()[1:] for ln in lines[1:]}
    assert float(table["disk_levels"][0]) == 3.0
    assert float(table["write_amp"][0]) == 30.0
    assert float(table["write_amp"][1]) == 3.0


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

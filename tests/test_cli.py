import json
from pathlib import Path

import pytest

from gathersim import cli
from gathersim.cli import load_configuration, main
from gathersim import Configuration, Point
from helpers import mixed_configuration, save_configuration


SQUARE_POINTS = [[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]]


@pytest.fixture
def square_json(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(json.dumps({"points": SQUARE_POINTS}))
    return str(path)


@pytest.fixture
def line3_json(tmp_path):
    path = tmp_path / "line3.json"
    path.write_text(json.dumps({"points": [[0, 0], [1, 0], [2, 0]]}))
    return str(path)


def test_load_json_and_csv(tmp_path):
    json_path = tmp_path / "c.json"
    json_path.write_text('{"points": [[0.5, 1.5], [2, 3]]}')
    config = load_configuration(str(json_path))
    assert config.points == (Point(0.5, 1.5), Point(2, 3))

    csv_path = tmp_path / "c.csv"
    csv_path.write_text("x,y\n0.5,1.5\n2,3\n")
    config = load_configuration(str(csv_path))
    assert config.points == (Point(0.5, 1.5), Point(2, 3))


def test_save_round_trip(tmp_path):
    config = Configuration([(0.1, 1 / 3), (2.25, -7.5)])
    path = tmp_path / "out.json"
    save_configuration(config, str(path))
    again = load_configuration(str(path))
    assert again.points == config.points


def test_classify_square(square_json, capsys):
    assert main(["classify", square_json]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["class"] == "QR"
    assert report["sym"] == 4
    assert report["qreg"] == 4
    assert report["weber"] == pytest.approx([0, 0], abs=1e-9)
    assert len(report["safe_points"]) == 4


def test_classify_line3(line3_json, capsys):
    assert main(["classify", line3_json]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["class"] == "L1W"
    assert report["weber"] == [1, 0]
    assert "qreg" not in report


def test_classify_asym(tmp_path, capsys):
    path = tmp_path / "asym4.json"
    path.write_text(json.dumps({"points": [[0, 0], [3, 0], [0, 4], [1, 1]]}))
    assert main(["classify", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["class"] == "A"
    assert report["elected"] == [1, 1]
    assert report["sym"] == 1


def test_classify_decide(square_json, capsys):
    assert main(["classify", square_json, "--decide"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["decisions"]) == 4
    for entry in report["decisions"]:
        assert entry["rule"] == "WeberMove"
        assert entry["dest"] == pytest.approx([0, 0], abs=1e-9)


def test_classify_parse_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["classify", str(path)]) == 1
    assert main(["classify", str(tmp_path / "missing.json")]) == 1


def test_classify_out_of_scale_is_an_error(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"points": [[0, 0], [1e170, 0], [0, 1e170], [3e170, 2e170]]}))
    assert main(["classify", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: diameter")


def test_simulate_square(square_json, tmp_path, capsys):
    out = tmp_path / "trace.jsonl"
    summary = tmp_path / "summary.json"
    code = main(
        [
            "simulate",
            "--input",
            square_json,
            "--adversary",
            "sync",
            "--delta",
            "2",
            "--seed",
            "7",
            "--out",
            str(out),
            "--summary",
            str(summary),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    s = json.loads(summary.read_text())
    assert s == {"outcome": "Gathered", "rounds": 1, "crashes": 0, "seed": 7}


def test_simulate_bivalent_exit_code(tmp_path):
    path = tmp_path / "bivalent.json"
    path.write_text(json.dumps({"points": [[0, 0], [0, 0], [1, 0], [1, 0]]}))
    assert main(["simulate", "--input", str(path), "--delta", "1"]) == 3


def test_simulate_generated_with_crashes(capsys):
    code = main(["simulate", "--n", "6", "--crashes", "5", "--seed", "1"])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["outcome"] == "Gathered"
    assert summary["crashes"] == 5


def test_simulate_max_rounds_exit_code(square_json, capsys):
    code = main(
        ["simulate", "--input", square_json, "--stop", "min", "--delta", "0.01", "--max-rounds", "5"]
    )
    assert code == 2


def test_argument_errors_exit_1(capsys):
    # argparse exits 2 on its own, which is simulate's round-limit code
    for argv in (
        ["simulate", "--n", "five"],
        ["simulate", "--n", "5", "--adversary", "bogus"],
        ["simulate"],
        ["sweep"],
        ["classify"],
        [],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1, argv
        assert "error: " in capsys.readouterr().err
    for argv in (["--help"], ["simulate", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0


def test_simulate_replay_identical(square_json, tmp_path):
    args = [
        "simulate",
        "--input",
        square_json,
        "--adversary",
        "random",
        "--stop",
        "rand",
        "--delta",
        "0.3",
        "--seed",
        "123",
    ]
    out1 = tmp_path / "t1.jsonl"
    out2 = tmp_path / "t2.jsonl"
    assert main(args + ["--out", str(out1), "--summary", str(tmp_path / "s1.json")]) == 0
    assert main(args + ["--out", str(out2), "--summary", str(tmp_path / "s2.json")]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep(tmp_path, capsys):
    spec = {
        "defaults": {"delta": 0.1, "max_rounds": 10000},
        "grid": {"n": [3, 4, 5], "seed": [1, 2], "adversary": ["sync"], "stop": ["full"]},
    }
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "rows.csv"
    assert main(["sweep", str(spec_path), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "run_id,n,adversary,stop,crashes,seed,outcome,rounds"
    assert len(lines) == 7
    assert all(line.split(",")[6] == "Gathered" for line in lines[1:])
    # parallel execution produces the identical ordered rows
    out2 = tmp_path / "rows2.csv"
    assert main(["sweep", str(spec_path), "--out", str(out2), "--jobs", "2"]) == 0
    assert out2.read_text() == out.read_text()


class _RecordingExecutor:
    """Stands in for ProcessPoolExecutor: records max_workers and maps in
    this process, starting no worker."""

    built: list[int] = []

    def __init__(self, max_workers):
        self.built.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_sweep_jobs_capped_at_runs_and_at_least_one(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _RecordingExecutor)
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps({"defaults": {"delta": 0.1}, "runs": [{"n": 3, "seed": 1}, {"n": 4, "seed": 2}]}))
    serial = tmp_path / "serial.csv"
    assert main(["sweep", str(spec_path), "--out", str(serial)]) == 0
    for jobs, workers in (("2", [2]), ("8", [2])):
        _RecordingExecutor.built = []
        out = tmp_path / f"jobs{jobs}.csv"
        assert main(["sweep", str(spec_path), "--out", str(out), "--jobs", jobs]) == 0
        assert _RecordingExecutor.built == workers
        assert out.read_text() == serial.read_text()
    one_run = tmp_path / "one.json"
    one_run.write_text(json.dumps({"defaults": {"delta": 0.1}, "runs": [{"n": 3, "seed": 1}]}))
    _RecordingExecutor.built = []
    assert main(["sweep", str(one_run), "--out", str(tmp_path / "one.csv"), "--jobs", "8"]) == 0
    assert _RecordingExecutor.built == []
    capsys.readouterr()
    for jobs in ("0", "-3"):
        out = tmp_path / "refused.csv"
        assert main(["sweep", str(spec_path), "--out", str(out), "--jobs", jobs]) == 1
        assert capsys.readouterr().err == f"error: --jobs must be at least 1, not {jobs}\n"
        assert _RecordingExecutor.built == [] and not out.exists()


def test_sweep_empty_spec(tmp_path):
    spec_path = tmp_path / "empty.json"
    spec_path.write_text("{}")
    assert main(["sweep", str(spec_path)]) == 1


CRASH_REFUSAL = "error: at least one robot must stay correct\n"


def test_simulate_rejects_crashing_every_robot(tmp_path, capsys):
    assert main(["simulate", "--n", "5", "--crashes", "5", "--seed", "1"]) == 1
    assert capsys.readouterr().err == CRASH_REFUSAL
    schedule = tmp_path / "crash_all.json"
    schedule.write_text(json.dumps([[0, i] for i in range(5)]))
    assert main(["simulate", "--n", "5", "--crash-schedule", str(schedule), "--seed", "1"]) == 1
    assert capsys.readouterr().err == CRASH_REFUSAL


def test_simulate_rejects_negative_crashes(capsys):
    # random.sample used to refuse it without naming the setting
    assert main(["simulate", "--n", "5", "--crashes", "-1", "--seed", "1"]) == 1
    assert capsys.readouterr().err == "error: crashes cannot be negative: -1\n"


def test_sweep_rejects_crashing_every_robot_before_any_run(tmp_path, capsys, monkeypatch):
    import gathersim.cli as cli

    started = []
    monkeypatch.setattr(cli, "run", lambda *args: started.append(args))
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps({"runs": [{"n": 5, "crashes": 2}, {"n": 5, "crashes": 5}]}))
    out = tmp_path / "rows.csv"
    assert main(["sweep", str(spec_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {spec_path}: run 1: {CRASH_REFUSAL[len('error: '):]}"
    assert not started and not out.exists()


# (command, file name, file text, what the error must name)
MALFORMED = [
    ("classify", "one_column.csv", "x,y\n0,0\n1\n2,2\n", "point 1"),
    ("classify", "flat.json", '{"points": [1, 2, 3]}', "point 0"),
    ("classify", "listed.json", "[[0, 0], [1, 0], [0, 1]]", '{"points"'),
    ("crash-schedule", "schedule.json", "[5]", "crash 0"),
    # a float or a bool used to be truncated: robot 1 crashed in round 2, then 1
    ("crash-schedule", "float_round.json", "[[0, 2], [2.9, 1]]", "crash 1 is not a pair of ints"),
    ("crash-schedule", "bool_round.json", "[[true, 1]]", "crash 0 is not a pair of ints"),
    ("sweep", "runs_of_ints.json", '{"runs": [5]}', "runs[0]"),
    ("sweep", "runs_object.json", '{"runs": {"n": 4}}', "runs as a list"),
    ("sweep", "listed_n.json", '{"runs": [{"n": [5]}]}', "runs[0]: n cannot be [5]"),
    ("sweep", "grid_scalar.json", '{"grid": {"n": 4}}', "grid n"),
    ("sweep", "seed_string.json", '{"defaults": {"seed": "3"}, "runs": [{}]}', "defaults: seed"),
    ("sweep", "misnamed.json", '{"default": {"n": 4}, "runs": [{}]}', '"defaults", "runs" and "grid" only'),
    ("sweep", "negative_crashes.json", '{"runs": [{"n": 4}, {"n": 4, "crashes": -1}]}', "run 1: crashes cannot be negative"),
]


@pytest.mark.parametrize("command, name, text, entry", MALFORMED, ids=[case[1] for case in MALFORMED])
def test_malformed_input_is_an_error_naming_the_file_and_entry(tmp_path, capsys, command, name, text, entry):
    path = tmp_path / name
    path.write_text(text)
    argv = {
        "classify": ["classify", str(path)],
        "crash-schedule": ["simulate", "--n", "5", "--crash-schedule", str(path)],
        "sweep": ["sweep", str(path), "--out", str(tmp_path / "rows.csv")],
    }[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and entry in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "spec",
    [
        {"runs": [{"n": 4}, {"n": 4, "adversery": "greedy"}]},
        {"defaults": {"adversery": "greedy"}, "runs": [{"n": 4}]},
        {"grid": {"n": [4, 5], "adversery": ["greedy"]}},
        {"grid": {"n": [4], "adversery": []}, "runs": [{"n": 4}]},
    ],
)
def test_sweep_refuses_unknown_settings_before_any_run(tmp_path, capsys, monkeypatch, spec):
    started = []
    monkeypatch.setattr(cli, "run", lambda *args: started.append(args))
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "rows.csv"
    assert main(["sweep", str(spec_path), "--out", str(out)]) == 1
    assert "unknown setting 'adversery'" in capsys.readouterr().err
    assert not started and not out.exists()


def test_sweep_defaults_reach_listed_runs(tmp_path):
    # listed runs used to ignore the spec's defaults: this one gathered in 62 rounds
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps({"defaults": {"max_rounds": 2}, "runs": [{"n": 7, "seed": 3, "stop": "min"}]}))
    out = tmp_path / "rows.csv"
    assert main(["sweep", str(spec_path), "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1] == "0,7,sync,min,0,3,MaxRoundsExceeded,2"


def test_crash_schedules_agree_across_commands(tmp_path, capsys):
    # rounds recorded before simulate and sweep shared the schedule helper
    spec = {
        "defaults": {"delta": 0.05, "max_rounds": 10000, "adversary": "random", "stop": "min", "seed": 4},
        "grid": {"n": [5, 7], "crashes": [2, 4]},
    }
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "rows.csv"
    assert main(["sweep", str(spec_path), "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    assert [(r[1], r[4], r[6], r[7]) for r in rows] == [
        ("5", "2", "Gathered", "36"),
        ("7", "2", "Gathered", "38"),
        ("5", "4", "Gathered", "31"),
        ("7", "4", "Gathered", "45"),
    ]
    args = ["--seed", "4", "--delta", "0.05", "--adversary", "random", "--stop", "min", "--max-rounds", "10000"]
    assert main(["simulate", "--n", "7", "--crashes", "4", *args]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert (summary["crashes"], summary["rounds"]) == (4, 45)


def test_classify_agrees_with_library(tmp_path, capsys):
    import random

    from gathersim import classify

    rng = random.Random(55)
    for k in range(20):
        config = mixed_configuration(rng, rng.randint(1, 9))
        path = tmp_path / f"cfg{k}.json"
        save_configuration(config, str(path))
        assert main(["classify", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["class"] == classify(config).tag


def test_classify_knife_edge_pentagon_quasi_regular(capsys):
    # classify used to exit 1 here, with "classified asymmetric but sym=4"
    path = Path(__file__).parent / "data" / "knife_edge_pentagon.json"
    assert main(["classify", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["class"], report["sym"], report["qreg"]) == ("QR", 1, 5)


def test_gather_log_env(square_json, capsys, monkeypatch):
    monkeypatch.setenv("GATHER_LOG", "debug")
    assert main(["classify", square_json]) == 0
    json.loads(capsys.readouterr().out)


def test_default_max_rounds_and_delta(tmp_path, monkeypatch, capsys):
    """simulate runs at most 100,000 rounds and a sweep entry 10,000; both
    default delta to max(diameter, 1e-6) / 100."""
    seen = []

    def recording(config, adv, params):
        seen.append((config.diameter, params))
        return real_run(config, adv, params)

    real_run = cli.run
    monkeypatch.setattr(cli, "run", recording)
    tiny = tmp_path / "tiny.json"
    tiny.write_text(json.dumps({"points": [[0, 0], [3e-7, 0], [0, 4e-7]]}))
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps({"runs": [{"n": 5, "seed": 3}]}))
    assert main(["simulate", "--n", "5", "--seed", "3"]) == 0
    assert main(["simulate", "--input", str(tiny)]) == 0
    assert main(["sweep", str(spec)]) == 0
    capsys.readouterr()
    (generated, sim), (small, sim_tiny), (swept, swp) = seen
    assert sim.max_rounds == sim_tiny.max_rounds == 100_000 and swp.max_rounds == 10_000
    assert sim.delta == generated / 100.0 and swp.delta == swept / 100.0 and generated == swept
    assert small == 5e-7 and sim_tiny.delta == 1e-6 / 100.0

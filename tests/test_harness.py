import dataclasses
import json
import math
import re
import shlex
from pathlib import Path

import click
import numpy as np
import pytest

from satlab import cli, harness, symcore
from satlab.cli import main
from satlab.harness import (
    COMMON_FIELDS,
    EXPERIMENT_KINDS,
    FORMATS,
    KINDS,
    ConfigError,
    ExperimentConfig,
    ResultTable,
    run_betas_experiment,
    run_compare_experiment,
    run_conditions_experiment,
    run_cutoff_experiment,
    run_experiment,
    run_noise_experiment,
    run_saturation_experiment,
)


def read_rows(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("#")
    metadata = json.loads(lines[0][1:])
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return metadata, header, rows


# ------------------------------------------------------------------- config

def test_config_defaults_per_kind():
    assert ExperimentConfig(kind="saturation").n_min == 3
    assert ExperimentConfig(kind="noise").depth == 4
    assert len(ExperimentConfig(kind="noise").p_grid) == 21
    assert ExperimentConfig(kind="cutoff").fractions[-1] == 1.0
    assert ExperimentConfig(kind="conditions").n == 10


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="unknown")
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="noise", trials=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="cutoff", fractions=(0.0, 0.5))
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="saturation", n_min=5, n_max=3)


def test_metadata_excludes_runtime_fields():
    meta = ExperimentConfig(kind="compare", workers=4, out="x.csv").metadata()
    assert "workers" not in meta and "out" not in meta
    assert meta["version"]


# ------------------------------------------------------------- result table

def test_table_schema_validation():
    table = ResultTable(["a", "b"], rows=[[1, 2.0]])
    table.validate()
    table.rows.append([1])
    with pytest.raises(ValueError):
        table.validate()
    table.rows[-1] = [1, float("nan")]
    with pytest.raises(ValueError):
        table.validate()


def test_table_validation_covers_metadata():
    table = ResultTable(["a"], rows=[[1.0]], metadata={"conditions": {"bound": [math.inf]}})
    for write in (table.validate, table.to_csv, table.to_json):
        with pytest.raises(ValueError, match="metadata"):
            write()


def test_table_csv_roundtrip_precision(tmp_path):
    value = 0.1234567890123456789
    table = ResultTable(["x"], rows=[[value]], metadata={"seed": 1})
    path = tmp_path / "t.csv"
    table.write(str(path))
    _, header, rows = read_rows(str(path))
    assert header == ["x"]
    assert float(rows[0][0]) == value


# -------------------------------------------------------------- experiments

def test_saturation_rows_detect_knee():
    config = ExperimentConfig(kind="saturation", n_min=3, n_max=5, seed=1)
    table = run_saturation_experiment(config)
    for row in table.rows:
        n, depth, overlap, improvement, p_star = row
        assert p_star == n
        assert 0.0 < overlap < 1.0
    assert len(table.rows) == sum(n + 2 for n in (3, 4, 5))


def test_saturation_n1_has_empty_p_star():
    config = ExperimentConfig(kind="saturation", n_min=1, n_max=1)
    table = run_saturation_experiment(config)
    assert all(row[4] is None for row in table.rows)


def test_compare_profiles():
    config = ExperimentConfig(kind="compare", n=3, depth=4, seed=2)
    table = run_compare_experiment(config)
    depths = [row[0] for row in table.rows]
    assert depths == [1, 2, 3, 4]
    lw = np.array([row[1] for row in table.rows])
    gl = np.array([row[2] for row in table.rows])
    assert gl[-1] >= lw[-1] - 1e-6
    assert np.any(lw > gl + 1e-4)  # greedy leads at some intermediate depth


def test_compare_depth_one_ties():
    config = ExperimentConfig(kind="compare", n=3, depth=1, seed=2)
    table = run_compare_experiment(config)
    assert abs(table.rows[0][1] - table.rows[0][2]) < 1e-6


def test_cutoff_table():
    config = ExperimentConfig(
        kind="cutoff", n=3, depth=4, trials=8, fractions=(0.8, 1.0), seed=3
    )
    table = run_cutoff_experiment(config)
    assert [row[0] for row in table.rows] == [0.8, 1.0]
    f1 = table.rows[1]
    assert f1[1] == f1[2] == f1[3] == f1[4]  # fraction 1 ties its baseline
    assert "baseline_saturated_overlap" in table.metadata


def test_noise_table_p_zero_ties_noiseless():
    config = ExperimentConfig(kind="noise", n=3, trials=4, p_grid=(0.0, 0.2), seed=4)
    table = run_noise_experiment(config)
    row = table.rows[0]
    assert abs(row[1] - row[4]) < 1e-8
    assert row[5] is None


def test_noise_bitflip_contrast_column():
    config = ExperimentConfig(
        kind="noise", n=3, trials=10, p_grid=(0.15,), seed=4, bitflip_contrast=True
    )
    table = run_noise_experiment(config)
    row = table.rows[0]
    assert row[5] is not None and math.isfinite(row[5])
    # reported, not hard-asserted: phase kicks should help training where
    # bit flips scramble it
    print(f"phase top10 best {row[1]:.4f} vs bitflip top10 best {row[5]:.4f}")


def test_noise_trial_keys_are_unique_for_any_grid_length(monkeypatch):
    # the trials are captured, not run; the bit-flip contrast's grid indices
    # start at 1000 up to a 1,000-point grid, and past every phase trial's
    # on a longer one
    def capture(worker, args, workers):
        for _, _, _, noise, seed, grid_index, trial_index in args:
            keys[noise.kind].append((seed, grid_index, trial_index))
        return [0.0] * len(args)

    monkeypatch.setattr(harness, "_run_trials", capture)
    for points in (3, 1000, 1001):
        keys = {"phase": [], "bitflip": []}
        grid = tuple(np.linspace(0.0, 1.0, points))
        config = ExperimentConfig(kind="noise", n=1, depth=1, trials=2, p_grid=grid, bitflip_contrast=True)
        run_noise_experiment(config)
        phase, flip = keys["phase"], keys["bitflip"]
        assert len(phase) == len(flip) == 2 * points
        assert len(set(phase + flip)) == 4 * points, points
        if points <= 1000:
            assert [g for _, g, _ in flip] == [1000 + gi for gi in range(points) for _ in range(2)]


def test_each_run_makes_one_run_trials_call(monkeypatch):
    # the trials are counted, not run: the fraction-1 cell runs none, and the
    # bit-flip contrast's trials join the phase trials' call
    def count(worker, args, workers):
        calls.append(len(args))
        return [0.5] * len(args)

    monkeypatch.setattr(harness, "_run_trials", count)
    calls = []
    run_cutoff_experiment(ExperimentConfig(kind="cutoff", n=2, trials=3, fractions=(0.6, 0.9, 1.0)))
    assert calls == [2 * 3]
    calls = []
    run_noise_experiment(
        ExperimentConfig(kind="noise", n=2, trials=3, p_grid=(0.0, 0.2, 0.4), bitflip_contrast=True)
    )
    assert calls == [2 * 3 * 3]


def test_top_fraction_uses_ceil():
    from satlab.harness import _top_fraction

    finals = list(range(15))  # ceil(0.1 * 15) = 2 -> best two trials
    best, mean, worst = _top_fraction(finals)
    assert (best, mean, worst) == (14.0, 13.5, 13.0)


def test_betas_table():
    config = ExperimentConfig(kind="betas", n_min=4, n_max=5, seed=5)
    table = run_betas_experiment(config)
    stats = table.metadata["schedule_stats"]
    assert set(stats) == {"4", "5"}
    for summary in stats.values():
        assert summary["beta_final"] < 1e-2
        assert summary["decrease_violations"] == 0
    assert len(table.rows) == 5 + 6


def test_conditions_table():
    config = ExperimentConfig(kind="conditions", seed=6)  # default n=10, depth 10
    table = run_conditions_experiment(config)
    assert len(table.rows) == 11
    initial = {row[0]: row[1] for row in table.rows}
    for k in range(11):
        assert initial[k] == pytest.approx(math.sqrt(math.comb(10, k) / 2.0**10), abs=1e-12)
    trained = {row[0]: row[2] for row in table.rows}
    assert trained[0] > initial[0]
    meta = table.metadata["conditions"]
    assert meta["a1_magnitude"] < 2e-2
    assert meta["a2_magnitude"] <= meta["a2_bound"] + 1e-9


# ------------------------------------------------------------ reproducibility

def test_rerun_is_byte_identical(tmp_path):
    config = dict(kind="cutoff", n=3, depth=4, trials=6, fractions=(0.9,), seed=7)
    a = run_experiment(ExperimentConfig(out=str(tmp_path / "a.csv"), **config))
    b = run_experiment(ExperimentConfig(out=str(tmp_path / "b.csv"), **config))
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_worker_count_does_not_change_output(tmp_path, monkeypatch):
    # three processes on any machine: the pool's contiguous chunks of 4 trials
    # then cross from one cell's trials into the next in the two-cell cutoff
    # and the four-cell noise runs
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 3)
    cases = [
        dict(kind="cutoff", n=3, depth=4, trials=6, fractions=(0.85,), seed=8),
        dict(kind="cutoff", n=3, depth=4, trials=5, fractions=(0.7, 0.85), seed=8),
        dict(kind="noise", n=3, trials=3, p_grid=(0.1, 0.4), noise_granularity="single_qubit",
             bitflip_contrast=True, seed=8),
    ]
    for i, base in enumerate(cases):
        serial = ExperimentConfig(out=str(tmp_path / f"serial{i}.csv"), workers=1, **base)
        parallel = ExperimentConfig(out=str(tmp_path / f"parallel{i}.csv"), workers=3, **base)
        run_experiment(serial)
        run_experiment(parallel)
        assert (tmp_path / f"serial{i}.csv").read_bytes() == (tmp_path / f"parallel{i}.csv").read_bytes()


def test_json_output_deterministic(tmp_path):
    config = dict(kind="betas", n_min=3, n_max=3, fmt="json", seed=9)
    a = run_experiment(ExperimentConfig(out=str(tmp_path / "a.json"), **config))
    b = run_experiment(ExperimentConfig(out=str(tmp_path / "b.json"), **config))
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    parsed = json.loads((tmp_path / "a.json").read_text())
    assert parsed["columns"] == ["n", "depth", "beta", "beta_effective"]


def strict_json(text):
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=refuse)


# a small run of each kind at n = 1
N1_CONFIGS = {
    "saturation": dict(n_min=1, n_max=1),
    "compare": dict(n=1, depth=2),
    "cutoff": dict(n=1, trials=3, fractions=(0.5, 1.0)),
    "noise": dict(n=1, trials=3, p_grid=(0.0, 0.5), bitflip_contrast=True),
    "betas": dict(n_min=1, n_max=1),
    "conditions": dict(n=1),
}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
def test_n1_writes_strict_json(tmp_path, kind, fmt):
    path = tmp_path / f"out.{fmt}"
    run_experiment(ExperimentConfig(kind=kind, fmt=fmt, out=str(path), **N1_CONFIGS[kind]))
    text = path.read_text()
    strict_json(text.splitlines()[0][1:] if fmt == "csv" else text)


def test_conditions_n1_writes_null_bound(tmp_path):
    path = tmp_path / "c.json"
    run_experiment(ExperimentConfig(kind="conditions", n=1, fmt="json", out=str(path)))
    assert strict_json(path.read_text())["metadata"]["conditions"]["a2_bound"] is None


# ---------------------------------------------------------------------- cli

def test_cli_saturation_writes_file(tmp_path):
    out = tmp_path / "fig1.csv"
    code = main(["saturation", "--n-min", "3", "--n-max", "4", "--seed", "7", "--out", str(out)])
    assert code == 0
    metadata, header, rows = read_rows(str(out))
    assert header == ["n", "depth", "overlap", "improvement", "p_star"]
    assert metadata["seed"] == 7
    assert rows[0][4] == "3"


def test_cli_config_file_merge(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_min": 4, "n_max": 4, "seed": 3}))
    out = tmp_path / "out.csv"
    code = main(["saturation", "--config", str(cfg), "--seed", "11", "--out", str(out)])
    assert code == 0
    metadata, _, _ = read_rows(str(out))
    assert metadata["n_min"] == 4
    assert metadata["seed"] == 11  # explicit flag overrides the file


def test_cli_exit_codes(tmp_path):
    assert main(["cutoff", "--n", "3", "--trials", "0"]) == 1
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    assert main(["betas", "--config", str(cfg)]) == 1
    cfg.write_text(json.dumps({"no_such_field": 1}))
    assert main(["betas", "--config", str(cfg)]) == 1
    cfg.write_text(json.dumps([1]))  # JSON, but not an object
    assert main(["betas", "--config", str(cfg)]) == 1
    assert main(["compare", "--n", "abc"]) == 1  # refused by the option's type


def test_cli_noise_runs_past_the_dense_cap(tmp_path):
    # the noisy trainer carries a product sum, so noise takes n beyond the
    # 2^n oracle's cap of 24 and reads as one row of finite values
    out = tmp_path / "noise.csv"
    assert main(["noise", "--n", "25", "--trials", "1", "--p-grid", "0.1", "--out", str(out)]) == 0
    _, header, rows = read_rows(out)
    assert len(rows) == 1
    row = dict(zip(header, rows[0]))
    assert row.pop("bitflip_top10_best") == ""
    assert all(math.isfinite(float(v)) for v in row.values())


@pytest.fixture
def no_compute(monkeypatch):
    # bad input must be refused before any experiment runs
    monkeypatch.setattr(cli, "run_experiment", lambda config: pytest.fail("experiment ran"))


@pytest.mark.parametrize("kind", ["cutoff", "noise"])
def test_cli_rejects_negative_seed(kind, no_compute):
    assert main([kind, "--seed=-1"]) == 1


def test_cli_rejects_missing_output_directory(tmp_path, no_compute):
    out = tmp_path / "missing" / "out.csv"
    assert main(["saturation", "--out", str(out)]) == 1


@pytest.mark.parametrize("eps", ["nan", "inf", "-1e-4"])
def test_cli_rejects_bad_eps_sat(eps, no_compute):
    assert main(["saturation", f"--eps-sat={eps}"]) == 1


@pytest.mark.parametrize(
    "kind, values",
    [
        ("compare", {"n": 3.5}),
        ("saturation", {"n_max": 4.0}),
        ("noise", {"workers": 2.5}),
        ("conditions", {"n": True}),
        ("cutoff", {"trials": "5"}),
        ("noise", {"noise_stddev": True}),
        ("noise", {"bitflip_contrast": "no"}),
        ("saturation", {"eps_sat": "1e-4"}),
        ("noise", {"p_grid": [0.1, True]}),
        ("cutoff", {"fractions": ["0.8"]}),
        ("noise", {"noise_granularity": "qubit", "trials": 1, "p_grid": [0.1]}),
        ("saturation", {"eps_sat": 10**400}),
        ("saturation", {"out": 5}),
    ],
    ids=[
        "n-float", "n_max-float", "workers-float", "n-bool", "trials-string",
        "noise_stddev-bool", "bitflip_contrast-string", "eps_sat-string",
        "p_grid-bool", "fractions-string", "noise_granularity-unknown",
        "eps_sat-past-float-range", "out-int",
    ],
)
def test_cli_rejects_non_integer_config_values(tmp_path, kind, values, no_compute, capsys):
    # mistyped integer, number, flag and choice fields are all refused
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(values))
    assert main([kind, "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize(
    "args", [["noise", "--p-grid", "0.1,abc"], ["cutoff", "--fractions", "0.8,"]]
)
def test_cli_rejects_bad_number_lists(args, no_compute, capsys):
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


def test_cli_rejects_directory_out_in_config(tmp_path, no_compute, capsys):
    # the config checks out, whether it comes from --out or a config file
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"out": str(tmp_path), "n_min": 3, "n_max": 3}))
    assert main(["saturation", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "args",
    [
        # 2^-1023, the overlap of |+>^n, is not a normal float64
        ["saturation", "--n-min", "1023", "--n-max", "1023"],
        ["saturation", "--n-max", str(symcore.MAX_SYMMETRIC_QUBITS + 1)],
        ["compare", "--n", str(symcore.MAX_SYMMETRIC_QUBITS + 1)],
        ["noise", "--n", str(symcore.MAX_SYMMETRIC_QUBITS + 1)],
    ],
    ids=["saturation-1023", "n_max-past-ceiling", "n-past-ceiling", "noise-n-past-ceiling"],
)
def test_cli_rejects_n_past_validity_ceiling(args, no_compute, capsys):
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


def test_config_accepts_n_at_validity_ceiling():
    ceiling = symcore.MAX_SYMMETRIC_QUBITS
    assert ExperimentConfig(kind="conditions", n=ceiling).n == ceiling
    assert ExperimentConfig(kind="saturation", n_min=ceiling, n_max=ceiling).n_max == ceiling


# --------------------------------------------- one declaration per experiment

def test_cli_refuses_config_fields_the_kind_does_not_read(tmp_path, no_compute, capsys):
    # a saturation run used to accept these and echo them into its metadata
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"noise_stddev": -1, "p_grid": [7], "trials": 5}))
    assert main(["saturation", "--n-min", "3", "--n-max", "3", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


_UNREAD = [
    (kind, f.name)
    for kind in KINDS
    for f in dataclasses.fields(ExperimentConfig)
    if f.name not in ("kind", *COMMON_FIELDS, *KINDS[kind])
]


@pytest.mark.parametrize("kind, name", _UNREAD, ids=[f"{kind}-{name}" for kind, name in _UNREAD])
def test_kind_refuses_fields_it_does_not_read(tmp_path, kind, name, no_compute, capsys):
    # a value that a kind reading the field accepts, so only the refusal can fail it
    default = next(reads[name] for reads in KINDS.values() if name in reads)
    value = 3 if callable(default) else default
    with pytest.raises(ConfigError, match=f"does not read {name}"):
        ExperimentConfig(kind=kind, **{name: value})
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({name: value}))
    assert main([kind, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


def test_cli_refuses_config_file_of_another_kind(tmp_path, no_compute, capsys):
    # a file naming another experiment used to have its kind ignored in silence
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"kind": "noise", "n_min": 3, "n_max": 3}))
    assert main(["saturation", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
def test_subcommand_options_are_the_kinds_fields(kind):
    names = {param.name for param in cli.cli.commands[kind].params}
    assert names == {*KINDS[kind], *COMMON_FIELDS, "config"}


@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
def test_help_states_the_config_defaults(kind):
    command = cli.cli.commands[kind]
    ctx = click.Context(command)
    config = ExperimentConfig(kind=kind)
    stated = set()
    for param in command.params:
        match = re.search(r"\[default: ([^;\]]+)", param.get_help_record(ctx)[1])
        if match is None:
            continue
        stated.add(param.name)
        default = KINDS[kind].get(param.name)
        if callable(default):
            assert match.group(1) == f"({default})"
        else:
            assert param.process_value(ctx, match.group(1)) == getattr(config, param.name)
    # all but the output path, the contrast flag (off) and the config file
    assert stated == {*KINDS[kind], *COMMON_FIELDS} - {"out", "bitflip_contrast"}


@pytest.mark.parametrize("kind, shown", [("cutoff", "(2n)"), ("noise", "(n)"), ("conditions", "(n)")])
def test_help_states_depth_default_per_n(kind, shown, capsys):
    assert main([kind, "--help"]) == 0
    assert f"[default: {shown}]" in capsys.readouterr().out


def test_metadata_echoes_only_the_fields_the_kind_reads():
    for kind in KINDS:
        meta = ExperimentConfig(kind=kind, workers=2).metadata()
        assert set(meta) == {"kind", "seed", "fmt", "version", *KINDS[kind]}


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size and maps in process."""

    def __init__(self, sizes, max_workers):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, args, chunksize=1):
        return map(fn, args)


@pytest.mark.parametrize("cpus, sizes", [(64, [4]), (3, [3]), (None, [])])
def test_worker_pool_is_bounded_by_trials_and_cpus(tmp_path, monkeypatch, cpus, sizes):
    # never start a real pool at a huge count: the stand-in only records it
    started = []
    monkeypatch.setattr(
        harness, "ProcessPoolExecutor", lambda max_workers: _RecordingPool(started, max_workers)
    )
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
    base = dict(kind="cutoff", n=3, depth=2, trials=4, fractions=(0.9,), seed=2)
    run_experiment(ExperimentConfig(out=str(tmp_path / "wide.csv"), workers=10**6, **base))
    assert started == sizes
    run_experiment(ExperimentConfig(out=str(tmp_path / "serial.csv"), **base))
    assert (tmp_path / "wide.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()


def test_one_pool_serves_a_whole_contrast_run(tmp_path, monkeypatch):
    # the stand-in maps in process; a pool per grid point and noise kind
    # started six here
    started = []
    monkeypatch.setattr(
        harness, "ProcessPoolExecutor", lambda max_workers: _RecordingPool(started, max_workers)
    )
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    argv = ["noise", "--n", "2", "--trials", "2", "--p-grid", "0.0,0.2,0.4", "--bitflip-contrast"]
    assert main([*argv, "--workers", "2", "--out", str(tmp_path / "pool.csv")]) == 0
    assert started == [2]
    assert main([*argv, "--out", str(tmp_path / "serial.csv")]) == 0
    assert (tmp_path / "pool.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()


_README_COMMANDS = [
    line
    for line in (Path(__file__).resolve().parent.parent / "README.md").read_text().splitlines()
    if line.startswith("satlab ")
]


def test_readme_library_example_runs(capsys):
    # the README's library example as a reader runs it: greedy n = 6
    # saturates at depth 6, as its comment says, and the noisy overlap is a
    # probability
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    *_, p_star, noisy = capsys.readouterr().out.splitlines()
    assert p_star == "6"
    assert 0.0 < float(noisy) <= 1.0


def test_readme_shows_every_kind():
    assert {shlex.split(line)[1] for line in _README_COMMANDS} == set(EXPERIMENT_KINDS)


@pytest.mark.parametrize("line", _README_COMMANDS)
def test_readme_cli_line_runs(line, tmp_path, monkeypatch):
    # the documented commands parse and configure; the stub stands in for the compute
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(
        cli, "run_experiment", lambda config: ResultTable([], metadata=config.metadata())
    )
    assert main(shlex.split(line)[1:]) == 0

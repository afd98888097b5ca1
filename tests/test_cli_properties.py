"""Property tests: no config file makes the CLI fail with a traceback, and an
accepted one echoes exactly the fields its experiment reads."""

import dataclasses
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from satlab import cli
from satlab.cli import main
from satlab.harness import EXPERIMENT_KINDS, KINDS, ExperimentConfig, ResultTable


_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 70),
    st.integers(),
    st.integers(10**300, 10**400),  # past the float range
    st.floats(-0.5, 1.5),
    st.floats(),
    st.sampled_from(["", "csv", "json", "layer", "single_qubit", "1"]),
)
_VALUES = st.one_of(
    _SCALARS,
    st.lists(_SCALARS, max_size=3),
    st.dictionaries(st.text(max_size=2), _SCALARS, max_size=1),
)
_FIELDS = [f.name for f in dataclasses.fields(ExperimentConfig) if f.name not in ("kind", "out")]


_SETTINGS = settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _write_empty(config):
    # stands in for the experiment: writes an empty table with the config's metadata
    table = ResultTable([], metadata=config.metadata())
    if config.out:
        table.write(config.out, config.fmt)
    return table


def _run_config_file(tmp_path, monkeypatch, kind, values, out):
    monkeypatch.setattr(cli, "run_experiment", _write_empty)
    values["out"] = {
        None: None,
        "tmp dir": str(tmp_path),
        "file": str(tmp_path / "out.csv"),
        "file in missing dir": str(tmp_path / "missing" / "out.csv"),
    }[out]
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(values))
    code = main([kind, "--config", str(cfg)])
    assert code in (0, 1)
    if code == 0 and out == "file":
        # the metadata echoes the kind, seed, format and the fields the kind reads
        text = (tmp_path / "out.csv").read_text()
        meta = json.loads(text[1:].split("\n", 1)[0]) if text[0] == "#" else json.loads(text)["metadata"]
        assert set(meta) == {"kind", "seed", "fmt", "version", *KINDS[kind]}


@_SETTINGS
@given(
    kind=st.sampled_from(EXPERIMENT_KINDS),
    values=st.dictionaries(st.sampled_from(_FIELDS), _VALUES),
    out=st.sampled_from([None, "tmp dir", "file", "file in missing dir"]),
)
def test_cli_config_file_exits_0_or_1(tmp_path, monkeypatch, kind, values, out):
    # whatever a config file holds, the CLI refuses it with exit 1 or accepts it
    _run_config_file(tmp_path, monkeypatch, kind, values, out)


@_SETTINGS
@given(kind=st.sampled_from(EXPERIMENT_KINDS), data=st.data())
def test_cli_metadata_echoes_the_fields_the_kind_reads(tmp_path, monkeypatch, kind, data):
    # only fields the kind takes, each with a random or a default value, so
    # that many configs are accepted and their metadata is checked
    defaults = ExperimentConfig(kind=kind)
    names = [*KINDS[kind], "seed", "fmt", "workers"]
    values = {}
    for name in data.draw(st.lists(st.sampled_from(names), unique=True, max_size=4), label="fields"):
        keep_default = data.draw(st.booleans(), label=f"{name} default")
        values[name] = getattr(defaults, name) if keep_default else data.draw(_VALUES, label=name)
    _run_config_file(tmp_path, monkeypatch, kind, values, "file")

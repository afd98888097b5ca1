"""Property test: no config file makes the CLI fail with a traceback."""

import dataclasses
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from satlab import cli
from satlab.cli import main
from satlab.harness import EXPERIMENT_KINDS, ExperimentConfig, ResultTable


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


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    kind=st.sampled_from(EXPERIMENT_KINDS),
    values=st.dictionaries(st.sampled_from(_FIELDS), _VALUES),
    out=st.sampled_from([None, "tmp dir", "file", "file in missing dir"]),
)
def test_cli_config_file_exits_0_or_1(tmp_path, monkeypatch, kind, values, out):
    # whatever a config file holds, the CLI refuses it with exit 1 or accepts it;
    # the stub stands in for the experiment and writes an empty table
    def write_empty(config):
        table = ResultTable([], metadata=config.metadata())
        if config.out:
            table.write(config.out, config.fmt)
        return table

    monkeypatch.setattr(cli, "run_experiment", write_empty)
    values["out"] = {
        None: None,
        "tmp dir": str(tmp_path),
        "file": str(tmp_path / "out.csv"),
        "file in missing dir": str(tmp_path / "missing" / "out.csv"),
    }[out]
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(values))
    assert main([kind, "--config", str(cfg)]) in (0, 1)

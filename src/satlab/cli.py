"""Command line interface: one subcommand per experiment kind, built from harness.KINDS and
the ExperimentConfig field declarations."""

from __future__ import annotations

import dataclasses
import inspect
import json
import sys

import click

from .harness import (
    COMMON_FIELDS, KINDS, RUNNERS, ConfigError, ExperimentConfig, PerQubit, run_experiment,
)

_FIELDS = {f.name: f for f in dataclasses.fields(ExperimentConfig)}


def _merge_config(ctx: click.Context, kind: str, flags: dict) -> ExperimentConfig:
    """Defaults < values from --config file < explicitly passed flags."""
    values = {}
    config_path = flags.pop("config", None)
    if config_path:
        try:
            with open(config_path) as fh:
                file_values = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {config_path}: {exc}")
        if not isinstance(file_values, dict):
            raise ConfigError("config file must hold a JSON object")
        values.update(file_values)
    for name, value in flags.items():
        source = ctx.get_parameter_source(name)
        if source is not None and source.name != "DEFAULT":
            values[name] = value
    if values.pop("kind", kind) != kind:
        raise ConfigError(f"config file is for another experiment than {kind}")
    try:
        return ExperimentConfig(kind=kind, **values)
    except TypeError as exc:
        raise ConfigError(str(exc))


def _number_list(ctx: click.Context, param: click.Parameter, text: str):
    """Parse a comma-separated option value into a tuple of floats."""
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise ConfigError(f"{param.opts[0]} takes comma-separated numbers, got {text!r}") from None


def _option(name: str, default) -> click.Option:
    """The option of one ExperimentConfig field, from its declaration and default."""
    meta = _FIELDS[name].metadata
    text = meta["help"]
    decls = ["--format" if name == "fmt" else "--" + name.replace("_", "-"), name]
    if isinstance(default, bool):
        return click.Option(decls, is_flag=True, help=text)
    if isinstance(default, PerQubit):  # a multiple of n, which the config resolves
        return click.Option(decls, type=int, help=text, show_default=str(default))
    if isinstance(default, tuple):
        return click.Option(
            decls, default=",".join(map(str, default)), callback=_number_list,
            show_default=True, help=text,
        )
    # any other option takes the type of its default (a string if None)
    return click.Option(
        decls, type=click.Choice(meta["choices"]) if "choices" in meta else None, default=default,
        show_default=True, help=text, metavar=meta.get("metavar"),
    )


def _command(kind: str) -> click.Command:
    """The subcommand of one experiment: its KINDS fields, then the common flags."""
    defaults = {**KINDS[kind], **{name: _FIELDS[name].default for name in COMMON_FIELDS}}
    params = [_option(name, default) for name, default in defaults.items()]
    params.append(click.Option(["--config"], type=click.Path(), help="JSON config overriding flags."))
    return click.Command(kind, params=params, help=inspect.getdoc(RUNNERS[kind]),
                         callback=lambda **flags: _run(kind, flags))


def _run(kind: str, flags: dict):
    config = _merge_config(click.get_current_context(), kind, flags)
    table = run_experiment(config)
    if config.out:
        click.echo(f"wrote {len(table.rows)} rows to {config.out}")
    else:
        click.echo(table.to_csv() if config.fmt == "csv" else table.to_json(), nl=False)


@click.group()
def cli():
    """Layerwise QAOA state-preparation experiments.

    Outputs are CSV with a '#'-prefixed JSON metadata line, or pure JSON.
    Reruns with the same config and seed are byte-identical regardless of
    worker count.
    """


for _kind in KINDS:
    cli.add_command(_command(_kind))


def main(argv=None) -> int:
    """Entry point with the documented exit codes: 0 success, 1 configuration
    error, raised before any compute (an n past MAX_SYMMETRIC_QUBITS is one,
    for every kind)."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        return 1
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.Abort:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

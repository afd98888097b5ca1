"""Command line interface: one subcommand per experiment kind."""

from __future__ import annotations

import json
import sys

import click

from .densecore import GRANULARITIES, ResourceCapError
from .harness import KNEE_EPS_SAT, ConfigError, ExperimentConfig, run_experiment


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
    values.pop("kind", None)
    try:
        return ExperimentConfig(kind=kind, **values)
    except TypeError as exc:
        raise ConfigError(str(exc))


def _number_list(ctx: click.Context, param: click.Parameter, text: str | None):
    """Parse a comma-separated option value into a tuple of floats."""
    if text is None:
        return None
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise ConfigError(f"{param.opts[0]} takes comma-separated numbers, got {text!r}") from None


def _common(fn):
    fn = click.option("--seed", type=int, default=0, show_default=True, help="Master seed.")(fn)
    fn = click.option("--out", type=click.Path(dir_okay=False), default=None, help="Output file path.")(fn)
    fn = click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True)(fn)
    fn = click.option("--workers", type=int, default=1, show_default=True, help="Trial-level worker processes.")(fn)
    fn = click.option("--config", type=click.Path(exists=False), default=None, help="JSON config overriding flags.")(fn)
    return fn


def _run(ctx: click.Context, kind: str, flags: dict):
    config = _merge_config(ctx, kind, flags)
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


@cli.command()
@click.option("--n-min", type=int, default=3, show_default=True)
@click.option("--n-max", type=int, default=10, show_default=True)
@click.option("--eps-sat", type=float, default=KNEE_EPS_SAT, show_default=True,
              help="Improvement threshold for saturation detection.")
@_common
@click.pass_context
def saturation(ctx, **flags):
    """Layerwise saturation depth per n.

    Columns: n, depth, overlap, improvement, p_star.
    """
    _run(ctx, "saturation", flags)


@cli.command()
@click.option("--n", type=int, default=4, show_default=True)
@click.option("--depth", type=int, default=6, show_default=True)
@_common
@click.pass_context
def compare(ctx, **flags):
    """Layerwise vs global training, per-depth overlap profiles.

    Columns: depth, layerwise_overlap, global_overlap.
    """
    _run(ctx, "compare", flags)


@cli.command()
@click.option("--n", type=int, default=4, show_default=True)
@click.option("--depth", type=int, default=None, help="Circuit depth (default 2n).")
@click.option("--trials", type=int, default=100, show_default=True)
@click.option("--fractions", type=str, default=None, callback=_number_list,
              help="Comma-separated cutoff fractions in (0, 1].")
@_common
@click.pass_context
def cutoff(ctx, **flags):
    """Cutoff-limited layerwise training over a fraction grid.

    Columns: fraction, top10_best, top10_mean, top10_worst, baseline_final.
    """
    _run(ctx, "cutoff", flags)


@cli.command()
@click.option("--n", type=int, default=4, show_default=True)
@click.option("--trials", type=int, default=100, show_default=True)
@click.option("--p-grid", type=str, default=None, callback=_number_list,
              help="Comma-separated noise probabilities (default 21 points on [0, 0.5]).")
@click.option("--noise-stddev", type=float, default=1.0, show_default=True)
@click.option("--noise-granularity", type=click.Choice(GRANULARITIES),
              default="layer", show_default=True)
@click.option("--bitflip-contrast", is_flag=True, default=False,
              help="Also run the bit-flip contrast at each probability.")
@_common
@click.pass_context
def noise(ctx, **flags):
    """Layerwise training under coherent phase noise at depth p = n.

    Columns: p, top10_best, top10_mean, top10_worst, noiseless_overlap,
    bitflip_top10_best.
    """
    _run(ctx, "noise", flags)


@cli.command()
@click.option("--n-min", type=int, default=4, show_default=True)
@click.option("--n-max", type=int, default=8, show_default=True)
@_common
@click.pass_context
def betas(ctx, **flags):
    """Optimal mixer angles of depth-(n+1) layerwise runs.

    Columns: n, depth, beta, beta_effective.
    """
    _run(ctx, "betas", flags)


@cli.command()
@click.option("--n", type=int, default=10, show_default=True)
@click.option("--depth", type=int, default=None, help="Circuit depth (default n).")
@_common
@click.pass_context
def conditions(ctx, **flags):
    """Dicke amplitude profile before and after layerwise training.

    Columns: k, initial_magnitude, trained_magnitude.
    """
    _run(ctx, "conditions", flags)


def main(argv=None) -> int:
    """Entry point with the documented exit codes.

    0 success, 1 configuration error, 2 dense-simulation resource cap.
    """
    try:
        cli.main(args=argv, standalone_mode=False)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        return 1
    except ResourceCapError as exc:
        click.echo(f"resource cap: {exc}", err=True)
        return 2
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.Abort:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

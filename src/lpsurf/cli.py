"""Command-line surface over seeds, quivers, surfaces, and exploration.

Exit codes: 0 on success, 1 on domain errors (malformed input file, invalid
seed or surface), 2 on usage errors.  All output is deterministic and embeds ``schema: 1``.
"""

from __future__ import annotations

import json
import random
import sys

import click

from . import explorer
from .lp_core import (
    LPSeed,
    mutate,
    normalize,
    seed_from_json,
    seed_to_json,
)
from .poly import PolyError, Polynomial
from .schema import SCHEMA_VERSION
from .surface import (
    MarkedSurface,
    initial_quasi_triangulation,
    seed_from_quasi_triangulation,
    surface_from_json,
    triangulation_to_json,
)


def _load_json(path: str) -> object:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise click.ClickException(f"cannot read {path}: {exc}") from exc


def _surface_seed(s: MarkedSurface):
    t = initial_quasi_triangulation(s)
    return t, seed_from_quasi_triangulation(t)


def _seed_arg(seed_path: str | None, surface_path: str | None) -> LPSeed:
    """The seed of ``--seed`` or the initial seed of ``--surface``."""
    if seed_path and surface_path:
        raise click.UsageError("pass --seed or --surface, not both")
    if seed_path:
        return seed_from_json(_load_json(seed_path))
    if surface_path:
        return _surface_seed(surface_from_json(_load_json(surface_path)))[1]
    raise click.UsageError("pass --seed or --surface")


def _emit(data: dict, out: str | None) -> None:
    text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _fraction_string(value: Polynomial) -> str:
    """A Laurent value as ``num``, or ``(num) / (den)`` when it has a denominator."""
    den = value.den
    return str(value) if den.is_constant else f"({value.num}) / ({den})"


class _Main(click.Group):
    """Reports a domain error, or a file that cannot be written, from any
    command as ``Error: <msg>`` with exit 1."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (PolyError, OSError) as exc:
            raise click.ClickException(str(exc)) from exc


_depth = click.option("--depth", type=click.IntRange(min=0), default=None,
                      help="stop the BFS after this many steps")
_jobs = click.option("--jobs", type=click.IntRange(min=1), default=1, expose_value=False,
                     help="accepted for compatibility; has no effect (one thread)")


@click.group(cls=_Main)
def main() -> None:
    """Laurent phenomenon seeds and quasi-triangulations of marked surfaces."""


@main.command()
@click.option("--seed", "seed_path", type=click.Path(exists=True), help="seed JSON file")
@click.option("--surface", "surface_path", type=click.Path(exists=True), help="surface JSON file")
def validate(seed_path, surface_path):
    """Validate a seed or a surface description."""
    if not seed_path and not surface_path:
        raise click.UsageError("pass --seed or --surface")
    if seed_path:
        seed = seed_from_json(_load_json(seed_path))
        if seed.violations:
            for v in seed.violations:
                click.echo(f"violation: {v}", err=True)
            raise click.ClickException("invalid seed")
        click.echo("seed ok")
    if surface_path:
        s = surface_from_json(_load_json(surface_path))
        click.echo(f"surface ok (rank {s.rank})")


@main.command("normalize")
@click.option("--seed", "seed_path", type=click.Path(exists=True), required=True)
@click.option("--at", "at", default=None, help="cluster variable name (default: all)")
def normalize_cmd(seed_path, at):
    """Print normalized exchange polynomials and their exponent vectors."""
    seed = seed_from_json(_load_json(seed_path))
    slots = [seed.slot_of(at)] if at is not None else list(range(seed.n))
    disp = seed.display_names()
    out = {"schema": SCHEMA_VERSION, "normalized": []}
    for j in slots:
        fhat, exps = normalize(seed, j)
        out["normalized"].append(
            {
                "variable": seed.names[j],
                "poly": fhat.to_string(disp),
                "exponents": {seed.names[k]: a for k, a in enumerate(exps) if a},
            }
        )
    _emit(out, None)


@main.command("mutate")
@click.option("--seed", "seed_path", type=click.Path(exists=True), required=True)
@click.option("--at", "at", required=True, help="cluster variable name")
@click.option("--name", "new_name", default=None, help="name for the new variable")
@click.option("--out", "out", type=click.Path(), default=None)
def mutate_cmd(seed_path, at, new_name, out):
    """LP mutation of a seed in one direction."""
    seed = seed_from_json(_load_json(seed_path))
    slot = seed.slot_of(at)
    result = mutate(seed, slot, new_name=new_name)
    data = seed_to_json(result)
    data["mutated_at"] = at
    data["new_variable"] = {
        "name": result.names[slot],
        "value": _fraction_string(result.values[slot]),
    }
    _emit(data, out)


@main.command("seed-from-surface")
@click.option("--surface", "surface_path", type=click.Path(exists=True), required=True)
@click.option("--out", "out", type=click.Path(), default=None)
@click.option("--triangulation-out", "tri_out", type=click.Path(), default=None)
def seed_from_surface(surface_path, out, tri_out):
    """Initial quasi-triangulation seed for a surface."""
    t, seed = _surface_seed(surface_from_json(_load_json(surface_path)))
    if tri_out:
        with open(tri_out, "w") as fh:
            json.dump(triangulation_to_json(t), fh, indent=2, sort_keys=True)
            fh.write("\n")
    _emit(seed_to_json(seed), out)


@main.command("explore")
@click.option("--seed", "seed_path", type=click.Path(exists=True))
@click.option("--surface", "surface_path", type=click.Path(exists=True))
@click.option("--mode", type=click.Choice(["seeds", "flips"]), default="seeds")
@_depth
@click.option("--format", "fmt", type=click.Choice(["json", "dot"]), default="json")
@_jobs
@click.option("--out", "out", type=click.Path(), default=None)
def explore(seed_path, surface_path, mode, depth, fmt, out):
    """Enumerate the exchange graph by BFS."""
    if mode == "flips":
        if not surface_path:
            raise click.UsageError("--mode flips needs --surface")
        if seed_path:
            raise click.UsageError("--mode flips takes no --seed")
        t = initial_quasi_triangulation(surface_from_json(_load_json(surface_path)))
        graph = explorer.explore_flips(t, depth=depth)
    else:
        graph = explorer.explore_seeds(_seed_arg(seed_path, surface_path), depth=depth)
    text = explorer.export(graph, fmt)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


@main.command("compare-graphs")
@click.option("--surface", "surface_path", type=click.Path(exists=True), required=True)
@_depth
@_jobs
def compare_graphs(surface_path, depth):
    """Explore seeds and flips; check mutation at slot(q) is the flip of q, an isomorphism."""
    t, seed = _surface_seed(surface_from_json(_load_json(surface_path)))
    g_seeds = explorer.explore_seeds(seed, depth=depth)
    g_flips = explorer.explore_flips(t, depth=depth)
    iso = explorer.flip_correspondence(g_seeds, g_flips, t) is not None
    click.echo(
        f"isomorphic: {'true' if iso else 'false'}, "
        f"nodes={g_seeds.node_count}, edges={g_seeds.edge_count}"
    )
    if not iso:
        sys.exit(1)


@main.command("verify-laurent")
@click.option("--seed", "seed_path", type=click.Path(exists=True))
@click.option("--surface", "surface_path", type=click.Path(exists=True))
@click.option("--sequences", type=click.IntRange(min=0), default=200)
@click.option("--max-length", type=click.IntRange(min=1), default=8)
@click.option("--rng-seed", type=int, default=0)
def verify_laurent_cmd(seed_path, surface_path, sequences, max_length, rng_seed):
    """Random mutation sequences; report any non-Laurent tracked variable."""
    seed = _seed_arg(seed_path, surface_path)
    rng = random.Random(rng_seed)
    seqs = [
        [rng.randrange(seed.n) for _ in range(rng.randint(1, max_length))]
        for _ in range(sequences)
    ]
    report = explorer.verify_laurent(seed, seqs)
    click.echo(
        f"sequences: {report.sequences_checked}, variables: {report.variables_checked}, "
        f"violations: {len(report.violations)}"
    )
    for seq, name, value in report.violations[:10]:
        click.echo(f"violation: sequence {list(seq)} variable {name} = {value}", err=True)
    if not report.ok:
        raise click.ClickException("Laurent phenomenon violated")


if __name__ == "__main__":
    main()

"""Command-line surface over seeds, quivers, surfaces, and exploration.

Exit codes: 0 on success, 1 on domain errors (malformed input file, invalid
seed or surface), 2 on usage errors.  Both errors end in one ``Error: <msg>``
line on stderr; a usage error prints the command's usage line first.  All
output is deterministic and embeds ``schema: 1``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from typing import Optional, Sequence

from . import explorer
from .build import initial_quasi_triangulation, triangulation_to_json
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
    seed_from_quasi_triangulation,
    surface_from_json,
)


class _Failure(Exception):
    """A domain error a command reports itself: ``Error: <msg>``, exit 1."""


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as the command's usage and ``Error: <msg>`` on stderr, exit 2."""

    def error(self, message: str):
        self.exit(2, f"{self.format_usage()}Error: {message}\n")


def _load_json(path: str) -> object:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise _Failure(f"cannot read {path}: {exc}") from exc


def _surface_seed(s: MarkedSurface):
    t = initial_quasi_triangulation(s)
    return t, seed_from_quasi_triangulation(t)


def _seed_surface(args: argparse.Namespace) -> MarkedSurface:
    """The surface of ``--surface``; a seed BFS needs ``--depth`` on all but the
    polygons and Moebius strips with one boundary component, which have finitely many seeds."""
    s = surface_from_json(_load_json(args.surface))
    finite = s.genus == 0 and s.cross_caps <= 1 and len(s.boundary) == 1
    if "depth" in args and args.depth is None and not finite:
        args.command.error("the seed graph of this surface is infinite; pass --depth")
    return s


def _seed_arg(args: argparse.Namespace) -> LPSeed:
    """The seed of ``--seed`` or the initial seed of ``--surface``."""
    if args.seed and args.surface:
        args.command.error("pass --seed or --surface, not both")
    if args.seed:
        return seed_from_json(_load_json(args.seed))
    if args.surface:
        return _surface_seed(_seed_surface(args))[1]
    args.command.error("pass --seed or --surface")


def _emit(data: dict, out: Optional[str]) -> None:
    _write(json.dumps(data, indent=2, sort_keys=True) + "\n", out)


def _write(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fraction_string(value: Polynomial) -> str:
    """A Laurent value as ``num``, or ``(num) / (den)`` when it has a denominator."""
    den = value.den
    return str(value) if den.is_constant else f"({value.num}) / ({den})"


def _validate(args: argparse.Namespace) -> None:
    if not args.seed and not args.surface:
        args.command.error("pass --seed or --surface")
    if args.seed:
        seed = seed_from_json(_load_json(args.seed))
        if seed.violations:
            for v in seed.violations:
                print(f"violation: {v}", file=sys.stderr)
            raise _Failure("invalid seed")
        print("seed ok")
    if args.surface:
        s = surface_from_json(_load_json(args.surface))
        print(f"surface ok (rank {s.rank})")


def _normalize(args: argparse.Namespace) -> None:
    seed = seed_from_json(_load_json(args.seed))
    slots = [seed.slot_of(args.at)] if args.at is not None else list(range(seed.n))
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


def _mutate(args: argparse.Namespace) -> None:
    seed = seed_from_json(_load_json(args.seed))
    slot = seed.slot_of(args.at)
    result = mutate(seed, slot, new_name=args.name)
    data = seed_to_json(result)
    data["mutated_at"] = args.at
    data["new_variable"] = {
        "name": result.names[slot],
        "value": _fraction_string(result.values[slot]),
    }
    _emit(data, args.out)


def _seed_from_surface(args: argparse.Namespace) -> None:
    t, seed = _surface_seed(surface_from_json(_load_json(args.surface)))
    if args.triangulation_out:
        _emit(triangulation_to_json(t), args.triangulation_out)
    _emit(seed_to_json(seed), args.out)


def _explore(args: argparse.Namespace) -> None:
    if args.mode == "flips":
        if not args.surface:
            args.command.error("--mode flips needs --surface")
        if args.seed:
            args.command.error("--mode flips takes no --seed")
        t = initial_quasi_triangulation(surface_from_json(_load_json(args.surface)))
        graph = explorer.explore_flips(t, depth=args.depth)
    else:
        graph = explorer.explore_seeds(_seed_arg(args), depth=args.depth)
    _write(explorer.export(graph, args.format), args.out)


def _compare_graphs(args: argparse.Namespace) -> int:
    s = _seed_surface(args)
    if args.depth is None and s.genus == s.cross_caps == 0 and len(s.boundary) == 1:
        # the n-gon has C_{n-2} triangulations: a graph above the cap is refused before any work
        m = s.boundary[0] - 2
        if math.comb(2 * m, m) // (m + 1) > explorer._node_cap():
            raise _cap_failure()
    t, seed = _surface_seed(s)
    graph = explorer.explore_seeds(seed, depth=args.depth, state=t)
    if graph.capped:
        raise _cap_failure()
    iso = graph.mismatch is None
    print(
        f"isomorphic: {'true' if iso else 'false'}, "
        f"nodes={graph.node_count}, edges={graph.edge_count}"
    )
    if not iso:
        print(f"witness: {graph.mismatch}", file=sys.stderr)
    return 0 if iso else 1


def _cap_failure() -> _Failure:
    return _Failure(f"the seed graph passed the node cap of {explorer._node_cap()}; "
                    f"pass --depth or raise {explorer.NODE_CAP_ENV}")


def _verify_laurent(args: argparse.Namespace) -> None:
    seed = _seed_arg(args)
    rng = random.Random(args.rng_seed)
    seqs = [
        [rng.randrange(seed.n) for _ in range(rng.randint(1, args.max_length))]
        for _ in range(args.sequences)
    ]
    report = explorer.verify_laurent(seed, seqs)
    print(
        f"sequences: {report.sequences_checked}, variables: {report.variables_checked}, "
        f"violations: {len(report.violations)}"
    )
    for seq, name, value in report.violations[:10]:
        print(f"violation: sequence {list(seq)} variable {name} = {value}", file=sys.stderr)
    if not report.ok:
        raise _Failure("Laurent phenomenon violated")


def _existing_path(text: str) -> str:
    if not os.path.exists(text):
        raise argparse.ArgumentTypeError(f"path {text!r} does not exist")
    return text


def _at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is not in the range x>={low}")
        return value
    return parse


def _build_parser() -> _Parser:
    """The parser of every command; each subparser sets ``run`` and ``command``."""
    parser = _Parser(
        prog="lpsurf", allow_abbrev=False,
        description="Laurent phenomenon seeds and quasi-triangulations of marked surfaces.",
    )
    commands = parser.add_subparsers(title="commands", metavar="COMMAND", required=True)

    def command(name, run, summary, seed=None, surface=None):
        """A subparser; ``seed``/``surface`` None omits the option, else it is required or not."""
        sub = commands.add_parser(name, help=summary, description=summary, allow_abbrev=False)
        sub.set_defaults(run=run, command=sub)
        for flag, required in (("--seed", seed), ("--surface", surface)):
            if required is not None:
                sub.add_argument(flag, type=_existing_path, required=required,
                                 metavar="PATH", help=f"{flag[2:]} JSON file")
        return sub

    def depth_and_jobs(sub):
        sub.add_argument("--depth", type=_at_least(0), metavar="N",
                         help="stop the BFS after this many steps")
        sub.add_argument("--jobs", type=_at_least(1), default=1, metavar="N",
                         help="accepted for compatibility; has no effect (one thread)")

    command("validate", _validate, "Validate a seed or a surface description.",
            seed=False, surface=False)

    sub = command("normalize", _normalize,
                  "Print normalized exchange polynomials and their exponent vectors.", seed=True)
    sub.add_argument("--at", help="cluster variable name (default: all)")

    sub = command("mutate", _mutate, "LP mutation of a seed in one direction.", seed=True)
    sub.add_argument("--at", required=True, help="cluster variable name")
    sub.add_argument("--name", help="name for the new variable")
    sub.add_argument("--out", metavar="PATH", help="write the seed here instead of stdout")

    sub = command("seed-from-surface", _seed_from_surface,
                  "Initial quasi-triangulation seed for a surface.", surface=True)
    sub.add_argument("--out", metavar="PATH", help="write the seed here instead of stdout")
    sub.add_argument("--triangulation-out", metavar="PATH",
                     help="also write the initial quasi-triangulation here")

    sub = command("explore", _explore, "Enumerate the exchange graph by BFS.",
                  seed=False, surface=False)
    sub.add_argument("--mode", choices=("seeds", "flips"), default="seeds")
    depth_and_jobs(sub)
    sub.add_argument("--format", choices=("json", "dot"), default="json")
    sub.add_argument("--out", metavar="PATH", help="write the graph here instead of stdout")

    sub = command("compare-graphs", _compare_graphs,
                  "Explore seeds, flipping each slot's quasi-arc alongside its mutation; "
                  "check that each mutation is that flip.", surface=True)
    depth_and_jobs(sub)

    sub = command("verify-laurent", _verify_laurent,
                  "Random mutation sequences; report any non-Laurent tracked variable.",
                  seed=False, surface=False)
    sub.add_argument("--sequences", type=_at_least(0), default=200, metavar="N")
    sub.add_argument("--max-length", type=_at_least(1), default=8, metavar="N")
    sub.add_argument("--rng-seed", type=int, default=0, metavar="N")
    return parser


_PARSER = _build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command (``argv``, default ``sys.argv[1:]``) and return its exit code.

    The one error boundary: a usage error prints the command's usage and
    ``Error: <msg>`` on stderr and gives 2; a domain error, or a file that
    cannot be read or written, prints ``Error: <msg>`` and gives 1.
    """
    try:
        args, extra = _PARSER.parse_known_args(argv)
        if extra:
            args.command.error(f"unrecognized arguments: {' '.join(extra)}")
        return args.run(args) or 0
    except SystemExit as exc:  # --help, or a usage error ``_Parser.error`` has printed
        return exc.code
    except (_Failure, PolyError, OSError) as exc:
        print(f"Error: {exc}", file=sys.stderr)
        return 1


def _main_compat(args: Optional[Sequence[str]] = None, prog_name: str = "lpsurf",
                 standalone_mode: bool = True) -> int:
    """``main(args)`` with the signature of the former click entry point ``main.main``.

    With ``standalone_mode`` it raises ``SystemExit`` with the exit code,
    otherwise it returns the code.  ``prog_name`` is accepted and not used:
    usage lines always name ``lpsurf``.
    """
    code = main(args)
    if standalone_mode:
        raise SystemExit(code)
    return code


main.main = _main_compat


if __name__ == "__main__":
    sys.exit(main())

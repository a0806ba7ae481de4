"""The benchmark's workloads: the lpsurf commands one pass runs, the surface
inputs they read, and the result each command must produce.

Why these workloads:

- ``ladder``: ``compare-graphs`` on the ROADMAP ladder, the paper's central
  claim.  Seed exploration dominates, most of it ``poly_gcd`` under
  ``RationalFunction`` value tracking, so ``poly`` and ``lp_core`` work shows
  here.  Fixed inputs: the workload seed is not used.
- ``flips_large``: ``explore --mode flips --format dot`` on the 9-gon (429
  nodes) and M6 (1024 nodes).  Almost all the time is
  ``surface.canonical_code`` and ``poly`` does almost nothing, so a ``poly``
  or ``lp_core`` change must show no change here.  Fixed inputs: the
  workload seed is not used.
- ``laurent_chains``: ``verify-laurent`` on M2 and annulus(2,2), chains of
  up to 8 mutations with growing values and no BFS, no ``seed_key`` and no
  ``canonical_code``.  The workload seed is the ``--rng-seed`` of a small
  part of the chains (see ``LAURENT_SEEDED_SEQUENCES``).
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

# name -> (genus, cross_caps, boundary); every surface has boundary variables
SURFACES = {
    "hexagon": (0, 0, (6,)),
    "7-gon": (0, 0, (7,)),
    "8-gon": (0, 0, (8,)),
    "9-gon": (0, 0, (9,)),
    "M2": (0, 1, (2,)),
    "M3": (0, 1, (3,)),
    "M4": (0, 1, (4,)),
    "M6": (0, 1, (6,)),
    "annulus22": (0, 0, (2, 2)),
}

# The work of a verify-laurent chain set depends strongly on its random
# chains: across --rng-seed values, 200 sequences vary by about 10% in time
# per mutation.  So the bulk of laurent_chains is a fixed set of 200 chains
# per surface, and the workload seed draws 10 more, about 5% of the work.
LAURENT_FIXED_RNG_SEED = 0
LAURENT_SEEDED_SEQUENCES = 10

# Rank (number of cluster variables) of the surfaces verify-laurent runs on:
# it reports variables checked = mutations * rank.
LAURENT_RANK = {"M2": 2, "annulus22": 4}

# sha256 of each DOT export, frozen at the commit that added the benchmark:
# speedups must keep exports byte-identical.
DOT_SHA256 = {
    "9-gon": "b0f58cf596fea04fb4935b2ecbdf96e61d8622ef95f730c7ad606800bb897721",
    "M6": "ce44c7218b1de758b958c287ee09f88dbd2ba14613e0ff31c1d0509567a832b9",
}

COMPARE_EXPECTED = {
    "hexagon": "isomorphic: true, nodes=14, edges=21\n",
    "7-gon": "isomorphic: true, nodes=42, edges=84\n",
    "8-gon": "isomorphic: true, nodes=132, edges=330\n",
    "M3": "isomorphic: true, nodes=16, edges=24\n",
    "M4": "isomorphic: true, nodes=64, edges=128\n",
}

# Commands whose expected result is the correct one, which the program does
# not give yet.  They run and count as failed, but do not make the run
# incorrect.  The annulus seed and flip graphs differ at depth 3 because
# canonical_code quotients by Dehn twists and seed keys do not (ROADMAP
# item 3); its expected result is "isomorphic: true" with exit 0.
KNOWN_DEFECTS = {
    "compare-graphs annulus22 --depth 3":
        "ROADMAP item 3: flip nodes are taken up to the mapping class group",
}


@dataclass(frozen=True)
class Command:
    name: str
    args: tuple[str, ...]
    kind: str  # "compare", "dot" or "laurent"
    surface: str


def write_inputs(directory: Path) -> None:
    for name, (genus, cross_caps, boundary) in SURFACES.items():
        data = {"schema": 1, "genus": genus, "cross_caps": cross_caps,
                "boundary": list(boundary), "boundary_variables": True}
        (directory / f"{name}.json").write_text(json.dumps(data) + "\n")


def commands(workload: str, inputs: Path, seed: int, jobs: int = 1) -> list[Command]:
    """The commands of one pass; ``seed`` only reaches ``laurent_chains``."""
    def surf(name: str) -> str:
        return str(inputs / f"{name}.json")

    jobs_args = ("--jobs", str(jobs))
    if workload == "ladder":
        out = [Command(f"compare-graphs {s}",
                       ("compare-graphs", "--surface", surf(s)) + jobs_args, "compare", s)
               for s in ("hexagon", "7-gon", "8-gon", "M3", "M4")]
        out.append(Command("compare-graphs annulus22 --depth 3",
                           ("compare-graphs", "--surface", surf("annulus22"), "--depth", "3")
                           + jobs_args, "compare", "annulus22"))
        return out
    if workload == "flips_large":
        return [Command(f"explore flips {s}",
                        ("explore", "--surface", surf(s), "--mode", "flips", "--format", "dot")
                        + jobs_args, "dot", s)
                for s in ("9-gon", "M6")]
    if workload == "laurent_chains":
        return [Command(f"verify-laurent {s} --sequences {n} --rng-seed {rng}",
                        ("verify-laurent", "--surface", surf(s), "--sequences", str(n),
                         "--max-length", "8", "--rng-seed", str(rng)), "laurent", s)
                for n, rng in ((200, LAURENT_FIXED_RNG_SEED), (LAURENT_SEEDED_SEQUENCES, seed))
                for s in ("M2", "annulus22")]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("ladder", "flips_large", "laurent_chains")

_LAURENT_LINE = re.compile(r"sequences: (\d+), variables: (\d+), violations: 0\n")


def check(cmd: Command, result: dict) -> Optional[str]:
    """Why ``result`` is not the correct outcome of ``cmd``, or None."""
    got = f"exit {result['exit']}, stdout {result['stdout'][:80]!r}"
    if result["exit"] != 0:
        return f"expected exit 0, got {got}"
    if cmd.kind == "compare":
        want = COMPARE_EXPECTED.get(cmd.surface)
        if want is None:
            ok = result["stdout"].startswith("isomorphic: true, ")
            want = "isomorphic: true, ..."
        else:
            ok = result["stdout"] == want
        return None if ok else f"expected {want!r}, got {got}"
    if cmd.kind == "dot":
        digest = hashlib.sha256(result["stdout"].encode()).hexdigest()
        want = DOT_SHA256[cmd.surface]
        return None if digest == want else f"DOT sha256 {digest} != frozen {want}"
    sequences = int(cmd.args[cmd.args.index("--sequences") + 1])
    m = _LAURENT_LINE.fullmatch(result["stdout"])
    if m is None or int(m.group(1)) != sequences:
        return f"expected 'sequences: {sequences}, variables: N, violations: 0', got {got}"
    mutations = result["mutations"]
    variables = int(m.group(2))
    if not sequences <= mutations <= 8 * sequences or variables != mutations * LAURENT_RANK[cmd.surface]:
        return (f"variables {variables} != {LAURENT_RANK[cmd.surface]} * "
                f"{mutations} mutations performed")
    return None

"""lpsurf benchmark: the user-facing commands, end to end and layer by layer.

    python3 bench/run.py --workload ladder --seed 1 --seconds 30 --trace 0

runs passes of the workload's commands (see ``workloads.py``) for
``--seconds`` seconds, each pass in a fresh interpreter, one client, closed
loop.  Every command's exit code and output is checked.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` one untraced pass is followed by traced passes, and the
metrics are the per-layer ones.  See ``README.md`` for every metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import hostspeed
import workloads
from tracer import LAYERS

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SETUP_PROBES = 5
RUN_LIMIT_S = 170.0

# per-layer function metrics: traced name -> emit self time too
TRACED_FUNCTIONS = {
    "poly.poly_gcd": True,
    "poly.divide_exact": True,
    "poly.evaluate": True,
    "poly.RationalFunction.make": True,
    "poly.is_irreducible": True,
    "lp_core.mutate": True,
    "lp_core.normalize": True,
    "lp_core.validate_seed": True,
    "lp_core.seed_key": True,
    "surface.flip": True,
    "surface.canonical_code": True,
    "surface.seed_from_quasi_triangulation": True,
    "quiver.mutate_vertex": False,
    "quiver.double_mutate": False,
    "quiver.exchange_polys": False,
    "quiver.lp_seed_from_quiver": False,
    "quiver.has_bad_path": False,
    "quiver.cancel_two_cycles": False,
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def run_pass(commands: list[workloads.Command], work: Path, trace: bool,
             timeout: float) -> tuple[float, dict]:
    """Wall seconds and the report of one pass in a fresh interpreter."""
    spec = work / "spec.json"
    result = work / "result.json"
    spec.write_text(json.dumps({"commands": [list(c.args) for c in commands],
                                "trace": trace}))
    result.unlink(missing_ok=True)
    t_spawn = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "one_pass.py"), str(spec), str(result), repr(t_spawn)],
        cwd=ROOT, timeout=timeout, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    wall = time.monotonic() - t_spawn
    if proc.returncode != 0 or not result.exists():
        raise BenchError(f"pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    report = json.loads(result.read_text())
    if not Path(report["lpsurf_file"]).is_relative_to(ROOT / "src"):
        raise BenchError(f"lpsurf was imported from {report['lpsurf_file']}, not {ROOT / 'src'}")
    return wall, report


def setup_seconds(report: dict) -> float:
    """The pass's set-up time at nominal host speed."""
    return report["setup_s"] * hostspeed.scale(report["setup_snippet_s"])


def command_seconds(report: dict) -> float:
    """The pass's command time at nominal host speed."""
    return sum(r["seconds"] for r in report["results"]) * hostspeed.scale(report["snippet_s"])


def end_to_end(reports: list[dict], setups: list[float]) -> dict:
    steps_per_s = [
        sum(r["mutations"] + r["flips"] for r in rep["results"]) / command_seconds(rep)
        for rep in reports
    ]
    return {
        "wall_s": (statistics.median(setup_seconds(r) + command_seconds(r) for r in reports), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "steps_per_s": (statistics.median(steps_per_s), "1/s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reports), "MB"),
    }


def work_counts(trace: dict) -> dict:
    """The part of a traced pass that must repeat exactly."""
    return {k: v for k, v in trace.items() if k != "self_s"}


def per_layer(traces: list[dict], reports: list[dict], walls: list[float],
              untraced: tuple[float, dict]) -> dict:
    first = traces[0]
    calls = first["calls"]

    def self_s(names) -> float:
        return statistics.median(sum(t["self_s"].get(n, 0.0) for n in names) for t in traces)

    def layer_names(layer: str) -> list[str]:
        return [n for n in calls if n == layer or n.startswith(layer + ".")]

    out = {}
    for layer in LAYERS:
        names = layer_names(layer)
        out[f"{layer}.calls"] = (sum(calls[n] for n in names), "count")
        out[f"{layer}.self_s"] = (self_s(names), "s")
    for name, timed in TRACED_FUNCTIONS.items():
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
        if timed:
            out[f"{name}.self_s"] = (self_s([name]), "s")
    gcd_div = calls["poly.divide_exact"]
    out["poly.divide_exact.fail_ratio"] = (
        first["divide_exact_none"] / gcd_div if gcd_div else 0.0, "ratio")
    irr = calls["poly.is_irreducible"]
    out["poly.irr_cache.growth"] = (first["irr_cache_growth"], "count")
    out["poly.irr_cache.hit_ratio"] = (1 - first["irr_cache_growth"] / irr if irr else 0.0, "ratio")
    out["explorer.bfs.self_s"] = (self_s(["explorer.explore_seeds", "explorer.explore_flips"]), "s")
    for name in ("graphs_isomorphic", "export", "verify_laurent"):
        out[f"explorer.{name}.self_s"] = (self_s([f"explorer.{name}"]), "s")
    keys = first["keys_generated"]
    out["explorer.keys_generated"] = (keys, "count")
    out["explorer.revisit_ratio"] = (1 - first["new_nodes"] / keys if keys else 0.0, "ratio")
    out["explorer.nodes"] = (first["nodes"], "count")
    out["explorer.edges"] = (first["edges"], "count")
    out["cli.import_s"] = (statistics.median(r["import_s"] for r in reports), "s")
    traced_wall = statistics.median(walls)
    untraced_wall, untraced_report = untraced
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.overhead_s"] = (traced_wall - untraced_wall + untraced_report["snippet_total_s"], "s")
    out["host.snippet_ms"] = (untraced_report["snippet_s"] * 1e3, "ms")
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--jobs", type=int, default=1,
                    help="forwarded to --jobs of compare-graphs and explore (gated runs use 1)")
    args = ap.parse_args(argv)
    if args.jobs < 1:
        ap.error("--jobs must be at least 1")
    if not (ROOT / "src" / "lpsurf" / "cli.py").is_file():
        raise BenchError(f"no lpsurf source under {ROOT / 'src'}")
    if args.workload != "laurent_chains":
        print(f"bench: {args.workload} has fixed inputs; --seed is not used", file=sys.stderr)

    start = time.monotonic()

    def remaining() -> float:
        return RUN_LIMIT_S - (time.monotonic() - start)

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-") as tmp:
        work = Path(tmp)
        workloads.write_inputs(work)
        commands = workloads.commands(args.workload, work, args.seed, args.jobs)

        def one(trace: bool) -> tuple[float, dict]:
            wall, report = run_pass(commands, work, trace, timeout=max(remaining(), 1.0))
            print(f"bench: {'traced ' if trace else ''}pass {wall:.3f} s", file=sys.stderr)
            return wall, report

        passes: list[tuple[float, dict]] = []
        traced: list[tuple[float, dict]] = []
        setups: list[float] = []
        if args.trace:
            passes.append(one(False))
        else:
            for _ in range(SETUP_PROBES):
                probe = run_pass([], work, False, timeout=max(remaining(), 1.0))[1]
                setups.append(setup_seconds(probe))
        measure_start = time.monotonic()
        timed = traced if args.trace else passes
        # start a pass only if, taking as long as the last one, it ends in time
        while not timed or (time.monotonic() - measure_start + timed[-1][0] <= args.seconds
                            and remaining() > 1.5 * timed[-1][0]):
            timed.append(one(bool(args.trace)))

    attempted = failed = 0
    correct = True
    for _, report in passes + traced:
        for cmd, res in zip(commands, report["results"]):
            attempted += 1
            problem = workloads.check(cmd, res)
            if problem is None:
                continue
            failed += 1
            known = workloads.KNOWN_DEFECTS.get(cmd.name)
            correct = correct and known is not None
            tag = f"known defect ({known})" if known else "FAILED"
            print(f"bench: {tag}: {cmd.name}: {problem}", file=sys.stderr)

    if args.trace:
        traces = [rep["trace"] for _, rep in traced]
        counts = [work_counts(t) for t in traces]
        if any(c != counts[0] for c in counts[1:]):
            correct = False
            print("bench: FAILED: traced work counts differ between passes", file=sys.stderr)
        metrics = per_layer(traces, [rep for _, rep in traced], [w for w, _ in traced],
                            passes[0])
    else:
        setups += [setup_seconds(rep) for _, rep in passes]
        metrics = end_to_end([rep for _, rep in passes], setups)

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(1)

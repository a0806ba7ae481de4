"""One benchmark pass, in a fresh interpreter.

Imports ``lpsurf.cli`` from the checkout's ``src/``, runs each command
in-process through the ``lpsurf.cli.main`` click entry point and writes what
happened as JSON.  ``run.py`` starts it as

    python3 bench/one_pass.py SPEC.json RESULT.json SPAWN_TIME

where SPEC.json holds ``{"commands": [[args...], ...], "trace": bool}`` and
SPAWN_TIME is the parent's ``time.monotonic()`` just before the spawn, so
that ``setup_s`` covers interpreter start and the import.  With ``trace``
every public lpsurf function is traced (see ``tracer.py``); without it only
``mutate`` and ``flip`` calls are counted, and the host's speed is sampled
right after the import and every 50 ms while the commands run (see
``hostspeed.py``).  A command's ``seconds`` leave out the time spent
sampling.
"""

import os
import sys
import time

_t_main = time.monotonic()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
import lpsurf.cli  # noqa: E402

_t_imported = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import hostspeed  # noqa: E402
from tracer import Tracer  # noqa: E402

EXPLORERS = {"explorer.explore_seeds", "explorer.explore_flips"}
KEY_FUNCTIONS = ("lp_core.seed_key", "surface.canonical_code")
SETUP_SNIPPETS = 20


def invoke(args: list[str]) -> tuple[object, str, str]:
    """Exit code, stdout and stderr of one ``lpsurf`` command run in-process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            lpsurf.cli.main.main(args=args, prog_name="lpsurf", standalone_mode=True)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception:  # a traceback is a failed command, not a failed pass
            traceback.print_exc()
            code = "traceback"
    return code, out.getvalue(), err.getvalue()


def trace_summary(tracer: Tracer, irr_growth: int) -> dict:
    self_s = tracer.self_seconds()
    graphs = [g for name in sorted(EXPLORERS) for g in tracer.observed[name]]
    keys = sum(tracer.calls_from(EXPLORERS, f) for f in KEY_FUNCTIONS) - len(graphs)
    return {
        "calls": tracer.calls,
        "self_s": self_s,
        "nodes": sum(n for n, _ in graphs),
        "edges": sum(e for _, e in graphs),
        "new_nodes": sum(n - 1 for n, _ in graphs),
        "keys_generated": keys,
        "divide_exact_none": sum(tracer.observed["poly.divide_exact"]),
        "irr_cache_growth": irr_growth,
    }


def main(spec_path: str, result_path: str, t_spawn: float) -> None:
    setup_snippets = [hostspeed.time_snippet() for _ in range(SETUP_SNIPPETS)]
    with open(spec_path) as fh:
        spec = json.load(fh)
    trace = spec["trace"]
    tracer = Tracer(spans=trace)
    if trace:
        tracer.install(observe={
            "explorer.explore_seeds": lambda g: (g.node_count, g.edge_count),
            "explorer.explore_flips": lambda g: (g.node_count, g.edge_count),
            "poly.divide_exact": lambda r: r is None,
        })
        run = tracer.wrap("cli", invoke)
    else:
        tracer.install(names={"lp_core.mutate", "surface.flip"})
        run = invoke
    irr_cache = sys.modules["lpsurf.poly"]._IRR_CACHE
    irr_before = len(irr_cache)

    results = []
    sampler = hostspeed.Sampler()
    with contextlib.nullcontext() if trace else sampler:
        for args in spec["commands"]:
            m0, f0 = tracer.calls["lp_core.mutate"], tracer.calls["surface.flip"]
            n0 = len(sampler.samples)
            t0 = time.perf_counter()
            code, out, err = run(args)
            seconds = time.perf_counter() - t0 - sum(sampler.samples[n0:])
            results.append({
                "exit": code, "stdout": out, "stderr": err[-2000:], "seconds": seconds,
                "mutations": tracer.calls["lp_core.mutate"] - m0,
                "flips": tracer.calls["surface.flip"] - f0,
            })

    report = {
        "lpsurf_file": os.path.abspath(lpsurf.cli.__file__),
        "setup_s": _t_imported - t_spawn,
        "import_s": _t_imported - _t_main,
        "setup_snippet_s": statistics.mean(setup_snippets),
        "snippet_s": statistics.mean(sampler.samples) if sampler.samples else None,
        "snippet_total_s": sum(sampler.samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "results": results,
    }
    if trace:
        report["trace"] = trace_summary(tracer, len(irr_cache) - irr_before)
    with open(result_path, "w") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], float(sys.argv[3]))

"""The benchmark's own checks: traced work counts repeat exactly.

    python3 -m pytest bench/test_bench.py -q
"""

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402


def test_traced_work_counts_repeat_on_hexagon():
    with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".bench-") as tmp:
        work = Path(tmp)
        workloads.write_inputs(work)
        hexagon = workloads.commands("ladder", work, seed=0)[:1]
        assert hexagon[0].name == "compare-graphs hexagon"
        reports = [run.run_pass(hexagon, work, trace=True, timeout=120)[1] for _ in range(2)]

    for report in reports:
        assert workloads.check(hexagon[0], report["results"][0]) is None
    first, second = (run.work_counts(r["trace"]) for r in reports)
    assert first == second
    assert first["nodes"] == 28  # 14 seeds and 14 triangulations
    assert first["edges"] == 42
    assert first["calls"]["lp_core.mutate"] == 14 * 3
    assert first["calls"]["surface.flip"] == 14 * 3
    assert [r["results"][0]["mutations"] for r in reports] == [42, 42]

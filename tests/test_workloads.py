"""The benchmark's three workloads, run in process, give the results it checks.

Every command of ``bench/workloads.py`` runs through ``lpsurf.cli.main``,
and ``workloads.check`` judges its exit code and output: the exact
``compare-graphs`` lines, the frozen 9-gon and M6 DOT sha256 and the
``verify-laurent`` lines.  ``workloads.py`` is only imported, never changed.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

import lpsurf.cli
from lpsurf import lp_core

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("inputs")
    workloads.write_inputs(directory)
    return directory


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_outputs_pass_the_benchmark_check(workload, inputs, monkeypatch):
    """``verify-laurent`` is checked against the ``mutate`` calls it makes, counted here."""
    mutations = 0

    def counted(*args, **kwargs):
        nonlocal mutations
        mutations += 1
        return mutate(*args, **kwargs)

    mutate = lp_core.mutate
    for name, module in list(sys.modules.items()):
        if name.startswith("lpsurf") and module is not None:
            for attr, value in list(vars(module).items()):
                if value is mutate:
                    monkeypatch.setattr(module, attr, counted)
    for cmd in workloads.commands(workload, inputs, seed=1):
        before = mutations
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = lpsurf.cli.main(list(cmd.args))
        result = {"exit": code, "stdout": out.getvalue(), "mutations": mutations - before}
        assert workloads.check(cmd, result) is None, (cmd.name, workloads.check(cmd, result))

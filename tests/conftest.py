import io
import os
import signal
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Optional
from unittest import mock

import pytest

from lpsurf.lp_core import LPSeed
from lpsurf.poly import Polynomial, VariableContext, is_irreducible
from lpsurf.surface import MarkedSurface


@dataclass
class CliResult:
    exit_code: int
    output: str  # stdout and stderr together
    exception: Optional[BaseException]  # what escaped the command, or None


class CliRunner:
    """Runs a command line in-process and collects its exit code and output."""

    def invoke(self, cli, args, env=None) -> CliResult:
        """``cli(args)`` with ``env`` added to ``os.environ`` for the duration of the call.

        ``cli`` returns an exit code or raises ``SystemExit``; any other
        exception gives exit code 1 and is kept as ``exception``.
        """
        out = io.StringIO()
        exception = None
        with mock.patch.dict(os.environ, env or {}), redirect_stdout(out), redirect_stderr(out):
            try:
                code = cli(args)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
                exception = exc if code else None
            except Exception as exc:
                code, exception = 1, exc
        return CliResult(code, out.getvalue(), exception)


@pytest.fixture(scope="session")
def runner():
    return CliRunner()


@pytest.fixture
def abc_ctx():
    return VariableContext(("a", "b", "c"))


@pytest.fixture
def time_limit():
    """Fail a test that runs for more than 10 s instead of letting it hang."""

    def expire(signum, frame):
        raise TimeoutError("no result within 10 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(10)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def frozen_variable_seed():
    """A valid seed whose exchange polynomial F_x is the frozen variable t."""
    return LPSeed.initial(("x", "y"), ("t",), ("t", "x + 1"))


@pytest.fixture
def example_norm_seed():
    """The normalization example seed, middle entry read literally as a+c."""
    return LPSeed.initial(("a", "b", "c"), (), ("b+1", "a+c", "(b+1)^2 + a^2*b"))


@pytest.fixture
def mutation_example_seed():
    """The worked mutation example's seed with middle entry a*c + 1.

    This is the reading under which the substitution a <- 1/d yields c/d + 1
    and the target seed ({d,b,c}, {b+1, c+d, d^2+b}) mutates back to this
    seed, as the involution property requires.
    """
    return LPSeed.initial(("a", "b", "c"), (), ("b+1", "a*c+1", "(b+1)^2 + a^2*b"))


@pytest.fixture
def hexagon():
    return MarkedSurface(0, 0, (6,))


@pytest.fixture
def mobius2():
    return MarkedSurface(0, 1, (2,))


@pytest.fixture
def mobius3():
    return MarkedSurface(0, 1, (3,))


@pytest.fixture
def mobius4():
    return MarkedSurface(0, 1, (4,))


@pytest.fixture
def annulus22():
    return MarkedSurface(0, 0, (2, 2))


def random_polynomial(rng, ctx, max_terms=3, max_degree=2, max_coeff=2, avoid=None):
    """Random nonzero ordinary polynomial avoiding one variable index."""
    nvars = ctx.nvars
    while True:
        d = {}
        for _ in range(rng.randint(1, max_terms)):
            e = [0] * nvars
            budget = rng.randint(0, max_degree)
            for _ in range(budget):
                i = rng.randrange(nvars)
                if avoid is not None and i == avoid:
                    continue
                e[i] += 1
            d[tuple(e)] = rng.choice([c for c in range(-max_coeff, max_coeff + 1) if c])
        p = Polynomial.from_dict(ctx, d)
        if not p.is_zero:
            return p.canonical_sign()


def random_valid_seed(rng, n=3, n_frozen=1, max_degree=2):
    """A random valid LP seed: irreducible F_i avoiding x_i, not a cluster variable."""
    cluster = tuple(f"x{i+1}" for i in range(n))
    frozen = tuple(f"t{i+1}" for i in range(n_frozen))
    ctx = VariableContext(cluster, frozen)
    polys = []
    for i in range(n):
        for _ in range(300):
            p = random_polynomial(rng, ctx, max_degree=max_degree, avoid=i)
            if p.is_unit or p.is_zero or p.involves(i):
                continue
            if len(p.terms) == 1 and p.total_degree() == 1:
                continue  # skip bare variables; random_frozen_variable_seed draws frozen ones
            try:
                if is_irreducible(p):
                    polys.append(p)
                    break
            except Exception:
                continue
        else:
            raise RuntimeError("could not sample an irreducible polynomial")
    return LPSeed.initial(cluster, frozen, polys)


def random_frozen_variable_seed(rng, n=3, n_frozen=1, max_degree=2):
    """A random valid LP seed in which at least one F_k is a bare frozen variable t."""
    seed = random_valid_seed(rng, n=n, n_frozen=n_frozen, max_degree=max_degree)
    bare = [k for k in range(n) if rng.random() < 0.4] or [rng.randrange(n)]
    polys = list(seed.polys)
    for k in bare:
        polys[k] = Polynomial.variable(seed.ctx, rng.choice(seed.ctx.frozen))
    return LPSeed.initial(seed.ctx.cluster, seed.ctx.frozen, polys).require_valid()

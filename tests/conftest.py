import cmath
import platform

import numpy as np
import pytest

from hardyzeta import zetaeval
from hardyzeta.hilbert import SampledFunction
from hardyzeta.specialfn import theta
from hardyzeta.zetaeval import EM_ORDER, _em_sum


def pytest_report_header(config):
    """The batched heads are bit for bit the scalar's only where numpy's
    complex exp splits exactly (test_complex_exp_splits_exactly): name
    the numpy and the C library that a failure of it ran on."""
    libc, version = platform.libc_ver()
    return f"numpy {np.__version__}, libc {libc or 'unknown'} {version}"


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


def _zeta_at_cutoff(s: complex, n: int) -> complex:
    """zeta(s) by the Euler-Maclaurin kernel at cutoff N = n with
    EM_ORDER Bernoulli terms, as zeta_em sums it (head n^{-s}, n < N)."""
    return _em_sum(complex(s), 1.0, n - 1, n, EM_ORDER)


def _hardy_at_cutoff(n: int) -> SampledFunction:
    """Z(t) = Re zeta(1/2+it) e^{i theta(t)} on the kernel at cutoff n."""

    def z(t: float) -> float:
        return (_zeta_at_cutoff(complex(0.5, t), n)
                * cmath.exp(1j * theta(t))).real

    return SampledFunction(eval=z, label=f"Z_em(N={n})")


@pytest.fixture
def zeta_at_cutoff():
    """An explicit-cutoff zeta, the high-cutoff oracle of several tests."""
    return _zeta_at_cutoff


@pytest.fixture
def hardy_at_cutoff():
    return _hardy_at_cutoff


@pytest.fixture
def head_exps(monkeypatch):
    """head_exps(call) gives call() and the complex exps the batched heads
    took in it, as (phase exps, weight exps): the row widths of every
    zetaeval._phases and zetaeval._weights call."""

    def run(call):
        counts = {"_phases": 0, "_weights": 0}
        with monkeypatch.context() as patch:
            for name in counts:
                patch.setattr(zetaeval, name, _counted(counts, name))
            result = call()
        return result, (counts["_phases"], counts["_weights"])

    return run


def _counted(counts, name):
    table = getattr(zetaeval, name)

    def counted(values, logs, widths, out):
        counts[name] += int(widths.sum())
        return table(values, logs, widths, out)

    return counted


@pytest.fixture
def core_passes(monkeypatch):
    """core_passes(call) gives call() and the point count of each pass
    through the batched Euler-Maclaurin core (zetaeval._em_blocks) made
    in it, in call order."""

    def run(call):
        sizes = []
        em_blocks = zetaeval._em_blocks

        def counted(points, *args):
            sizes.append(points.size)
            return em_blocks(points, *args)

        with monkeypatch.context() as patch:
            patch.setattr(zetaeval, "_em_blocks", counted)
            result = call()
        return result, sizes

    return run


@pytest.fixture
def em_work(monkeypatch):
    """em_work(call) gives call() and the scalar Euler-Maclaurin sums made
    in it, as (plain sums, jets): the calls of zetaeval._em_sum, which
    zeta_em and hurwitz_zeta make, and of zetaeval._em_jet, which
    zeta_em_jet makes."""

    def run(call):
        counts = {"_em_sum": 0, "_em_jet": 0}
        with monkeypatch.context() as patch:
            for name in counts:
                patch.setattr(zetaeval, name, _tallied(counts, name))
            result = call()
        return result, (counts["_em_sum"], counts["_em_jet"])

    return run


def _tallied(counts, name):
    kernel = getattr(zetaeval, name)

    def tallied(*args):
        counts[name] += 1
        return kernel(*args)

    return tallied

import cmath

import numpy as np
import pytest

from hardyzeta import zetaeval
from hardyzeta.hilbert import SampledFunction
from hardyzeta.specialfn import theta
from hardyzeta.zetaeval import EM_ORDER, _em_sum


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
    took in it: the elements of every zetaeval._exp_outer call."""

    def run(call):
        sizes = []
        exp_outer = zetaeval._exp_outer

        def counted(sr, si, logs, out=None):
            sizes.append(len(sr) * len(logs))
            return exp_outer(sr, si, logs, out)

        with monkeypatch.context() as patch:
            patch.setattr(zetaeval, "_exp_outer", counted)
            result = call()
        return result, sum(sizes)

    return run


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

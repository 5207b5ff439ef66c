"""Regenerate the frozen mpmath references of zeta(s, a), as float.hex.

- zeta_references.txt: the 200 seeded points of
  TestDefaultPair.test_matches_frozen_mpmath_references: numpy's
  default_rng(2015), sigma uniform in [-2, 3], t uniform in [-1e4, 1e4],
  a cycling through 1, 0.2, 0.8.
- zeta_references_high.txt: 300 points of the Riemann zeta (a = 1) where
  the head is summed over the integers coprime to 30: default_rng(2020),
  sigma uniform in [-2, 3], |t| uniform in [3000, 1e4], the sign of t
  alternating, positive first.  Then 80 zeta points whose heads lie
  within 20 terms of 200 (where the head starts to be summed over the
  integers coprime to 30) and of 800 (where it started before), on both
  sides: default_rng(2029), sigma uniform in [-2, 3], a head length
  uniform in [T - 20, T + 20] for T = 200, 800 in turn, and the height
  where zeta_em's cutoff N is that length plus one (threshold_height),
  its sign alternating every two points, positive first.
- zeta_derivative_references.txt: zeta'(s) at 120 points of the Riemann
  zeta (a = 1), the references of zeta_em_jet's derivative: 80 from
  default_rng(2031), sigma uniform in [-2, 3], t uniform in [-1e4, 1e4];
  then 40 from default_rng(2037) whose heads lie within 20 terms of 200,
  on both sides: sigma uniform in [-2, 3], a head length uniform in
  [180, 220] and its threshold_height, the sign of t alternating,
  positive first.

Each value is taken at 30 digits and rounded once to the nearest double
per component.  Needs mpmath.

    python tests/data/make_zeta_references.py          # write the files
    python tests/data/make_zeta_references.py --check  # exit 1 unless
                                                       # all match
"""

import math
import sys
from pathlib import Path

import mpmath
import numpy as np

HERE = Path(__file__).parent


def points():
    rng = np.random.default_rng(2015)
    for i in range(200):
        sigma = rng.uniform(-2.0, 3.0)
        t = rng.uniform(-1e4, 1e4)
        yield float(sigma), float(t), (1.0, 0.2, 0.8)[i % 3]


def high_points():
    rng = np.random.default_rng(2020)
    for i in range(300):
        sigma = rng.uniform(-2.0, 3.0)
        t = rng.uniform(3000.0, 1e4)
        yield float(sigma), float(t if i % 2 == 0 else -t), 1.0


def threshold_height(sigma, head):
    """|t| at which zeta_em sums head terms at sigma: Backlund's cutoff
    N = ceil(exp(log n)) of the m = 20 pair, with
    (sigma+41) log n = 42 log(|s|+41) + log(|B_42/42!| / 1e-11)
    - log(sigma+41), solved for |s| at n = N - 1/2."""
    n = head + 1
    edge = sigma + 41.0
    log_coef = float(mpmath.log(abs(mpmath.bernoulli(42))
                                / mpmath.factorial(42) / mpmath.mpf("1e-11")))
    s_abs = math.exp((edge * math.log(n - 0.5) + math.log(edge) - log_coef)
                     / 42.0) - 41.0
    return math.sqrt(s_abs * s_abs - sigma * sigma)


def threshold_points():
    rng = np.random.default_rng(2029)
    for i in range(80):
        sigma = float(rng.uniform(-2.0, 3.0))
        threshold = (200, 800)[i % 2]
        t = threshold_height(sigma, int(rng.integers(threshold - 20,
                                                     threshold + 21)))
        yield sigma, (t if i // 2 % 2 == 0 else -t), 1.0


def all_high_points():
    yield from high_points()
    yield from threshold_points()


def derivative_points():
    rng = np.random.default_rng(2031)
    for _ in range(80):
        sigma = rng.uniform(-2.0, 3.0)
        t = rng.uniform(-1e4, 1e4)
        yield float(sigma), float(t), 1.0
    rng = np.random.default_rng(2037)
    for i in range(40):
        sigma = float(rng.uniform(-2.0, 3.0))
        t = threshold_height(sigma, int(rng.integers(180, 221)))
        yield sigma, (t if i % 2 == 0 else -t), 1.0


#: Each file's points and the order of the derivative of zeta it holds.
FILES = {
    "zeta_references.txt": (points, 0),
    "zeta_references_high.txt": (all_high_points, 0),
    "zeta_derivative_references.txt": (derivative_points, 1),
}


def render(name):
    make, order = FILES[name]
    zeta = "zeta" + "'" * order
    lines = [f"# sigma t a Re({zeta}(sigma+it, a)) Im(...), float.hex; "
             f"mpmath at 30 digits, written by make_zeta_references.py"]
    with mpmath.workdps(30):
        for sigma, t, a in make():
            ref = complex(mpmath.zeta(mpmath.mpc(sigma, t), a, order))
            lines.append(" ".join(x.hex() for x in
                                  (sigma, t, a, ref.real, ref.imag)))
    return "\n".join(lines) + "\n"


def main(argv):
    if argv not in ([], ["--check"]):
        sys.exit(__doc__)
    stale = []
    for name in FILES:
        text = render(name)
        path = HERE / name
        if not argv:
            path.write_text(text, encoding="ascii")
        elif path.read_bytes() != text.encode("ascii"):
            stale.append(name)
    if stale:
        print("differs from a fresh mpmath run: " + ", ".join(stale),
              file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main(sys.argv[1:])

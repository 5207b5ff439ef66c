"""Regenerate zeta_references.txt: mpmath values of zeta(s, a) at the
200 seeded points of TestDefaultPair, as float.hex.

The points are those of test_matches_mpmath_on_seeded_points: numpy's
default_rng(2015), sigma uniform in [-2, 3], t uniform in [-1e4, 1e4],
a cycling through 1, 0.2, 0.8.  Each value is taken at 30 digits and
rounded once to the nearest double per component.  Needs mpmath.

    python tests/data/make_zeta_references.py
"""

from pathlib import Path

import mpmath
import numpy as np

OUT = Path(__file__).with_name("zeta_references.txt")


def points():
    rng = np.random.default_rng(2015)
    for i in range(200):
        sigma = rng.uniform(-2.0, 3.0)
        t = rng.uniform(-1e4, 1e4)
        yield float(sigma), float(t), (1.0, 0.2, 0.8)[i % 3]


def main():
    lines = ["# sigma t a Re(zeta(sigma+it, a)) Im(...), float.hex; "
             "mpmath at 30 digits, written by make_zeta_references.py"]
    with mpmath.workdps(30):
        for sigma, t, a in points():
            ref = complex(mpmath.zeta(mpmath.mpc(sigma, t), a))
            lines.append(" ".join(x.hex() for x in
                                  (sigma, t, a, ref.real, ref.imag)))
    OUT.write_text("\n".join(lines) + "\n", encoding="ascii")


if __name__ == "__main__":
    main()

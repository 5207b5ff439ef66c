"""Regenerate the frozen mpmath references of zeta(s, a), as float.hex.

- zeta_references.txt: the 200 seeded points of
  TestDefaultPair.test_matches_frozen_mpmath_references: numpy's
  default_rng(2015), sigma uniform in [-2, 3], t uniform in [-1e4, 1e4],
  a cycling through 1, 0.2, 0.8.
- zeta_references_high.txt: 300 points of the Riemann zeta (a = 1) where
  the head is summed over the integers coprime to 30: default_rng(2020),
  sigma uniform in [-2, 3], |t| uniform in [3000, 1e4], the sign of t
  alternating, positive first.

Each value is taken at 30 digits and rounded once to the nearest double
per component.  Needs mpmath.

    python tests/data/make_zeta_references.py          # write both files
    python tests/data/make_zeta_references.py --check  # exit 1 unless
                                                       # both match
"""

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


FILES = {
    "zeta_references.txt": points,
    "zeta_references_high.txt": high_points,
}


def render(name):
    lines = [f"# sigma t a Re(zeta(sigma+it, a)) Im(...), float.hex; "
             f"mpmath at 30 digits, written by make_zeta_references.py"]
    with mpmath.workdps(30):
        for sigma, t, a in FILES[name]():
            ref = complex(mpmath.zeta(mpmath.mpc(sigma, t), a))
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

"""A fixed unit of work that the benchmark times between operations.

Usage: python3 bench/reference.py

It starts the way an operation does (a fresh interpreter that imports
numpy) and then does a fixed amount of pure-Python work of the kinds the
program does: dictionary updates and exact Fraction elimination.  It never
imports polycrep, so no change to the program changes its time.  run.py
divides each operation's wall time by the mean time of the reference runs
just before and just after it, which takes out most of the drift in the
speed of a shared host (README, *Noise*).
"""

from fractions import Fraction

import numpy  # noqa: F401  (an operation's start-up imports it too)

SIZE = 10


def work():
    d = {}
    for i in range(60000):
        k = i * 7919 % 10007
        d[k] = d.get(k, 0) + i
    m = [[Fraction((i * 7 + j * 13) % 17 - 8, (i + j) % 5 + 1)
          for j in range(SIZE)] for i in range(SIZE)]
    for c in range(SIZE):
        p = next((r for r in range(c, SIZE) if m[r][c]), None)
        if p is None:
            continue
        m[c], m[p] = m[p], m[c]
        for r in range(c + 1, SIZE):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]


if __name__ == "__main__":
    work()

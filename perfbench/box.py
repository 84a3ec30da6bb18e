"""A blackbox for `fewvar pit --blackbox`: evaluates one circuit, written by
the benchmark's generator as JSON, at each point it reads.

Protocol: one line of space-separated rationals in, one rational out.
Standard library only, so the child costs one bare interpreter start.

    python3 box.py CIRCUIT.json
"""

import json
import sys
from fractions import Fraction


def load(path):
    with open(path) as f:
        spec = json.load(f)
    return [(Fraction(scale),
             [(support, [(Fraction(c), mon) for c, mon in poly])
              for support, poly in factors])
            for scale, factors in spec["terms"]]


def evaluate(terms, x):
    total = Fraction(0)
    for scale, factors in terms:
        prod = scale
        for support, poly in factors:
            value = Fraction(0)
            for c, mon in poly:
                for i, e in mon:
                    c = c * x[support[i]] ** e
                value += c
            prod *= value
            if not prod:
                break
        total += prod
    return total


def main(path):
    terms = load(path)
    for line in sys.stdin:
        x = [Fraction(t) for t in line.split()]
        sys.stdout.write(f"{evaluate(terms, x)}\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main(sys.argv[1])

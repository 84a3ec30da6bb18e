"""Exact arithmetic toolkit for sums of products of few-variable polynomials.

The package is organized as:

  algebra  -- sparse multivariate polynomials with plain-number coefficients
              over Q or GF(p), the scalar utilities (primes, integer
              roots), and ``Value``, the base of the classes that are
              more than records.
  circuit  -- the circuit model (weighted sums of products of polynomials that
              each touch few variables) and its transforms.
  nw       -- the combinatorial hard-polynomial family built from low-degree
              univariates over a prime field.
  measure  -- the projected-shifted-partial-derivative rank measure, random
              restrictions, and the large-parameter ratio calculators.
  pit      -- set designs, hitting-set enumeration, and the blackbox
              zero-testing drivers (deterministic and randomized).
  cli      -- the `fewvar` command-line entry point.
"""

__version__ = "0.1.0"

from .algebra import SparsePolynomial, bertrand_prime, is_prime
from .circuit import FewVarCircuit, FactorPoly

__all__ = [
    "SparsePolynomial",
    "FewVarCircuit",
    "FactorPoly",
    "bertrand_prime",
    "is_prime",
    "__version__",
]

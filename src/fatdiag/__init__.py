"""Exact invariants of permutation products and bounded-multiplicity configuration spaces.

Everything here is computed in exact integer arithmetic: the group averages
of Burnside-style counts are integer sums divided exactly by the group order,
and a remainder is reported as a bug.  Floating point is never used.

The main entry points:

  eulerchar    closed formulas and independent combinatorial oracles for
               Euler characteristics of symmetric products, ordered/unordered
               fat diagonals and their complements
  invariants   invariant Poincare polynomials of quotients X^n / G
  fundgroup    fundamental-group descriptors of the same spaces
  strata       equality-pattern stratifications: stabilizer orders counted
               by cycle partition, depth, subgroup chain length
  graphconf    Euler characteristics of two-point configuration spaces of
               graphs, with a discretized cross-check
  spaces       small model of a space (Betti numbers, H_1, pi_1 kind, parity)
  cli          the `fatdiag` command line tool
"""

from .errors import (
    FatdiagError,
    InternalConsistencyError,
    OracleMismatchError,
    ResourceGuardError,
    UnsupportedSpaceError,
)

__version__ = "0.1.0"

__all__ = [
    "FatdiagError",
    "InternalConsistencyError",
    "OracleMismatchError",
    "ResourceGuardError",
    "UnsupportedSpaceError",
    "__version__",
]

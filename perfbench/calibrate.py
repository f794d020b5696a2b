"""Fixed, fatdiag-independent work used to track the machine's speed.

The benchmark runs this script as a subprocess between workload commands.
Its wall time moves with the host's speed (the sandbox's processor speed
drifts by +-25% over tens of seconds) the way a fatdiag command's does:
it starts an interpreter, imports the standard-library modules the CLI
imports, and does big-integer, Fraction and dict work of the kind the
package does.  It reads no repository file, so no change to the program
can change it.
"""

import argparse  # noqa: F401
import dataclasses  # noqa: F401
import json  # noqa: F401
import re  # noqa: F401
from fractions import Fraction

total = Fraction(0)
for k in range(1, 400):
    total += Fraction(1, k * k)
x = 1
for k in range(1, 3000):
    x = x * k % (1 << 521)
table = {}
for k in range(20000):
    table[k % 977] = table.get(k % 977, 0) + k

"""Stdlib reference values for the correctness gate.

These follow the generating functions, not the package's code:

  chi_sp(chi, n)         [q^n] (1 - q)^(-chi)
  chi_b_upper(chi, n, d) [q^n] ((1 - q^(d+1)) / (1 - q))^chi
                         = sum_j (-1)^j C(chi, j) chi_sp(chi, n - j(d+1))
  chi_bd(chi, n, d)      chi_sp(chi, n) - chi_b_upper(chi, n, d - 1),
                         the complement identity
  chi_fd(chi, n, d)      chi^n - n! [x^n] (sum_{j<d} x^j / j!)^chi, the
                         power taken with J.C.P. Miller's recurrence, which
                         also holds for negative chi

plus the two closed forms for the S_n rows of the group workload:
Macdonald's generating function for the Poincare polynomial of a
symmetric product, and the longest subgroup chain of S_n.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


def binomial_gen(a: int, k: int) -> int:
    """a (a-1) ... (a-k+1) / k!, for any integer a."""
    num = 1
    for j in range(k):
        num *= a - j
    return num // math.factorial(k)


def chi_sp(chi: int, n: int) -> int:
    return binomial_gen(chi + n - 1, n)


def chi_b_upper(chi: int, n: int, d: int) -> int:
    return sum((-1) ** j * binomial_gen(chi, j) * chi_sp(chi, n - j * (d + 1))
               for j in range(n // (d + 1) + 1))


def chi_bd(chi: int, n: int, d: int) -> int:
    return chi_sp(chi, n) - chi_b_upper(chi, n, d - 1)


@lru_cache(maxsize=256)
def _truncated_exp_power(chi: int, d: int, n_max: int) -> tuple[Fraction, ...]:
    """Coefficients g_0..g_{n_max} of (sum_{j<d} x^j/j!)^chi.

    Miller: with f_0 = 1, k g_k = sum_{j=1}^{k} ((chi + 1) j - k) f_j g_{k-j}.
    """
    f = [Fraction(1, math.factorial(j)) for j in range(d)]
    g = [Fraction(1)]
    for k in range(1, n_max + 1):
        acc = Fraction(0)
        for j in range(1, min(k, d - 1) + 1):
            acc += ((chi + 1) * j - k) * f[j] * g[k - j]
        g.append(acc / k)
    return tuple(g)


def chi_fd(chi: int, n: int, d: int) -> int:
    bounded = _truncated_exp_power(chi, d, max(n, 64))[n] * math.factorial(n)
    assert bounded.denominator == 1
    return chi**n - int(bounded)


def value(kind: str, chi: int, n: int, d: int | None = None) -> int:
    """Reference value of `fatdiag chi <kind>`."""
    if kind == "sp":
        return chi_sp(chi, n)
    return {"bd": chi_bd, "fd": chi_fd, "bupper": chi_b_upper}[kind](chi, n, d)


def identity_violation(kind: str, chi: int, n: int, d: int | None, got: int) -> str | None:
    """Identities any correct value satisfies, independent of the formulas:
    every locus vanishes at chi = 0, the thin diagonal (d = n) of the fat
    diagonals is a copy of X, and bounding multiplicity by n bounds nothing."""
    if chi == 0 and n >= 1 and got != 0:
        return f"chi = 0 but value {got}"
    if kind in ("bd", "fd") and d == n and got != chi:
        return f"thin diagonal d = n = {n} gave {got}, not chi = {chi}"
    if kind == "bupper" and d == n and got != chi_sp(chi, n):
        return f"bupper at d = n = {n} gave {got}, not chi_sp = {chi_sp(chi, n)}"
    return None


def macdonald(betti: tuple[int, ...], n: int) -> dict[int, int]:
    """Poincare polynomial of the n-th symmetric product as degree -> rank:
    [q^n] of prod_i (1 + q t^i)^b_i (i odd) / (1 - q t^i)^b_i (i even)."""
    series: list[dict[int, int]] = [{0: 1}] + [{} for _ in range(n)]
    for deg, b in enumerate(betti):
        for _ in range(b):
            order = range(n, 0, -1) if deg % 2 else range(1, n + 1)
            for a in order:
                for t, c in series[a - 1].items():
                    series[a][t + deg] = series[a].get(t + deg, 0) + c
    return {t: c for t, c in series[n].items() if c}


def length_sn(n: int) -> int:
    """Longest subgroup chain in S_n (Cameron-Solomon-Turull)."""
    return (3 * n - 1) // 2 - bin(n).count("1")


def graph_chi2(vertices, edges) -> int:
    """chi of ordered two-point configurations on a connected graph:
    chi^2 + chi - sum over vertices of (deg - 1)(deg - 2)."""
    chi = len(vertices) - len(edges)
    degree = {v: 0 for v in vertices}
    for a, b in edges:
        degree[a] += 1
        degree[b] += 1
    return chi * chi + chi - sum((k - 1) * (k - 2) for k in degree.values())

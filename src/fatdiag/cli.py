"""Command line interface.

Every computation prints a single JSON envelope on stdout:

    {"schema": "fatdiag/1", "command": "chi bd", "inputs": {...},
     "result": ..., "oracle_results": {...}}

Exact integers in results are serialized as decimal strings so no JSON
consumer can round them, under a guard on their size (exit 4); polynomial
results are degree -> coefficient maps; group expressions are structured
objects.  Diagnostics go to stderr only, and identical invocations
produce byte-identical stdout.

Exit codes: 0 success, 1 usage error, 2 unsupported space or parity,
3 oracle or verification mismatch, 4 resource guard tripped, 5 internal
error (a bug: the traceback goes to stderr and stdout stays empty).

Start-up imports only argparse, json, sys and the error types; each
command imports the modules it runs when it runs, so `chi sp` never loads
the group, strata, graph or verification code.

Examples:

    fatdiag chi sp --space torus -n 5
    fatdiag chi bd --space sphere:2 -n 4 -d 2 --verify
    fatdiag chi bd --space sphere:2 -n 2..8 -d 2..8 --csv
    fatdiag betti gamma --space torus --degree 3 --gens "(1 2 3)"
    fatdiag pi1 bd --space circle -n 4 -d 2
    fatdiag strata depth --degree 4 --gens "(1 2 3 4); (1 2)"
    fatdiag graph chi2 --graph gamma1 --oracle
    fatdiag verify --suite fast
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import (
    FatdiagError,
    InternalConsistencyError,
    OracleMismatchError,
    ResourceGuardError,
    UnsupportedSpaceError,
    check_guard,
)

SCHEMA = "fatdiag/1"
# Largest exact result printed, in bits: about 300000 decimal digits, whose
# conversion (quadratic in the length) takes about two seconds.
MAX_RESULT_BITS = 10**6


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exceptions (exit code 1)."""

    def error(self, message):
        raise UsageError(message)


def _emit(command: str, inputs: dict, result, oracle_results=None) -> None:
    envelope = {"schema": SCHEMA, "command": command, "inputs": inputs, "result": result}
    if oracle_results is not None:
        envelope["oracle_results"] = oracle_results
    print(json.dumps(envelope, sort_keys=True))


def _exact(value: int) -> str:
    """Decimal string of an exact integer result.

    Python refuses str() on integers over 4300 digits by default, because
    the conversion is quadratic in the length; the limit is lifted for this
    conversion only, and the result is guarded on its size instead.
    """
    check_guard(value.bit_length(), MAX_RESULT_BITS, "result size")
    if not hasattr(sys, "set_int_max_str_digits"):  # no limit before 3.10.7
        return str(value)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


def _parse_range(text: str, what: str) -> list[int]:
    """Parse "4" or "2..8" (inclusive)."""
    text = text.strip()
    if ".." in text:
        lo, _, hi = text.partition("..")
        try:
            lo_i, hi_i = int(lo), int(hi)
        except ValueError:
            raise UsageError(f"bad {what} range {text!r}")
        if hi_i < lo_i:
            raise UsageError(f"empty {what} range {text!r}")
        return list(range(lo_i, hi_i + 1))
    try:
        return [int(text)]
    except ValueError:
        raise UsageError(f"bad {what} value {text!r}")


def _space(args):
    from .spaces import parse_space

    try:
        return parse_space(args.space)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"bad --space: {exc}")


def _group(args):
    from .permgroup import PermutationGroupModel

    gens = [chunk for chunk in (args.gens or "").split(";") if chunk.strip()]
    try:
        return PermutationGroupModel(args.degree, gens)
    except ValueError as exc:
        raise UsageError(f"bad --degree or --gens: {exc}")


def _space_echo(space) -> dict:
    return {
        "label": space.label,
        "betti": list(space.betti),
        "euler": str(space.euler()),
        "parity": space.parity,
    }


def _expression_payload(expr) -> dict:
    payload = {
        "display": expr.display(),
        "pi1_exponent": str(expr.pi1_exponent),
        "h1_exponent": str(expr.h1_exponent),
        "pi1_kind": expr.pi1_kind,
        "qualifier": "exact",
    }
    if expr.is_concrete():
        group = expr.abelian_descriptor()
        payload["abelian"] = {
            "rank": str(group.rank),
            "torsion": [str(t) for t in group.torsion],
            "display": str(group),
        }
    else:
        payload["abelian"] = None
    return payload


def _chi_oracles(kind: str, chi: int, n: int, d: int) -> dict[str, int]:
    from .eulerchar import (
        chi_b2,
        chi_f2,
        chi_sp,
        oracle_bd_burnside,
        oracle_fd_setpartitions,
        stratification_sum_bd,
    )

    if kind == "bd":
        oracles = {
            "cycle_type_average": oracle_bd_burnside(chi, n, d),
            "stratification_sum": stratification_sum_bd(chi, n, d),
        }
        if d == 2:
            oracles["closed_d2_form"] = chi_b2(chi, n)
        return oracles
    if kind == "fd":
        oracles = {"set_partition_sum": oracle_fd_setpartitions(chi, n, d)}
        if d == 2:
            oracles["closed_d2_form"] = chi_f2(chi, n)
        return oracles
    # bupper: complement against the strata of the fat diagonal one level
    # up, summed directly so that the check does not reuse chi_b_upper
    if d < n:
        return {"complement": chi_sp(chi, n) - stratification_sum_bd(chi, n, d + 1)}
    return {"complement": chi_sp(chi, n)}


def _cmd_chi(args) -> int:
    from .eulerchar import chi_b_upper, chi_bd, chi_fd, chi_sp

    space = _space(args)
    chi = space.euler()
    kind = args.variant
    if kind == "sp":
        ns = _parse_range(args.n, "-n")
        if len(ns) != 1:
            raise UsageError("chi sp takes a single -n")
        n = ns[0]
        if n < 0:
            raise UsageError("-n must be >= 0")
        _emit(
            "chi sp",
            {"space": _space_echo(space), "n": n},
            _exact(chi_sp(chi, n)),
        )
        return 0

    formula = {"bd": chi_bd, "fd": chi_fd, "bupper": chi_b_upper}[kind]
    d_min = 1 if kind == "bupper" else 2
    ns = _parse_range(args.n, "-n")
    ds = _parse_range(args.d, "-d")
    cells = [(n, d) for n in ns for d in ds if d_min <= d <= n]
    if not cells:
        raise UsageError(f"no valid (n, d) pairs with {d_min} <= d <= n in the ranges")
    grid = len(cells) > 1

    rows = []
    for n, d in cells:
        value = formula(chi, n, d, space.parity)
        oracles = None
        if args.verify:
            oracles = _chi_oracles(kind, chi, n, d)
            bad = {name: got for name, got in oracles.items() if got != value}
            if bad:
                detail = ", ".join(f"{name}={got}" for name, got in sorted(bad.items()))
                raise OracleMismatchError(
                    f"chi {kind}({chi}, {n}, {d}) = {value} but {detail}"
                )
        rows.append((n, d, value, oracles))

    if args.csv:
        lines = [f"{n},{d},{_exact(value)}" for n, d, value, _ in rows]
        print("\n".join(["n,d,value"] + lines))
        return 0

    inputs = {"space": _space_echo(space), "n": args.n, "d": args.d, "verify": bool(args.verify)}
    if grid:
        result = [{"n": n, "d": d, "value": _exact(v)} for n, d, v, _ in rows]
        _emit(f"chi {kind}", inputs, result)
    else:
        n, d, value, oracles = rows[0]
        oracle_payload = (
            {name: _exact(got) for name, got in sorted(oracles.items())} if oracles else None
        )
        _emit(f"chi {kind}", inputs, _exact(value), oracle_payload)
    return 0


def _cmd_chi_gamma(args) -> int:
    from .eulerchar import chi_gamma_product

    space = _space(args)
    group = _group(args)
    value = chi_gamma_product(space.euler(), group)
    _emit(
        "chi gamma",
        {"space": _space_echo(space), "degree": args.degree, "gens": args.gens,
         "group_order": str(group.order())},
        _exact(value),
    )
    return 0


def _cmd_betti_gamma(args) -> int:
    from .invariants import invariant_poincare

    space = _space(args)
    group = _group(args)
    poly = invariant_poincare(space.poincare(), group)
    result = {str(deg): _exact(c) for deg, c in sorted(poly.coefficients().items())}
    _emit(
        "betti gamma",
        {"space": _space_echo(space), "degree": args.degree, "gens": args.gens,
         "group_order": str(group.order())},
        result,
    )
    return 0


def _cmd_pi1(args) -> int:
    from .fundgroup import pi1_bd, pi1_gamma_product

    space = _space(args)
    if args.variant == "bd":
        ns = _parse_range(args.n, "-n")
        ds = _parse_range(args.d, "-d")
        if len(ns) != 1 or len(ds) != 1:
            raise UsageError("pi1 bd takes single -n and -d")
        try:
            expr = pi1_bd(space, ns[0], ds[0])
        except ValueError as exc:
            raise UsageError(str(exc))
        _emit(
            "pi1 bd",
            {"space": _space_echo(space), "n": ns[0], "d": ds[0]},
            _expression_payload(expr),
        )
    else:
        group = _group(args)
        expr = pi1_gamma_product(space, group)
        _emit(
            "pi1 gamma",
            {"space": _space_echo(space), "degree": args.degree, "gens": args.gens,
             "group_order": str(group.order())},
            _expression_payload(expr),
        )
    return 0


def _cmd_strata(args) -> int:
    from .strata import depth, group_length

    group = _group(args)
    value = depth(group) if args.variant == "depth" else group_length(group)
    _emit(
        f"strata {args.variant}",
        {"degree": args.degree, "gens": args.gens, "group_order": str(group.order())},
        str(value),
    )
    return 0


def _cmd_graph(args) -> int:
    from .graphconf import discretized_chi_f2, farber_chi_f2, fixture, graph_from_json

    ref = args.graph
    try:
        if ref in ("gamma1", "gamma2"):
            graph = fixture(ref)
        elif ref.strip().startswith("{"):
            graph = graph_from_json(ref)
        else:
            with open(ref, "r", encoding="utf-8") as fh:
                graph = graph_from_json(json.load(fh))
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"bad --graph: {exc}")
    try:
        value = farber_chi_f2(graph)
    except ValueError as exc:
        raise UsageError(str(exc))
    oracles = None
    if args.oracle:
        cell_count = discretized_chi_f2(graph)
        if cell_count != value:
            raise OracleMismatchError(
                f"graph chi2 = {value} but discretized count = {cell_count}"
            )
        oracles = {"discretized": str(cell_count)}
    _emit(
        "graph chi2",
        {"graph": ref, "vertices": graph.num_vertices, "edges": graph.num_edges,
         "oracle": bool(args.oracle)},
        str(value),
        oracles,
    )
    return 0


def _cmd_verify(args) -> int:
    from .selfcheck import run_suite

    outcomes = run_suite(args.suite)
    for item in outcomes:
        status = "ok" if item.passed else "FAIL"
        print(f"{status:4s} {item.name}: {item.detail} ({item.elapsed:.2f}s)",
              file=sys.stderr)
    failed = [o for o in outcomes if not o.passed]
    result = {
        "suite": args.suite,
        "passed": str(len(outcomes) - len(failed)),
        "failed": str(len(failed)),
        "checks": [
            {"name": o.name, "status": "ok" if o.passed else "fail"} for o in outcomes
        ],
    }
    _emit("verify", {"suite": args.suite}, result)
    return 3 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fatdiag",
        description="Exact invariants of permutation products and fat diagonals",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_space(p):
        p.add_argument("--space", required=True,
                       help="preset, 'A x B' product, inline JSON, or *.json path")

    def add_group(p):
        p.add_argument("--degree", type=int, required=True, help="number of points")
        p.add_argument("--gens", default="",
                       help="generators in cycle notation, ';'-separated; empty = trivial")

    chi = sub.add_parser("chi", help="Euler characteristics")
    chi_sub = chi.add_subparsers(dest="variant", required=True, parser_class=_Parser)
    p = chi_sub.add_parser("sp", help="symmetric product")
    add_space(p)
    p.add_argument("-n", required=True, help="number of points")
    p.set_defaults(handler=_cmd_chi)
    for variant, blurb in (
        ("bd", "unordered fat diagonal (multiplicity >= d)"),
        ("fd", "ordered fat diagonal (multiplicity >= d)"),
        ("bupper", "multiplicity-bounded symmetric product (multiplicity <= d)"),
    ):
        p = chi_sub.add_parser(variant, help=blurb)
        add_space(p)
        p.add_argument("-n", required=True, help="number of points, or range A..B")
        p.add_argument("-d", required=True, help="multiplicity bound, or range A..B")
        p.add_argument("--verify", action="store_true",
                       help="also run the independent oracles; mismatch exits 3")
        p.add_argument("--csv", action="store_true", help="emit an n,d,value table")
        p.set_defaults(handler=_cmd_chi)
    p = chi_sub.add_parser("gamma", help="quotient of a cartesian power by a group")
    add_space(p)
    add_group(p)
    p.set_defaults(handler=_cmd_chi_gamma)

    betti = sub.add_parser("betti", help="rational Betti numbers")
    betti_sub = betti.add_subparsers(dest="variant", required=True, parser_class=_Parser)
    p = betti_sub.add_parser("gamma", help="quotient of a cartesian power by a group")
    add_space(p)
    add_group(p)
    p.set_defaults(handler=_cmd_betti_gamma)

    pi1 = sub.add_parser("pi1", help="fundamental-group descriptors")
    pi1_sub = pi1.add_subparsers(dest="variant", required=True, parser_class=_Parser)
    p = pi1_sub.add_parser("bd", help="unordered fat diagonal")
    add_space(p)
    p.add_argument("-n", required=True)
    p.add_argument("-d", required=True)
    p.set_defaults(handler=_cmd_pi1)
    p = pi1_sub.add_parser("gamma", help="quotient of a cartesian power")
    add_space(p)
    add_group(p)
    p.set_defaults(handler=_cmd_pi1)

    strata = sub.add_parser("strata", help="stratification invariants")
    strata_sub = strata.add_subparsers(dest="variant", required=True, parser_class=_Parser)
    for variant, blurb in (
        ("depth", "depth of the equality-pattern stratification"),
        ("length", "longest subgroup chain of the group"),
    ):
        p = strata_sub.add_parser(variant, help=blurb)
        add_group(p)
        p.set_defaults(handler=_cmd_strata)

    graph = sub.add_parser("graph", help="graph configuration spaces")
    graph_sub = graph.add_subparsers(dest="variant", required=True, parser_class=_Parser)
    p = graph_sub.add_parser("chi2", help="two-point configuration space")
    p.add_argument("--graph", required=True,
                   help="fixture name (gamma1, gamma2), inline JSON, or *.json path")
    p.add_argument("--oracle", action="store_true",
                   help="also run the discretized cell count; mismatch exits 3")
    p.set_defaults(handler=_cmd_graph)

    p = sub.add_parser("verify", help="run the verification battery")
    p.add_argument("--suite", choices=("all", "fast"), default="all")
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except UnsupportedSpaceError as exc:
        print(f"unsupported space: {exc}", file=sys.stderr)
        return 2
    except OracleMismatchError as exc:
        print(f"oracle mismatch: {exc}", file=sys.stderr)
        return 3
    except ResourceGuardError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 4
    except InternalConsistencyError:
        return _internal_error()
    except FatdiagError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        return _internal_error()


def _internal_error() -> int:
    """A bug, not an input problem: the traceback goes to stderr, exit 5."""
    import traceback

    traceback.print_exc()
    return 5


if __name__ == "__main__":
    sys.exit(main())

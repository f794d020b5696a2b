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

Options: `--opt value` or `--opt=value` (`-n5` too); the last of a
repeated option wins, and the word after a value option is always its
value, so `--degree -1` reaches the group model.  Abbreviations, unknown
options, stray words, a missing value, a bad integer or a bad choice are
usage errors.  `-h` or `--help` prints usage lines made from the COMMANDS
table.  A grid of `chi bd|fd|bupper` is guarded on its cell count and on
the summed estimated work of its cells before any cell is built.

Start-up imports only sys, types and the error types, and argv is read
in one pass against the COMMANDS table; each command imports the modules
it runs when it runs, so `chi sp` never loads the group, strata, graph or
verification code.  The envelope is written by a small encoder whose
bytes are those of json.dumps(envelope, sort_keys=True), and json itself
is loaded only to parse a JSON --space or --graph.

Examples:

    fatdiag chi sp --space torus -n 5
    fatdiag chi bd --space sphere:2 -n 4 -d 2 --verify
    fatdiag chi bd --space sphere:2 -n 2..8 -d 2..8 --csv
    fatdiag betti gamma --space torus --degree 3 --gens "(1 2 3)"
    fatdiag pi1 bd --space circle -n 4 -d 2
    fatdiag strata depth --degree 4 --gens "(1 2 3 4); (1 2)"
    fatdiag graph chi2 --graph gamma1 --oracle
    fatdiag verify --suite=fast
    fatdiag chi --help
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

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
# Most (n, d) cells in one chi grid, checked before any cell is built.
MAX_GRID_CELLS = 10**5


class UsageError(Exception):
    pass


_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t",
            "\b": "\\b", "\f": "\\f"}


def _string(text: str) -> str:
    """text as a JSON string, every character outside printable ASCII
    escaped (astral ones as surrogate pairs), as json.dumps writes it."""
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return f'"{text}"'
    out = []
    for ch in text:
        code = ord(ch)
        if ch in _ESCAPES:
            out.append(_ESCAPES[ch])
        elif 0x20 <= code < 0x7F:
            out.append(ch)
        elif code < 0x10000:
            out.append(f"\\u{code:04x}")
        else:
            code -= 0x10000
            out.append(f"\\u{0xD800 | code >> 10:04x}\\u{0xDC00 | code & 0x3FF:04x}")
    return '"' + "".join(out) + '"'


def _scalar(value) -> str | None:
    """A JSON scalar as json.dumps writes it (NaN and the infinities as
    the bare words it allows), or None for any other value."""
    if value is None or isinstance(value, bool):
        return {None: "null", True: "true", False: "false"}[value]
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value in (float("inf"), float("-inf")):
            return "Infinity" if value > 0 else "-Infinity"
        return float.__repr__(value)
    return None


def _encode(value) -> str:
    """The bytes of json.dumps(value, sort_keys=True), without loading the
    json module: a JSON --space label can hold any JSON value, so every
    kind of value is covered.  Keys are sorted before they are turned into
    strings, as json.dumps sorts them."""
    if isinstance(value, str):
        return _string(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(map(_encode, value)) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(
            _string(key if isinstance(key, str) else _scalar(key)) + ": " + _encode(item)
            for key, item in sorted(value.items())) + "}"
    text = _scalar(value)
    if text is None:
        raise TypeError(f"{type(value).__name__} is not JSON serializable")
    return text


def _emit(command: str, inputs: dict, result, oracle_results=None) -> None:
    envelope = {"schema": SCHEMA, "command": command, "inputs": inputs, "result": result}
    if oracle_results is not None:
        envelope["oracle_results"] = oracle_results
    print(_encode(envelope))


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


def _parse_range(text: str, what: str) -> tuple[int, int]:
    """Bounds of "4" or "2..8" (inclusive)."""
    text = text.strip()
    if ".." in text:
        lo, _, hi = text.partition("..")
        try:
            lo_i, hi_i = int(lo), int(hi)
        except ValueError:
            raise UsageError(f"bad {what} range {text!r}")
        if hi_i < lo_i:
            raise UsageError(f"empty {what} range {text!r}")
        return lo_i, hi_i
    try:
        value = int(text)
    except ValueError:
        raise UsageError(f"bad {what} value {text!r}")
    return value, value


def _grid(ns: tuple[int, int], ds: tuple[int, int], d_min: int) -> list[tuple[int, int]]:
    """The cells (n, d) of the ranges with d_min <= d <= n, row by row.
    They are counted, and the count guarded, before any is built."""
    d_lo, d_hi = max(ds[0], d_min), min(ds[1], ns[1])
    n_lo, n_hi = max(ns[0], d_lo), ns[1]
    if d_lo > d_hi or n_lo > n_hi:
        return []
    # rows n < d_hi hold n - d_lo + 1 cells, the others d_hi - d_lo + 1
    first, last = n_lo - d_lo + 1, min(n_hi, d_hi - 1) - d_lo + 1
    count = (first + last) * (last - first + 1) // 2 if last >= first else 0
    count += max(0, n_hi - max(n_lo, d_hi) + 1) * (d_hi - d_lo + 1)
    check_guard(count, MAX_GRID_CELLS, "grid cells")
    return [(n, d) for n in range(n_lo, n_hi + 1) for d in range(d_lo, min(n, d_hi) + 1)]


def _space(args):
    from .spaces import parse_space

    try:
        return parse_space(args.space)
    except (ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
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
    from .eulerchar import (
        MAX_FORMULA_WORK,
        chi_b_upper,
        chi_b_upper_work,
        chi_bd,
        chi_bd_work,
        chi_fd,
        chi_fd_work,
        chi_sp,
    )

    space = _space(args)
    chi = space.euler()
    kind = args.variant
    if kind == "sp":
        n, n_hi = _parse_range(args.n, "-n")
        if n != n_hi:
            raise UsageError("chi sp takes a single -n")
        if n < 0:
            raise UsageError("-n must be >= 0")
        _emit(
            "chi sp",
            {"space": _space_echo(space), "n": n},
            _exact(chi_sp(chi, n)),
        )
        return 0

    formula, work = {"bd": (chi_bd, chi_bd_work), "fd": (chi_fd, chi_fd_work),
                     "bupper": (chi_b_upper, chi_b_upper_work)}[kind]
    d_min = 1 if kind == "bupper" else 2
    cells = _grid(_parse_range(args.n, "-n"), _parse_range(args.d, "-d"), d_min)
    if not cells:
        raise UsageError(f"no valid (n, d) pairs with {d_min} <= d <= n in the ranges")
    grid = len(cells) > 1
    if grid:  # a single cell is guarded by its formula, after its parity gate
        check_guard(sum(work(n, d) for n, d in cells), MAX_FORMULA_WORK,
                    "closed formula work")

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
        (n, n_hi), (d, d_hi) = _parse_range(args.n, "-n"), _parse_range(args.d, "-d")
        if n != n_hi or d != d_hi:
            raise UsageError("pi1 bd takes single -n and -d")
        try:
            expr = pi1_bd(space, n, d)
        except ValueError as exc:
            raise UsageError(str(exc))
        _emit(
            "pi1 bd",
            {"space": _space_echo(space), "n": n, "d": d},
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
            import json

            with open(ref, "r", encoding="utf-8") as fh:
                graph = graph_from_json(json.load(fh))
    except (ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
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


# Options by name: (kind, default).  The kind is str or int for a value,
# bool for a switch, or a tuple of the values allowed; None as the default
# makes the option required.
_SPACE = {"--space": (str, None)}
_GROUP = {"--degree": (int, None), "--gens": (str, "")}
_N_D = {"-n": (str, None), "-d": (str, None)}
_CHI_GRID = {**_SPACE, **_N_D, "--verify": (bool, False), "--csv": (bool, False)}

# (command, variant) -> (handler, options, summary); verify has no variant.
COMMANDS = {
    ("chi", "sp"): (_cmd_chi, {**_SPACE, "-n": (str, None)}, "symmetric product"),
    ("chi", "bd"): (_cmd_chi, _CHI_GRID, "unordered fat diagonal (multiplicity >= d)"),
    ("chi", "fd"): (_cmd_chi, _CHI_GRID, "ordered fat diagonal (multiplicity >= d)"),
    ("chi", "bupper"): (_cmd_chi, _CHI_GRID,
                        "multiplicity-bounded symmetric product (multiplicity <= d)"),
    ("chi", "gamma"): (_cmd_chi_gamma, {**_SPACE, **_GROUP},
                       "quotient of a cartesian power by a group"),
    ("betti", "gamma"): (_cmd_betti_gamma, {**_SPACE, **_GROUP},
                         "rational Betti numbers of the quotient by a group"),
    ("pi1", "bd"): (_cmd_pi1, {**_SPACE, **_N_D},
                    "fundamental group of the unordered fat diagonal"),
    ("pi1", "gamma"): (_cmd_pi1, {**_SPACE, **_GROUP},
                       "fundamental group of the quotient by a group"),
    ("strata", "depth"): (_cmd_strata, _GROUP, "depth of the equality-pattern stratification"),
    ("strata", "length"): (_cmd_strata, _GROUP, "longest subgroup chain of the group"),
    ("graph", "chi2"): (_cmd_graph, {"--graph": (str, None), "--oracle": (bool, False)},
                        "two-point configuration space of a graph"),
    ("verify", None): (_cmd_verify, {"--suite": (("all", "fast"), "all")},
                       "run the verification battery"),
}
# command -> its variants, in table order
_VARIANTS = {c: [v for c2, v in COMMANDS if c2 == c] for c, _ in COMMANDS}
_HELP = ("-h", "--help")

_OPTION_HELP = """\
--space   preset, 'A x B' product, inline JSON, or *.json path
-n, -d    number of points and multiplicity bound; chi bd|fd|bupper take
          ranges A..B and print a grid (--csv: an n,d,value table)
--degree  number of points the group acts on
--gens    generators in cycle notation, ';'-separated; empty = trivial
--graph   fixture name (gamma1, gamma2), inline JSON, or *.json path
--verify, --oracle
          also run the independent oracles; a mismatch exits 3
An option takes its value as the next word or after '='; the last of a
repeated option wins.  Exit codes: 0 ok, 1 usage, 2 unsupported space,
3 mismatch, 4 resource guard, 5 internal error."""


def _usage(command: str | None) -> str:
    """Usage lines of every command, or of one, generated from COMMANDS."""
    lines = ["usage: fatdiag COMMAND [VARIANT] [OPTIONS]", ""]
    for (name, variant), (_, options, summary) in COMMANDS.items():
        if command not in (None, name):
            continue
        words = ["fatdiag", name] + ([variant] if variant else [])
        for option, (kind, default) in options.items():
            if kind is bool:
                words.append(f"[{option}]")
                continue
            if isinstance(kind, tuple):
                meta = "{" + ",".join(kind) + "}"
            else:
                meta = option.lstrip("-").upper()
            words.append(f"{option} {meta}" if default is None else f"[{option} {meta}]")
        lines += ["  " + " ".join(words), f"      {summary}"]
    return "\n".join(lines + ["", _OPTION_HELP])


def _cmd_help(args) -> int:
    print(_usage(args.command))
    return 0


def _check_word(word: str | None, choices, what: str) -> None:
    if word not in choices:
        got = f"unknown {what} {word!r}" if word is not None else f"missing {what}"
        raise UsageError(f"{got}; choose from {', '.join(choices)}")


def _parse(argv: list[str]):
    """The handler for argv and its arguments, read in one pass.

    The word after a value option is always its value, so `--degree -1`
    reaches the group model.  -h or --help where a command word or an
    option may stand gives the usage handler.
    """
    tokens = iter(argv)
    command = next(tokens, None)
    if command in _HELP:
        return _cmd_help, SimpleNamespace(command=None)
    _check_word(command, _VARIANTS, "command")
    variant = None
    if _VARIANTS[command] != [None]:
        variant = next(tokens, None)
        if variant in _HELP:
            return _cmd_help, SimpleNamespace(command=command)
        _check_word(variant, _VARIANTS[command], f"{command} variant")
    handler, options, _ = COMMANDS[command, variant]

    given = {}
    for tok in tokens:
        if tok in _HELP:
            return _cmd_help, SimpleNamespace(command=command)
        name, eq, value = tok.partition("=")
        if name not in options and tok[:2] in options:  # -n5
            name, eq, value = tok[:2], "=", tok[2:]
        if name not in options:
            what = "option" if tok.startswith("-") else "argument"
            raise UsageError(f"unknown {what} {tok!r}")
        if options[name][0] is bool:
            if eq:
                raise UsageError(f"{name} takes no value")
            value = True
        elif not eq:
            value = next(tokens, None)
            if value is None:
                raise UsageError(f"{name} needs a value")
        given[name] = value

    args = SimpleNamespace(command=command, variant=variant)
    for name, (kind, default) in options.items():
        value = given.get(name, default)
        if value is None:
            raise UsageError(f"missing {name}")
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise UsageError(f"{name} takes an integer, got {value!r}")
        elif isinstance(kind, tuple) and value not in kind:
            raise UsageError(f"{name} takes one of {', '.join(kind)}, got {value!r}")
        setattr(args, name.lstrip("-"), value)
    return handler, args


def main(argv=None) -> int:
    try:
        handler, args = _parse(sys.argv[1:] if argv is None else list(argv))
        return handler(args)
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

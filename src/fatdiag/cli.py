"""Command line interface.

Every computation prints a single JSON envelope on stdout:

    {"schema": "fatdiag/1", "command": "chi bd", "inputs": {...},
     "result": ..., "oracle_results": {...}}

Every exact integer of a result, an echo or a count is written by _exact:
a decimal string no JSON consumer can round, of any length past Python's
4300-digit str() limit, under a guard on its size (exit 4).  The Betti
numbers echoed with a space stay JSON integers, under one guard on their
total size, and the envelope is written past that limit too.  Polynomial
results are degree -> coefficient maps; group expressions are structured
objects, whose abelian group is guarded on its printed size before it is
built.  The five commands on a group, chi|betti|pi1 gamma and strata
depth|length, share one handler that parses the space and the group and
writes their echo.  Diagnostics go to stderr only, and identical
invocations produce byte-identical stdout.

Exit codes: 0 success, 1 usage error, 2 unsupported space or parity,
3 oracle or verification mismatch, 4 resource guard tripped, 5 internal
error (a bug: the traceback goes to stderr and stdout stays empty).  Each
error class carries its exit code and stderr label (errors).

Options: `--opt value` or `--opt=value` (`-n5` too); the last of a
repeated option wins, and the word after a value option is always its
value, so `--degree -1` reaches the group model.  Abbreviations, unknown
options, stray words, a missing value, a bad integer or a bad choice are
usage errors (UsageError, a FatdiagError: exit 1).  Every integer typed,
in an option, a range, a preset parameter or a cycle point, is read by
errors._integer: ASCII digits with at most one sign.  The -n and -d of
`chi bd|fd|bupper` are ranges ("4" or "2..8"), read by the parser and
echoed as their canonical text ("4", "2..8").  `-h` or `--help` prints
usage lines made from the COMMANDS table.  A grid of `chi bd|fd|bupper`
builds one power-series column per d and reads its cells from them; it
is guarded on its cell count, the work of its columns and, for chi >= 1
or chi <= -32 n^2, a lower bound on a result's size before any column is
built.  Once its cells are counted, and before the size bound, it asks
the one manifold gate, eulerchar.require_manifold, of the space's parity
(exit 2); every other command takes a space of any parity.  `chi
--verify` (every cell, against eulerchar.chi_oracles) and `graph chi2
--oracle` make one comparison, _check_oracles, which names every oracle
that disagrees.

Start-up imports only os, sys, types and the error types, and argv is
read in one pass against the COMMANDS table; each command imports the
modules it runs when it runs, so `chi sp` never loads the group, strata,
graph or verification code.  No command loads json: the envelope is
written by a small encoder whose bytes are those of
json.dumps(envelope, sort_keys=True), and a JSON --space or --graph is
read by jsonread.  The `fatdiag` command and `python -m fatdiag.cli` end
through run(): once stdout and stderr are flushed the process exits
without the interpreter's teardown, which saves about 15 ms a command.

Examples:

    fatdiag chi sp --space torus -n 5
    fatdiag chi bd --space sphere:2 -n 4 -d 2 --verify
    fatdiag chi bd --space sphere:2 -n 2..8 -d 2..8 --csv
    fatdiag betti gamma --space torus --degree 3 --gens "(1 2 3)"
    fatdiag pi1 bd --space circle -n 4 -d 2
    fatdiag strata depth --degree 4 --gens "(1 2 3 4); (1 2)"
    fatdiag graph chi2 --graph gamma1 --oracle
    fatdiag verify
    fatdiag chi --help
"""

import os
import sys
from types import SimpleNamespace

from .errors import (
    FatdiagError,
    InternalConsistencyError,
    OracleMismatchError,
    _integer,
    check_guard,
)

SCHEMA = "fatdiag/1"
# Largest exact result printed, in bits: about 300000 decimal digits, whose
# conversion (quadratic in the length) takes about two seconds.
MAX_RESULT_BITS = 10**6
# Most (n, d) cells in one chi grid, checked before any cell is built.
MAX_GRID_CELLS = 10**5


class UsageError(FatdiagError):
    """A malformed command line: exit 1, as FatdiagError."""


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


def _emit(command: str, inputs: dict, result, oracles=None) -> None:
    """Print the envelope, with the oracles' integers by name, if given."""
    envelope = {"schema": SCHEMA, "command": command, "inputs": inputs, "result": result}
    if oracles is not None:
        envelope["oracle_results"] = {name: _exact(got) for name, got in oracles.items()}
    print(_unlimited_str(envelope, _encode))


def _exact(value: int) -> str:
    """Decimal string of an exact integer, guarded on its size: the one way
    this module writes a result or a count as text."""
    check_guard(value.bit_length(), MAX_RESULT_BITS, "result size")
    return _unlimited_str(value)


def _unlimited_str(value, write=str) -> str:
    """write(value) past Python's default refusal to write integers over
    4300 digits, a conversion quadratic in the length: the limit is lifted
    for this call only, and the caller has guarded every integer in value."""
    if not hasattr(sys, "set_int_max_str_digits"):  # no limit before 3.10.7
        return write(value)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return write(value)
    finally:
        sys.set_int_max_str_digits(limit)


def _check_oracles(value: int, oracles: dict[str, int], what: str, *args: int) -> dict:
    """oracles, once each agrees with value: otherwise one
    OracleMismatchError names every oracle that disagrees, and the
    computation, what called with the integers args.  An integer is
    written only into that error."""
    bad = ", ".join(f"{name}={_exact(got)}" for name, got in sorted(oracles.items())
                    if got != value)
    if bad:
        call = f"{what}({', '.join(map(_exact, args))})" if args else what
        raise OracleMismatchError(f"{call} = {_exact(value)} but {bad}")
    return oracles


def _parse_range(text: str, what: str) -> tuple[int, int]:
    """Bounds of "4" or "2..8" (inclusive)."""
    text = text.strip()
    if ".." in text:
        lo, _, hi = text.partition("..")
        lo_i, hi_i = _integer(lo), _integer(hi)
        if lo_i is None or hi_i is None:
            raise UsageError(f"bad {what} range {text!r}")
        if hi_i < lo_i:
            raise UsageError(f"empty {what} range {text!r}")
        return lo_i, hi_i
    value = _integer(text)
    if value is None:
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
    except (ValueError, OSError) as exc:
        raise UsageError(f"bad --space: {exc}")


def _group(args):
    from .permgroup import PermutationGroupModel

    gens = [chunk for chunk in (args.gens or "").split(";") if chunk.strip()]
    try:
        return PermutationGroupModel(args.degree, gens)
    except ValueError as exc:
        raise UsageError(f"bad --degree or --gens: {exc}")


def _space_echo(space) -> dict:
    """The space as echoed with a result.  Its Betti numbers are JSON
    integers, guarded together on their size before any is written."""
    check_guard(sum(b.bit_length() for b in space.betti), MAX_RESULT_BITS, "result size")
    return {
        "label": space.label,
        "betti": list(space.betti),
        "euler": _exact(space.euler()),
        "parity": space.parity,
    }


def _expression_payload(expr) -> dict:
    payload = {
        "display": expr.display(),
        "pi1_exponent": _exact(expr.pi1_exponent),
        "h1_exponent": _exact(expr.h1_exponent),
        "pi1_kind": expr.pi1_kind,
        "qualifier": "exact",
        "abelian": None,
    }
    if expr.is_concrete():
        # the power prints each torsion order h1_exponent times (twice, with
        # the display): its size is guarded before the power is built
        bits = expr.h1_exponent * sum(t.bit_length() for t in expr.h1.torsion)
        check_guard(bits, MAX_RESULT_BITS, "result size")
        group = expr.abelian_descriptor()
        payload["abelian"] = {
            "rank": _exact(group.rank),
            "torsion": [_exact(t) for t in group.torsion],
            "display": _unlimited_str(group),
        }
    return payload


def _cmd_chi(args) -> int:
    from .eulerchar import (KINDS, chi_b_upper, chi_bd, chi_cell_bits, chi_columns, chi_fd,
                            chi_oracles, chi_sp, chi_sp_bits, require_manifold)

    space = _space(args)
    chi = space.euler()
    kind = args.variant
    if kind == "sp":
        n = args.n
        if n < 0:
            raise UsageError("-n must be >= 0")
        check_guard(chi_sp_bits(chi, n), MAX_RESULT_BITS, "result size")
        _emit("chi sp", {"space": _space_echo(space), "n": n}, _exact(chi_sp(chi, n)))
        return 0

    d_min = KINDS[kind][0]
    cells = _grid(args.n, args.d, d_min)
    if not cells:
        raise UsageError(f"no valid (n, d) pairs with {d_min} <= d <= n in the ranges")
    require_manifold(kind, space.parity)
    # every cell is printed, so one too long refuses the command: the last
    # row at its smallest d is bounded before any column is built
    bits = chi_cell_bits(kind, chi, cells[-1][0], cells[0][1])
    check_guard(bits, MAX_RESULT_BITS, "result size")
    grid = len(cells) > 1
    if grid:  # one column per d, up to the last row
        columns = chi_columns(kind, chi, {d for _, d in cells}, cells[-1][0])
        values = [columns[d][n] for n, d in cells]
    else:
        formula = {"bd": chi_bd, "fd": chi_fd, "bupper": chi_b_upper}[kind]
        values = [formula(chi, *cells[0])]

    oracles = None  # a single cell prints its oracles
    if args.verify:
        for (n, d), value in zip(cells, values):
            oracles = _check_oracles(value, chi_oracles(kind, chi, n, d), f"chi {kind}",
                                     chi, n, d)

    if args.csv:
        lines = [f"{n},{d},{_exact(value)}" for (n, d), value in zip(cells, values)]
        print("\n".join(["n,d,value"] + lines))
        return 0

    inputs = {"space": _space_echo(space), "n": _range_text(args.n), "d": _range_text(args.d),
              "verify": args.verify}
    if grid:
        result = [{"n": n, "d": d, "value": _exact(v)} for (n, d), v in zip(cells, values)]
        _emit(f"chi {kind}", inputs, result)
    else:
        _emit(f"chi {kind}", inputs, _exact(values[0]), oracles)
    return 0


def _range_text(bounds: tuple[int, int]) -> str:
    """The canonical text of a range: "4", or "2..8"."""
    return "..".join(map(_exact, sorted(set(bounds))))


def _cmd_pi1_bd(args) -> int:
    from .fundgroup import pi1_bd

    space = _space(args)
    try:
        expr = pi1_bd(space, args.n, args.d)
    except ValueError as exc:
        raise UsageError(str(exc))
    _emit("pi1 bd", {"space": _space_echo(space), "n": args.n, "d": args.d},
          _expression_payload(expr))
    return 0


def _chi_gamma(space, group) -> str:
    from .eulerchar import chi_gamma_bits, chi_gamma_product

    chi = space.euler()
    if chi > 0:
        # every term is positive, so the average is at least the identity's
        # term over the order, chi^degree / |G|: refused before any term is
        # computed when even that is too long
        bits = chi_gamma_bits(chi, group.degree) - (group.order() - 1).bit_length()
        check_guard(bits, MAX_RESULT_BITS, "result size")
    return _exact(chi_gamma_product(chi, group))


def _betti_gamma(space, group) -> dict:
    from .invariants import invariant_poincare

    poly = invariant_poincare(space.poincare(), group)
    return {_exact(deg): _exact(c) for deg, c in sorted(poly.coefficients().items())}


def _pi1_gamma(space, group) -> dict:
    from .fundgroup import pi1_gamma_product

    return _expression_payload(pi1_gamma_product(space, group))


def _strata_depth(space, group) -> str:
    from .strata import depth

    return _exact(depth(group))


def _strata_length(space, group) -> str:
    from .strata import group_length

    return _exact(group_length(group))


# The result of each command on a group, from the space (None for strata)
# and the group; each imports the modules it runs.
_GROUP_RESULTS = {("chi", "gamma"): _chi_gamma, ("betti", "gamma"): _betti_gamma,
                  ("pi1", "gamma"): _pi1_gamma, ("strata", "depth"): _strata_depth,
                  ("strata", "length"): _strata_length}


def _cmd_group(args) -> int:
    """A command on a group: the space, when it takes one, is parsed before
    the group, and the result is computed before the group's order."""
    space = _space(args) if hasattr(args, "space") else None
    group = _group(args)
    result = _GROUP_RESULTS[args.command, args.variant](space, group)
    inputs = {} if space is None else {"space": _space_echo(space)}
    inputs.update(degree=args.degree, gens=args.gens, group_order=_exact(group.order()))
    _emit(f"{args.command} {args.variant}", inputs, result)
    return 0


def _cmd_graph(args) -> int:
    from .graphconf import discretized_chi_f2, farber_chi_f2, read_graph

    try:
        graph = read_graph(args.graph)
    except (ValueError, OSError) as exc:
        raise UsageError(f"bad --graph: {exc}")
    try:
        value = farber_chi_f2(graph)
    except ValueError as exc:
        raise UsageError(str(exc))
    oracles = None
    if args.oracle:
        oracles = _check_oracles(value, {"discretized": discretized_chi_f2(graph)}, "graph chi2")
    inputs = {"graph": args.graph, "vertices": graph.num_vertices, "edges": graph.num_edges,
              "oracle": args.oracle}
    _emit("graph chi2", inputs, _exact(value), oracles)
    return 0


def _cmd_verify(args) -> int:
    from .selfcheck import run_suite

    outcomes = run_suite()
    for item in outcomes:
        status = "ok" if item.passed else "FAIL"
        print(f"{status:4s} {item.name}: {item.detail} ({item.elapsed * 1000:.1f} ms)",
              file=sys.stderr)
    failed = [o for o in outcomes if not o.passed]
    result = {
        "suite": args.suite,
        "passed": _exact(len(outcomes) - len(failed)),
        "failed": _exact(len(failed)),
        "checks": [
            {"name": o.name, "status": "ok" if o.passed else "fail"} for o in outcomes
        ],
    }
    _emit("verify", {"suite": args.suite}, result)
    return 3 if failed else 0


# Options by name: (kind, default).  The kind is str or int for a value,
# range for the bounds of "4" or "2..8" (inclusive), bool for a switch, or
# a tuple of the values allowed; None as the default makes the option
# required.
_SPACE = {"--space": (str, None)}
_GROUP = {"--degree": (int, None), "--gens": (str, "")}
_CHI_GRID = {**_SPACE, "-n": (range, None), "-d": (range, None), "--verify": (bool, False),
             "--csv": (bool, False)}

# (command, variant) -> (handler, options, summary); verify has no variant.
COMMANDS = {
    ("chi", "sp"): (_cmd_chi, {**_SPACE, "-n": (int, None)}, "symmetric product"),
    ("chi", "bd"): (_cmd_chi, _CHI_GRID, "unordered fat diagonal (multiplicity >= d)"),
    ("chi", "fd"): (_cmd_chi, _CHI_GRID, "ordered fat diagonal (multiplicity >= d)"),
    ("chi", "bupper"): (_cmd_chi, _CHI_GRID,
                        "multiplicity-bounded symmetric product (multiplicity <= d)"),
    ("chi", "gamma"): (_cmd_group, {**_SPACE, **_GROUP},
                       "quotient of a cartesian power by a group"),
    ("betti", "gamma"): (_cmd_group, {**_SPACE, **_GROUP},
                         "rational Betti numbers of the quotient by a group"),
    ("pi1", "bd"): (_cmd_pi1_bd, {**_SPACE, "-n": (int, None), "-d": (int, None)},
                    "fundamental group of the unordered fat diagonal"),
    ("pi1", "gamma"): (_cmd_group, {**_SPACE, **_GROUP},
                       "fundamental group of the quotient by a group"),
    ("strata", "depth"): (_cmd_group, _GROUP, "depth of the equality-pattern stratification"),
    ("strata", "length"): (_cmd_group, _GROUP, "longest subgroup chain of the group"),
    ("graph", "chi2"): (_cmd_graph, {"--graph": (str, None), "--oracle": (bool, False)},
                        "two-point configuration space of a graph"),
    ("verify", None): (_cmd_verify, {"--suite": (("all",), "all")},
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
--graph   fixture name ({fixtures}), inline JSON, or a path (@path too)
--verify, --oracle
          also run the independent oracles; a mismatch exits 3
--suite   all, the one verification battery (the default)
An option takes its value as the next word or after '='; the last of a
repeated option wins.  Exit codes: 0 ok, 1 usage, 2 unsupported space,
3 mismatch, 4 resource guard, 5 internal error."""


def _usage(command: str | None) -> str:
    """Usage lines of every command, or of one, generated from COMMANDS."""
    from .graphconf import FIXTURES

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
    return "\n".join(lines + ["", _OPTION_HELP.format(fixtures=", ".join(FIXTURES))])


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
            number = _integer(value)
            if number is None:
                raise UsageError(f"{name} takes an integer, got {value!r}")
            value = number
        elif kind is range:
            value = _parse_range(value, name)
        elif isinstance(kind, tuple) and value not in kind:
            raise UsageError(f"{name} takes one of {', '.join(kind)}, got {value!r}")
        setattr(args, name.lstrip("-"), value)
    return handler, args


def main(argv=None) -> int:
    """The exit code of argv (sys.argv by default): a FatdiagError's class
    gives its stderr label and code; any other exception is a bug (exit 5)."""
    try:
        handler, args = _parse(sys.argv[1:] if argv is None else list(argv))
        return handler(args)
    except InternalConsistencyError:
        return _internal_error()
    except FatdiagError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception:
        return _internal_error()


def _internal_error() -> int:
    """A bug, not an input problem: the traceback goes to stderr, exit 5."""
    import traceback

    traceback.print_exc()
    return 5


def run() -> None:
    """The `fatdiag` command: main() on sys.argv, then the end of the process.

    Once stdout and stderr are flushed the process ends at once through
    os._exit, without the interpreter's teardown (clearing every module and
    cache and a last garbage collection), which costs about 15 ms a
    command.  Nothing in the package registers atexit handlers, starts
    threads or writes files, so the teardown has no work of the program's
    to do.  If a stream is None (closed at spawn) or its flush fails, the
    process exits through sys.exit instead, whose teardown reports the
    failure and sets the exit status as it always has.
    """
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (AttributeError, OSError):  # a None stream, or a failed flush
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()

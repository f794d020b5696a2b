"""A JSON reader for the --space and --graph inputs, without the json module.

load(ref) reads either input: ref itself when it starts with "{", or the
file at ref, less a leading "@".  loads(text) accepts exactly the documents
json.loads accepts and returns the same values: NaN and the infinities as
floats, every escape, surrogate pairs joined and lone surrogates kept,
integers of any size (within Python's digit limit, as json.loads) and, for
a key given twice, its last value at its first position.  It raises
ValueError on anything else, at any depth: containers are opened on a
stack of its own, not by recursion, so a deeply nested document is read or
refused like any other.  Loading json costs a command about 3 ms; this
module costs a tenth of that.
"""

_WHITESPACE = " \t\n\r"
_ESCAPES = {'"': '"', "\\": "\\", "/": "/", "b": "\b", "f": "\f", "n": "\n", "r": "\r",
            "t": "\t"}
_HEX = frozenset("0123456789abcdefABCDEF")
_NUMBER = frozenset("0123456789+-.eE")
_WORDS = (("true", True), ("false", False), ("null", None), ("NaN", float("nan")),
          ("Infinity", float("inf")), ("-Infinity", float("-inf")))


def _error(message: str, text: str, pos: int) -> ValueError:
    """message at pos, with its line and column as json.loads gives them."""
    line = text.count("\n", 0, pos) + 1
    column = pos - text.rfind("\n", 0, pos)
    return ValueError(f"{message}: line {line} column {column} (char {pos})")


def _skip(text: str, i: int) -> int:
    """The first position at or after i that is not JSON whitespace."""
    while i < len(text) and text[i] in _WHITESPACE:
        i += 1
    return i


def _hex4(text: str, i: int) -> int | None:
    """The four hex digits at i as a number, or None."""
    digits = text[i:i + 4]
    return int(digits, 16) if len(digits) == 4 and _HEX.issuperset(digits) else None


def _string(text: str, start: int) -> tuple[str, int]:
    """The string whose opening quote is at start, and the position after
    its closing quote.  Control characters must be escaped; a high
    surrogate escape directly followed by a low one is joined."""
    chunks = []
    i = start + 1
    quote = -1
    while True:
        if quote < i:
            quote = text.find('"', i)
            if quote < 0:
                raise _error("Unterminated string starting at", text, start)
        backslash = text.find("\\", i, quote)
        end = quote if backslash < 0 else backslash
        chunk = text[i:end]
        if chunk and min(chunk) < " ":
            bad = next(k for k in range(i, end) if text[k] < " ")
            raise _error("Invalid control character at", text, bad)
        chunks.append(chunk)
        if backslash < 0:
            return "".join(chunks), quote + 1
        kind = text[backslash + 1:backslash + 2]
        if kind != "u":
            if kind not in _ESCAPES:
                raise _error("Invalid \\escape", text, backslash)
            chunks.append(_ESCAPES[kind])
            i = backslash + 2
            continue
        code = _hex4(text, backslash + 2)
        if code is None:
            raise _error("Invalid \\uXXXX escape", text, backslash + 1)
        i = backslash + 6
        if 0xD800 <= code <= 0xDBFF and text.startswith("\\u", i):
            low = _hex4(text, i + 2)
            if low is not None and 0xDC00 <= low <= 0xDFFF:
                code = 0x10000 + ((code - 0xD800) << 10 | (low - 0xDC00))
                i += 6
        chunks.append(chr(code))


def _number(text: str, start: int) -> tuple[int | float, int]:
    """The number at start and the position after it.  The longest run of
    number characters is taken whole: json.loads refuses a document where
    such a run goes past a valid number, since no delimiter can follow."""
    end = start
    while end < len(text) and text[end] in _NUMBER:
        end += 1
    token = text[start:end]
    body = token[1:] if token[:1] == "-" else token
    mantissa, e, exponent = body.replace("E", "e").partition("e")
    whole, dot, fraction = mantissa.partition(".")
    if exponent[:1] in ("+", "-"):
        exponent = exponent[1:]
    if (not whole.isdigit() or (whole[0] == "0" and len(whole) > 1)
            or (dot and not fraction.isdigit()) or (e and not exponent.isdigit())):
        raise _error("Expecting value", text, start)
    return (float(token) if dot or e else int(token)), end


def _value(text: str, i: int, stack: list) -> tuple[object, int, bool]:
    """The scalar at i and the position after it, or an opened container
    pushed on stack; the flag says whether a value is complete."""
    ch = text[i:i + 1]
    if ch == '"':
        value, i = _string(text, i)
        return value, i, True
    if ch in ("{", "["):
        i = _skip(text, i + 1)
        close = "}" if ch == "{" else "]"
        if text.startswith(close, i):
            return ({} if ch == "{" else []), i + 1, True
        if ch == "{":
            key, i = _key(text, i)
            stack.append([{}, key])
        else:
            stack.append([[], None])
        return None, i, False
    for word, value in _WORDS:
        if text.startswith(word, i):
            return value, i + len(word), True
    if ch and ch in "-0123456789":
        value, i = _number(text, i)
        return value, i, True
    raise _error("Expecting value", text, i)


def _key(text: str, i: int) -> tuple[str, int]:
    """An object key at i and the position of its value, after the colon."""
    if not text.startswith('"', i):
        raise _error("Expecting property name enclosed in double quotes", text, i)
    key, i = _string(text, i)
    i = _skip(text, i)
    if not text.startswith(":", i):
        raise _error("Expecting ':' delimiter", text, i)
    return key, _skip(text, i + 1)


def loads(text: str):
    """The value of the JSON document text, as json.loads returns it.

    >>> loads('{"betti": [1, 0, 1], "label": [NaN, "\\\\u00e9", 1e400]}')
    {'betti': [1, 0, 1], 'label': [nan, 'é', inf]}
    """
    stack: list[list] = []  # open containers: [list, None] or [dict, key]
    i = _skip(text, 0)
    while True:
        value, i, done = _value(text, i, stack)
        while done:
            i = _skip(text, i)
            if not stack:
                if i != len(text):
                    raise _error("Extra data", text, i)
                return value
            frame = stack[-1]
            container, key = frame
            if key is None:
                container.append(value)
            else:
                container[key] = value
            ch = text[i:i + 1]
            if ch == ",":
                i = _skip(text, i + 1)
                if key is not None:
                    frame[1], i = _key(text, i)
                done = False
            elif ch == ("]" if key is None else "}"):
                stack.pop()
                value, i = container, i + 1
            else:
                raise _error("Expecting ',' delimiter", text, i)


def load(ref: str):
    """The value of the JSON document ref: inline when it starts with "{"
    (after whitespace), otherwise in the file at ref with any leading "@"
    removed."""
    if ref.lstrip().startswith("{"):
        return loads(ref)
    with open(ref.removeprefix("@"), "r", encoding="utf-8") as fh:
        return loads(fh.read())

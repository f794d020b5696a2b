"""The JSON reader against json.loads: the same value for every document
json accepts (compared by repr, so that NaN, -0.0, int against float and
key order count), and ValueError for every document it refuses."""

from __future__ import annotations

import json
import random

import pytest
from test_cli import ADVERSARIAL_LABELS

from fatdiag.jsonread import load, loads


def _outcome(parse, text: str) -> str:
    try:
        return repr(parse(text))
    except ValueError:
        return "ValueError"


ACCEPTED = [
    "0", "-0", "1", "-1", "0.5", "-0.0", "1E5", "1e+5", "1e-5", "2.5E-3", "0e0", "1e05",
    "1e400", "-1e400", "1" * 400, "1." + "0" * 500 + "1",
    '"\\/"', '"\\u00E9\\u00e9"', '"\\ud83d"', '"\\ude00\\ud83d"', '"\\ud83d\\u0041"',
    '"\\ud83d\\ud83d\\ude00"', '"\x7f   \ud800"', " \t\n\r[ 1 , 2 ]\r\n\t ",
    '{"a": 1, "a": 2}', '{"b": 1, "a": {"b": 2, "a": 3}, "b": [4]}', '{"": ""}',
    "[[[[]], {}], [{}]]", "[" * 500 + "]" * 500,
]

REFUSED = [
    # empty, trailing data, a byte order mark
    "", " ", "1 2", "[1] x", "[]]", '{"a": 1}}', "﻿1", "1﻿", "\x00",
    # control characters in strings
    '"\x00"', '"a\x1fb"', '"\n"', '"\t"',
    # bad escapes and unterminated strings
    '"\\x"', '"\\U0001f600"', '"\\u12"', '"\\u123g"', '"\\u 123"', '"\\u+123"',
    '"\\u0x12"', '"\\ud800\\u"', '"\\ud800\\udc0"', '"\\', '"abc', '["a\\"]', "'a'",
    # bad numbers
    "-", "+1", "01", "-01", "00", "1.", ".5", "1e", "1e+", "1E-", "1.e3", "1e5.5", "1ee5",
    "0x10", "1_000", "- 1", "--1", "1-2", "١", "1" * 5000, "-" + "9" * 4301,
    # bad words
    "nan", "NAN", "-NaN", "infinity", "+Infinity", "True", "tru", "nul", "truex",
    # bad containers
    "[1,]", "[,1]", "[1 2]", "[", "]", "{", "{a: 1}", '{"a" 1}', '{"a": 1,}', "{1: 2}",
    '{"a": 1 "b": 2}', "[1}", '{"a": 1]', "[" * 500 + "]" * 499,
]


def test_accepts_what_json_accepts():
    for text in ACCEPTED:
        assert _outcome(loads, text) == _outcome(json.loads, text) != "ValueError", text[:40]


def test_refuses_what_json_refuses():
    for text in REFUSED:
        assert _outcome(json.loads, text) == _outcome(loads, text) == "ValueError", text[:40]


def test_adversarial_labels():
    for label in ADVERSARIAL_LABELS:
        for text in (label, f'{{"betti": [1], "label": {label}}}', f"[{label}, {label}]"):
            assert _outcome(loads, text) == _outcome(json.loads, text), text


def test_random_documents():
    # documents json.dumps writes, and short random strings of JSON
    # characters, nearly all of them refused
    rng = random.Random(2021)
    atoms = [0, -7, 10**30, 0.1, -2.5e-300, float("inf"), float("nan"), True, False, None,
             "", "a\"b\\c", "\x00\x1f\x7f", "é\U0001f600\ud800"]

    def document(depth):
        roll = rng.random()
        if depth > 4 or roll < 0.4:
            return rng.choice(atoms)
        if roll < 0.7:
            return [document(depth + 1) for _ in range(rng.randint(0, 3))]
        return {rng.choice(["a", "b", "", "é"]): document(depth + 1)
                for _ in range(rng.randint(0, 3))}

    for _ in range(300):
        text = json.dumps(document(0), ensure_ascii=rng.random() < 0.5,
                          indent=rng.choice([None, 1, "\t"]))
        assert _outcome(loads, text) == _outcome(json.loads, text), text
    alphabet = '[]{},:"\\ \n0123456789-+.eEtrufalsnNIyu/b\x01é\ud800'
    for _ in range(20000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 10)))
        assert _outcome(loads, text) == _outcome(json.loads, text), text


def test_depth_needs_no_recursion():
    # json.loads gives up near the recursion limit; the reader does not
    depth = 10**5
    value = loads("[" * depth + "]" * depth)
    for _ in range(depth - 1):
        (value,) = value
    assert value == []
    with pytest.raises(ValueError):
        loads("[" * depth + "]" * (depth - 1))


def test_load_reads_inline_text_or_a_file(tmp_path):
    doc = '{"betti": [1, 0, 1]}'
    path = tmp_path / "doc.json"
    path.write_text(doc)
    for ref in (doc, "  " + doc, str(path), "@" + str(path)):
        assert load(ref) == {"betti": [1, 0, 1]}, ref
    with pytest.raises(OSError):
        load("@" + str(tmp_path / "missing.json"))

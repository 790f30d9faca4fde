"""The JSON wire format.  A document is a JSON object tagged with SCHEMA,
written with sorted keys (a large array may be a Table, written in chunks
with the bytes json would write); an exact scalar a + b*i is written
[[re_num, re_den], [im_num, im_den]].  Reading raises ValueError, and nothing
else, on bad JSON, a wrong or missing schema or key, a leaf that is not an
int, or a zero denominator; the constructors fed the decoded values check
shapes and ranks.
"""

from __future__ import annotations

import json
from math import gcd

from .exactla import GaussianRational, _gaussian
from .hodge import HodgeNumbers

SCHEMA = "hodge-domains/1"
CHUNK_ROWS = 1 << 11  # rows of a Table (and of an OFF file) per piece of text; faces per mesh_geometry block


# Canonical one-line text of a JSON value: json.dumps(doc, sort_keys=True)
# without building an encoder per call.
dumps = json.JSONEncoder(sort_keys=True).encode


class Table:
    """A JSON array of same-shaped rows held as 1-D numpy columns, written
    without building its lists.  `shape` nests a row with None for each leaf
    (None alone: a row is one leaf); one column per leaf, in text order.
    A plain class: a dataclass would add a millisecond to every CLI start."""
    __slots__ = ("shape", "columns")

    def __init__(self, shape, columns: tuple):
        self.shape, self.columns = shape, columns


def _leaf_texts(column) -> list[str]:
    """What json writes for each value (a raw newline never occurs inside one)."""
    return json.dumps(column.tolist(), separators=("\n", ":"))[1:-1].split("\n")


def indented_chunks(doc: dict):
    """dumps_indented(doc) in pieces; a value that is a Table comes CHUNK_ROWS rows a piece."""
    yield "{"
    for n, key in enumerate(sorted(doc)):
        yield ("\n " if n == 0 else ",\n ") + json.dumps(key) + ": "
        value = doc[key]
        if not isinstance(value, Table):
            yield json.dumps(value, sort_keys=True, indent=1).replace("\n", "\n ")
            continue
        row = json.dumps(value.shape, indent=1).replace("null", "%s").replace("\n", "\n  ")
        for start in range(0, len(value.columns[0]), CHUNK_ROWS):
            leaves = zip(*(_leaf_texts(c[start:start + CHUNK_ROWS]) for c in value.columns))
            yield ("[\n  " if start == 0 else ",\n  ") + ",\n  ".join(map(row.__mod__, leaves))
        yield "\n ]" if len(value.columns[0]) else "[]"
    yield "\n}" if doc else "}"


def dumps_indented(doc: dict) -> str:
    """Canonical text of a JSON object whose values may be Tables, indented by one space."""
    return "".join(indented_chunks(doc))


def encode_array(values) -> list:
    """Nested tuples of GaussianRational as nested lists of exact scalars."""
    if type(values) is GaussianRational:
        g, h = gcd(values.a, values.d), gcd(values.b, values.d)  # the parts in lowest terms
        return [[values.a // g, values.d // g], [values.b // h, values.d // h]]
    return [encode_array(v) for v in values]


def decode_scalar(obj) -> GaussianRational:
    if not (type(obj) is list and len(obj) == 2 and type(obj[0]) is list and len(obj[0]) == 2
            and type(obj[1]) is list and len(obj[1]) == 2):
        raise ValueError("a scalar must be [[re_num, re_den], [im_num, im_den]]")
    (rn, rd), (im_n, im_d) = obj
    if not (type(rn) is type(rd) is type(im_n) is type(im_d) is int and rd and im_d):
        raise ValueError("a scalar needs int parts and nonzero denominators")
    sign = 1 if rd * im_d > 0 else -1  # the denominator of _gaussian is positive
    return _gaussian(sign * rn * im_d, sign * im_n * rd, abs(rd * im_d))


def decode_array(obj, depth: int) -> tuple:
    """`depth` levels of JSON arrays around exact scalars, as nested tuples."""
    if type(obj) is not list:
        raise ValueError("expected a JSON array of scalars")
    return tuple(map(decode_scalar, obj)) if depth == 1 else tuple([decode_array(x, depth - 1) for x in obj])


def read(text: str, *keys: str) -> dict:
    """Parse a document with SCHEMA, ranks and the named keys; its ranks come
    back as HodgeNumbers."""
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("document is nested too deeply") from None
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        raise ValueError(f"expected a JSON object with schema {SCHEMA!r}")
    missing = [key for key in ("ranks", *keys) if key not in doc]
    if missing:
        raise ValueError(f"document lacks {', '.join(missing)}")
    if not isinstance(doc["ranks"], list):
        raise ValueError("ranks must be a JSON array")
    doc["ranks"] = HodgeNumbers(tuple(doc["ranks"]))
    return doc

"""The JSON wire format.  A document is a JSON object tagged with SCHEMA,
written with sorted keys; an exact scalar a + b*i is written
[[re_num, re_den], [im_num, im_den]].  Reading raises ValueError, and nothing
else, on bad JSON, a wrong or missing schema or key, a leaf that is not an
int, or a zero denominator; the constructors fed the decoded values check
shapes and ranks.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .exactla import GaussianRational
from .hodge import HodgeNumbers

SCHEMA = "hodge-domains/1"


def dumps(doc) -> str:
    """Canonical one-line text of a JSON value."""
    return json.dumps(doc, sort_keys=True)


def dumps_indented(doc) -> str:
    """Canonical text of a JSON value, indented by one space."""
    return json.dumps(doc, sort_keys=True, indent=1)


def encode_array(values) -> list:
    """Nested tuples of GaussianRational as nested lists of exact scalars."""
    if isinstance(values, GaussianRational):
        return [[values.re.numerator, values.re.denominator], [values.im.numerator, values.im.denominator]]
    return [encode_array(v) for v in values]


def decode_scalar(obj) -> GaussianRational:
    if not (isinstance(obj, list) and len(obj) == 2 and all(isinstance(p, list) and len(p) == 2 for p in obj)):
        raise ValueError("a scalar must be [[re_num, re_den], [im_num, im_den]]")
    (rn, rd), (im_n, im_d) = obj
    if any(type(x) is not int for x in (rn, rd, im_n, im_d)) or not rd or not im_d:
        raise ValueError("a scalar needs int parts and nonzero denominators")
    return GaussianRational(Fraction(rn, rd), Fraction(im_n, im_d))


def decode_array(obj, depth: int) -> tuple:
    """`depth` levels of JSON arrays around exact scalars, as nested tuples."""
    if not isinstance(obj, list):
        raise ValueError("expected a JSON array of scalars")
    return tuple(decode_scalar(x) if depth == 1 else decode_array(x, depth - 1) for x in obj)


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

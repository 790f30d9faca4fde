"""The loader contract of the JSON wire format: flag_loads and higgs_loads
return the document's object, or raise ValueError and nothing else."""

import copy
import json
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodge_domains import wire
from hodge_domains.domain import flag_dumps, flag_loads, hodge_flag, perturbed_flag
from hodge_domains.exactla import GaussianRational, _gaussian
from hodge_domains.higgs import higgs_dumps, higgs_loads, random_commuting_higgs
from hodge_domains.hodge import HodgeNumbers

RANKS = [(1, 1), (1, 2), (2, 1), (1, 1, 1), (1, 2, 1), (2, 1, 2), (1, 1, 1, 1)]
BAD_LEAVES = [1.5, 2.0, True, False, "1", None, []]
BAD_SCHEMAS = ["hodge-domains/2", "", None, 1, [wire.SCHEMA]]


def flag_text(ranks, seed):
    return flag_dumps(perturbed_flag(HodgeNumbers(ranks), random.Random(seed)))


def higgs_text(ranks, seed):
    return higgs_dumps(random_commuting_higgs(HodgeNumbers(ranks), 1 + seed % 3, seed, "nullspace" if seed % 2 else "pullback"))


def leaves(obj, path=()):
    """The path of every leaf (a value that is not a nonempty array or object)."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from leaves(value, path + (key,))
    elif isinstance(obj, list) and obj:
        for i, value in enumerate(obj):
            yield from leaves(value, path + (i,))
    else:
        yield path


def replaced(doc, path, value):
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


@st.composite
def mutated(draw, text):
    """text with one defect: a key dropped, a leaf of the wrong type, a zero
    denominator, another schema, or the text cut short."""
    doc = json.loads(text)
    kind = draw(st.sampled_from(["drop", "leaf", "zero_denominator", "schema", "truncate"]))
    if kind == "drop":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif kind == "leaf":
        doc = replaced(doc, draw(st.sampled_from(list(leaves(doc)))), draw(st.sampled_from(BAD_LEAVES)))
    elif kind == "zero_denominator":
        # a scalar is [[re_num, re_den], [im_num, im_den]]: denominators sit at index 1
        dens = [p for p in leaves(doc) if p[0] in ("basis", "theta") and p[-1] == 1]
        doc = replaced(doc, draw(st.sampled_from(dens)), 0)
    elif kind == "schema":
        doc["schema"] = draw(st.sampled_from(BAD_SCHEMAS))
    else:
        return text[: draw(st.integers(0, len(text) - 1))]
    return json.dumps(doc)


def check_contract(loads, dumps, text, bad):
    assert dumps(loads(text)) == text  # the valid document round-trips byte for byte
    with pytest.raises(ValueError):
        loads(bad)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(RANKS), st.integers(0, 50), st.data())
def test_flag_loads_round_trips_or_raises_value_error(ranks, seed, data):
    text = flag_text(ranks, seed)
    check_contract(flag_loads, flag_dumps, text, data.draw(mutated(text)))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(RANKS), st.integers(0, 50), st.data())
def test_higgs_loads_round_trips_or_raises_value_error(ranks, seed, data):
    text = higgs_text(ranks, seed)
    check_contract(higgs_loads, higgs_dumps, text, data.draw(mutated(text)))


# Fixed malformed documents: a wrong or missing schema, missing keys, leaves
# of the wrong type, zero denominators, wrong shapes, and documents that are
# not objects.

FLAG = json.loads(flag_dumps(hodge_flag(HodgeNumbers((1, 1)))))
HIGGS = json.loads(higgs_text((1, 1, 1), 1))  # tangent_dim 2


def without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


@pytest.mark.parametrize("loads, doc", [
    (flag_loads, {**FLAG, "schema": "hodge-domains/2"}),
    (flag_loads, without(FLAG, "schema")),
    (flag_loads, without(FLAG, "basis")),
    (flag_loads, without(FLAG, "ranks")),
    (flag_loads, replaced(FLAG, ("basis", 0, 0, 0, 1), 0)),
    (flag_loads, replaced(FLAG, ("basis", 0, 0, 0, 0), 1.0)),
    (flag_loads, replaced(FLAG, ("basis", 0, 0), 1)),
    (flag_loads, {**FLAG, "ranks": [1.0, 1]}),
    (flag_loads, {**FLAG, "ranks": "11"}),
    (flag_loads, {**FLAG, "basis": [[[[1, 1], [0, 1]]]]}),
    (flag_loads, {**FLAG, "basis": [col[:1] for col in FLAG["basis"]]}),
    (flag_loads, []),
    (flag_loads, "hodge-domains/1"),
    (higgs_loads, {**HIGGS, "schema": None}),
    (higgs_loads, without(HIGGS, "theta")),
    (higgs_loads, without(HIGGS, "tangent_dim")),
    (higgs_loads, replaced(HIGGS, ("theta", 0, 0, 0, 0, 1, 1), 0)),
    (higgs_loads, {**HIGGS, "tangent_dim": 2.5}),
    (higgs_loads, {**HIGGS, "tangent_dim": "2"}),
    (higgs_loads, {**HIGGS, "tangent_dim": True}),
    (higgs_loads, {**HIGGS, "ranks": [1, 1.0, 1]}),
    (higgs_loads, None),
], ids=[
    "flag-wrong-schema", "flag-no-schema", "flag-no-basis", "flag-no-ranks", "flag-zero-denominator",
    "flag-float-numerator", "flag-bare-int-scalar", "flag-float-rank", "flag-string-ranks",
    "flag-one-column", "flag-short-columns", "flag-array-document", "flag-string-document",
    "higgs-null-schema", "higgs-no-theta", "higgs-no-tangent-dim", "higgs-zero-denominator",
    "higgs-float-tangent-dim", "higgs-string-tangent-dim", "higgs-bool-tangent-dim", "higgs-float-rank",
    "higgs-null-document",
])
def test_malformed_document_raises_value_error(loads, doc):
    with pytest.raises(ValueError):
        loads(json.dumps(doc))


@pytest.mark.parametrize("loads", [flag_loads, higgs_loads])
def test_deeply_nested_text_raises_value_error(loads):
    with pytest.raises(ValueError):
        loads("[" * 100_000 + "]" * 100_000)


def test_negative_denominator_reads_as_the_same_scalar():
    doc = replaced(replaced(FLAG, ("basis", 0, 0, 0), [-1, -1]), ("basis", 0, 0, 1), [0, -7])
    assert flag_loads(json.dumps(doc)).basis == flag_loads(json.dumps(FLAG)).basis


nonzero = st.integers(-10**6, 10**6).filter(bool)


@settings(max_examples=300, deadline=None)
@given(st.integers(-10**6, 10**6), nonzero, st.integers(-10**6, 10**6), nonzero)
def test_scalar_codec_matches_fraction_parts(rn, rd, im_n, im_d):
    # a scalar is read as the two Fractions it names, whatever the signs of
    # its denominators, and written as their lowest terms
    z = wire.decode_scalar([[rn, rd], [im_n, im_d]])
    assert z == GaussianRational(Fraction(rn, rd), Fraction(im_n, im_d))
    assert wire.encode_array(z) == [[z.re.numerator, z.re.denominator], [z.im.numerator, z.im.denominator]]


# -- the decoder against the generator-based one it replaced ------------------


def reference_decode_scalar(obj) -> GaussianRational:
    if not (isinstance(obj, list) and len(obj) == 2 and all(isinstance(p, list) and len(p) == 2 for p in obj)):
        raise ValueError("a scalar must be [[re_num, re_den], [im_num, im_den]]")
    (rn, rd), (im_n, im_d) = obj
    if any(type(x) is not int for x in (rn, rd, im_n, im_d)) or not rd or not im_d:
        raise ValueError("a scalar needs int parts and nonzero denominators")
    sign = 1 if rd * im_d > 0 else -1  # the denominator of _gaussian is positive
    return _gaussian(sign * rn * im_d, sign * im_n * rd, abs(rd * im_d))


def reference_decode_array(obj, depth: int) -> tuple:
    if not isinstance(obj, list):
        raise ValueError("expected a JSON array of scalars")
    return tuple(reference_decode_scalar(x) if depth == 1 else reference_decode_array(x, depth - 1) for x in obj)


def outcome(decode, *args):
    """("value", what decode returns) or ("error", its ValueError message)."""
    try:
        return "value", decode(*args)
    except ValueError as exc:
        return "error", str(exc)


json_leaves = st.one_of(st.integers(-3, 3), st.sampled_from([1.5, 2.0, -0.0, True, False, "1", None]))
pairs = st.one_of(st.lists(st.integers(-3, 3), min_size=2, max_size=2), st.lists(json_leaves, max_size=3), json_leaves)
scalar_like = st.one_of(st.lists(st.lists(st.integers(-3, 3), min_size=2, max_size=2), min_size=2, max_size=2),
                        st.lists(pairs, max_size=3))
json_values = st.recursive(st.one_of(json_leaves, scalar_like),
                           lambda inner: st.one_of(st.lists(inner, max_size=3),
                                                   st.dictionaries(st.text(max_size=2), inner, max_size=2)),
                           max_leaves=12)


@settings(max_examples=500, deadline=None)
@given(json_values, st.integers(1, 4))
def test_decoder_matches_reference(obj, depth):
    # JSON text in and out, so the objects are what json.loads gives
    obj = json.loads(json.dumps(obj))
    assert outcome(wire.decode_scalar, obj) == outcome(reference_decode_scalar, obj)
    assert outcome(wire.decode_array, obj, depth) == outcome(reference_decode_array, obj, depth)


@pytest.mark.parametrize("obj", [
    [[1, 2], [3, 4]], [[0, -1], [0, 5]], [[1, 0], [0, 1]], [[1, 1], [0, 0]], [[True, 1], [0, 1]],
    [[1, 1], [0, 1.0]], [[1, 1], [0]], [[1, 1]], [[1, 1], [0, 1], [0, 1]], [[1, 1], None], "[[1, 1], [0, 1]]",
    None, 1, [], [[[1, 1], [0, 1]]], [[[[1, 1], [0, 1]], [[1, 1], [0, 1]]]], [[[[1, 1], [0, 0]]]],
])
def test_decoder_matches_reference_fixed_cases(obj):
    assert outcome(wire.decode_scalar, obj) == outcome(reference_decode_scalar, obj)
    for depth in (1, 2, 3):
        assert outcome(wire.decode_array, obj, depth) == outcome(reference_decode_array, obj, depth)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 12), st.data())
def test_table_text_equals_json_text(rows, data):
    # the chunked Table writer against json on the nested lists; 5 rows a chunk
    floats = data.draw(st.lists(st.floats(), min_size=rows, max_size=rows))
    ints = data.draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=rows, max_size=rows))
    # numpy drops trailing NUL characters from its strings
    texts = data.draw(st.lists(st.text(st.characters(blacklist_characters="\x00"), max_size=4), min_size=rows, max_size=rows))
    doc = {
        "rows": wire.Table([None, [None, None]], (np.array(floats, dtype=float), np.array(ints, dtype=np.int64), np.array(texts, dtype=str))),
        "ints": wire.Table(None, (np.array(ints, dtype=np.int64),)),
        "schema": wire.SCHEMA,
        "nested": {"b": [1.5, [True, None]], "a": "x"},
    }
    plain = {
        "rows": [[f, [i, t]] for f, i, t in zip(floats, ints, texts)],
        "ints": ints,
        "schema": wire.SCHEMA,
        "nested": {"b": [1.5, [True, None]], "a": "x"},
    }
    with mock.patch.object(wire, "CHUNK_ROWS", 5):
        assert wire.dumps_indented(doc) == json.dumps(plain, sort_keys=True, indent=1)


def test_empty_document_text():
    assert wire.dumps_indented({}) == json.dumps({}, sort_keys=True, indent=1)

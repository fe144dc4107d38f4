"""The artifact writer against json.dumps(doc, sort_keys=True, indent=2).

Certificates and the audit are written by certs._json_bytes, which lays
out the indented document itself and escapes strings with json's C
escaper; its bytes must equal what json's pure-Python encoder writes.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from fanobound.certs import _json_bytes


def reference(doc) -> bytes:
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8")


# quotes, backslashes, control characters, DEL, non-ASCII, astral and
# surrogate code points, beside arbitrary text
special = st.text(st.sampled_from('"\\/\x00\x01\x1f\x7f\n\r\t\b\f é€ \ud800\U0001f600a'))
strings = st.one_of(st.text(), special)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(10**300), 10**300),
    strings,
)
documents = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=6),
        st.dictionaries(strings, inner, max_size=6),
    ),
    max_leaves=20,
)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(documents)
def test_matches_json_dumps(doc):
    assert _json_bytes(doc) == reference(doc)


def test_nested_empty_containers():
    doc = {"a": {}, "b": [], "c": [[], {}, [[]], {"": {}}], "": [{}]}
    assert _json_bytes(doc) == reference(doc)
    assert _json_bytes({}) == b"{}\n" and _json_bytes([]) == b"[]\n"


@pytest.mark.parametrize(
    "doc",
    [1.5, {"x": [0.0]}, (1, 2), {"x": (1,)}, {1: "one"}, {"a": {2: 3}}, [{None: 1}], b"x"],
)
def test_refuses_what_json_would_coerce(doc):
    with pytest.raises(TypeError):
        _json_bytes(doc)

import string

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kquad import InputError
from kquad.kernels import gaussian
from kquad.quadrature import METHODS, compress
from kquad.specs import optional, parse_spec

SCHEMA = {"plain": {}, "rich": {"n": int, "x": float, "name": str, "lam": optional(float)}}


def test_parse_spec_heads_and_values():
    assert parse_spec("plain", "thing", SCHEMA) == ("plain", {})
    assert parse_spec(" Plain: ", "thing", SCHEMA) == ("plain", {})
    head, params = parse_spec("RICH: N = 3, x=0.5 ,name=A:b=c,lam=AUTO", "thing", SCHEMA)
    assert head == "rich"
    assert params == {"n": 3, "x": 0.5, "name": "A:b=c", "lam": None}


@pytest.mark.parametrize(
    "text, message",
    [
        ("other", "unknown thing 'other'"),
        ("plain:n=1", "takes no parameters"),
        ("rich:size=1", "unknown thing parameter 'size'"),
        ("rich:n", "malformed"),
        ("rich:n=1,", "malformed"),
        ("rich:n=1,n=2", "repeated"),
        ("rich:n=1.5", "bad thing parameter n='1.5'"),
        ("rich:x=far", "bad thing parameter x='far'"),
    ],
)
def test_parse_spec_rejects(text, message):
    with pytest.raises(InputError, match=message):
        parse_spec(text, "thing", SCHEMA)


def test_method_specs():
    assert parse_spec("uniform", "method", METHODS) == ("uniform", {})
    assert parse_spec("uniform-wr", "method", METHODS) == ("uniform-wr", {})
    head, params = parse_spec("arls:lambda=0.5,pilot=32", "method", METHODS)
    assert head == "arls" and params == {"lambda": 0.5, "pilot": 32}
    head, params = parse_spec("arls:lambda=auto,pilot=auto", "method", METHODS)
    assert params == {"lambda": None, "pilot": None}
    for bad in ("uniform:oops=1", "arls:unknown=1", "arls:pilot=1.5", "dpp"):
        with pytest.raises(InputError):
            parse_spec(bad, "method", METHODS)

    X = np.random.default_rng(3).standard_normal((40, 2))
    kern = gaussian(1.0)
    auto = compress(X, kern, "arls:lambda=auto,pilot=auto", 6, rng=2)
    assert np.array_equal(auto.indices, compress(X, kern, "arls", 6, rng=2).indices)
    full = compress(X, kern, "arls:lambda=0.5,pilot=40", 6, rng=2)
    assert len(full) == 6 and np.all((0 <= full.indices) & (full.indices < 40))
    for bad in ("uniform:oops=1", "arls:unknown=1"):
        with pytest.raises(InputError):
            compress(X, kern, bad, 6)


_NAMES = st.text(string.ascii_lowercase + string.digits + "_-", min_size=1, max_size=8)
_VALUES = st.one_of(
    st.integers(-(10**12), 10**12).map(lambda v: (int, v, str(v))),
    st.floats(allow_nan=False).map(lambda v: (float, v, repr(v))),
    st.text(string.ascii_letters + string.digits + ".:=/_-", min_size=1, max_size=12).map(
        lambda v: (str, v, v)
    ),
)


@given(head=_NAMES, params=st.dictionaries(_NAMES, _VALUES, max_size=5))
def test_parse_spec_round_trip(head, params):
    schema = {head: {key: parse for key, (parse, _, _) in params.items()}}
    tail = ",".join(f"{key}={text}" for key, (_, _, text) in params.items())
    text = f"{head}:{tail}" if tail else head
    assert parse_spec(text, "thing", schema) == (
        head,
        {key: value for key, (_, value, _) in params.items()},
    )

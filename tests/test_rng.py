"""``fewvar.rng`` against numpy, the oracle it reproduces.

numpy's ``Generator(Philox(SeedSequence([seed mod 2^64, stream_key(label)])))``
is the stream the package drew before it drew in the standard library; every
seeded report depends on the two agreeing draw for draw.  The draw sequences
mix 32-bit and 64-bit draws so that the buffered high half of a 64-bit word
crosses from one call into the next.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fewvar.cli import main
from fewvar.rng import named_rng, stream_key
from helpers import GF7_CIRCUIT

INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1

SEEDS = st.one_of(
    st.sampled_from([0, 1, (1 << 32) - 1, 1 << 32, (1 << 64) - 1, 1 << 64,
                     -1, INT64_MIN]),
    st.integers(min_value=-(1 << 70), max_value=1 << 70))
LABELS = st.text(max_size=12)


def numpy_stream(seed, label):
    ss = np.random.SeedSequence(
        entropy=[int(seed) & ((1 << 64) - 1), stream_key(label)])
    return np.random.Generator(np.random.Philox(ss))


def numpy_draw(gen, name, args, kwargs):
    """The numpy call that fewvar's ``name`` reproduces."""
    if name == "choice":
        kwargs = {**kwargs, "replace": False}
    return getattr(gen, name)(*args, **kwargs)


def plain(x):
    """numpy's answer as the plain ints, floats and lists fewvar returns."""
    if isinstance(x, (np.ndarray, np.generic)):
        return x.tolist()
    return x


def exact_types(x):
    if isinstance(x, list):
        return all(exact_types(v) for v in x)
    return type(x) in (int, float)


# widths of [low, high): one value (no draw), small, near 3*2^30 (where
# Lemire's rejection fires about one draw in four), 2^32 (one raw 32-bit
# word), and past 2^32 up to the whole int64 range (the 64-bit path)
WIDTHS = st.one_of(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=3 * 2**30 - 2**16, max_value=3 * 2**30 + 2**16),
    st.sampled_from([2**32 - 1, 2**32, 2**32 + 1, 3 * 2**62, 2**63 + 5,
                     2**64 - 1, 2**64]),
    st.integers(min_value=2**32 + 1, max_value=2**64))
SIZES = st.one_of(st.none(), st.integers(min_value=0, max_value=6))


@st.composite
def integers_op(draw):
    width = draw(WIDTHS)
    low = draw(st.integers(min_value=-20, max_value=20))
    low = min(low, INT64_MAX + 1 - width)
    return ("integers", (low, low + width), {"size": draw(SIZES)})


@st.composite
def choice_op(draw):
    # a > 10000 with size > a // 50 takes numpy's tail-shuffle branch;
    # everything else takes Floyd's algorithm
    a = draw(st.one_of(st.integers(min_value=0, max_value=60),
                       st.integers(min_value=10001, max_value=10400)))
    cap = a // 50 + 30 if a > 10000 else a
    return ("choice", (a, draw(st.integers(min_value=0, max_value=cap))), {})


OPS = st.one_of(
    integers_op(),
    st.tuples(st.just("random"), st.just(()),
              st.fixed_dictionaries({"size": SIZES})),
    choice_op())


def test_key_and_first_words_on_fixed_seeds():
    for seed in (0, 1 << 32, (1 << 64) - 1, -1, -12345):
        ours, theirs = named_rng(seed, "x"), numpy_stream(seed, "x")
        assert ours.key == tuple(
            int(k) for k in theirs.bit_generator.state["state"]["key"])
        assert ours.integers(0, 2**32, size=3) == plain(
            theirs.integers(0, 2**32, size=3))


@settings(max_examples=150, deadline=None)
@given(LABELS)
def test_stream_key_is_hashlibs_blake2s(label):
    """``stream_key`` takes blake2s from ``_blake2``, not ``hashlib``; the
    digest is the same."""
    digest = hashlib.blake2s(label.encode("utf8"), digest_size=8).digest()
    assert stream_key(label) == int.from_bytes(digest, "big")


@settings(max_examples=150, deadline=None)
@given(SEEDS, LABELS)
def test_philox_key_matches_seed_sequence(seed, label):
    state = numpy_stream(seed, label).bit_generator.state
    assert state["bit_generator"] == "Philox"
    assert named_rng(seed, label).key == tuple(
        int(k) for k in state["state"]["key"])


@settings(max_examples=150, deadline=None)
@given(SEEDS, LABELS, st.lists(OPS, max_size=25))
def test_draw_sequences_match_numpy(seed, label, ops):
    ours, theirs = named_rng(seed, label), numpy_stream(seed, label)
    # end on a raw 32-bit word and a double, so a buffered half or a
    # counter out of step shows even when the last op drew nothing
    ops = ops + [("integers", (0, 2**32), {}), ("random", (), {})]
    for name, args, kwargs in ops:
        got = getattr(ours, name)(*args, **kwargs)
        want = numpy_draw(theirs, name, args, kwargs)
        assert got == plain(want), (name, args, kwargs)
        assert exact_types(got)


REFUSALS = [
    ("integers", (3, 3), {}),
    ("integers", (5, 2), {}),
    ("integers", (0, 2**63 + 1), {}),
    ("integers", (-(2**63) - 1, 0), {}),
    ("integers", (0, 5), {"size": -1}),
    ("random", (), {"size": -2}),
    ("choice", (3, 4), {}),
    ("choice", (0, 1), {}),
    ("choice", (5, -1), {}),
]


@pytest.mark.parametrize("name, args, kwargs", REFUSALS)
def test_refusals_match_numpy(name, args, kwargs):
    with pytest.raises(ValueError) as want:
        numpy_draw(numpy_stream(7, "refuse"), name, args, kwargs)
    with pytest.raises(ValueError) as got:
        getattr(named_rng(7, "refuse"), name)(*args, **kwargs)
    assert str(got.value) == str(want.value)


def test_choice_tail_shuffle_branch():
    """Past 10000 values and a fiftieth of them, numpy shuffles the tail of
    range(a) instead of running Floyd's algorithm; the whole permutation
    shuffles down to position 1."""
    ours, theirs = named_rng(5, "tail"), numpy_stream(5, "tail")
    for a, size in ((10001, 201), (12000, 5000), (20000, 20000)):
        assert ours.choice(a, size) == plain(
            theirs.choice(a, size, replace=False))
    assert ours.random() == theirs.random()


def test_empty_sizes_draw_nothing_and_check_no_bounds():
    ours, theirs = named_rng(3, "empty"), numpy_stream(3, "empty")
    assert ours.integers(5, 2, size=0) == plain(theirs.integers(5, 2, size=0))
    assert ours.choice(0, 0) == plain(theirs.choice(0, 0, replace=False))
    assert ours.random() == theirs.random()


def test_sz_refuses_a_domain_past_int64(tmp_path, capsys):
    f = tmp_path / "gf7.circuit"
    f.write_text(GF7_CIRCUIT)
    assert main(["sz", "--circuit", str(f), "--trials", "3",
                 "--domain", str(2**63 + 1), "--seed", "1"]) == 3
    assert capsys.readouterr().err == "error: high is out of bounds for int64\n"

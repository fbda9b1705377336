"""``rng.PhiloxStream`` against numpy: the CoA engine reads its delay and
drift words through it, so every word and float it gives must be the one
numpy's Philox and ``Generator.uniform`` give for the same key."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poslab.rng import PhiloxStream, derive_key

KEYS = [0, 1, 2 ** 64 - 1, derive_key(0, "delay"), derive_key(5694, "drift", "h042")]


def _numpy_words(key, n, advance=0):
    bits = np.random.Philox(key=key)
    bits.advance(advance)
    return bits.random_raw(n).tolist()


@pytest.mark.parametrize("key", KEYS)
@pytest.mark.parametrize("blocks", [1, 7, 256, 1000])
def test_a_fill_gives_numpys_words(key, blocks):
    """A first read of `blocks` blocks (4 words each) computes that many
    at once."""
    assert PhiloxStream(key).random_raw(4 * blocks) == _numpy_words(key, 4 * blocks)


@pytest.mark.parametrize("key", KEYS)
def test_reads_of_any_size_give_numpys_words_in_order(key):
    """Reads that end mid-block, reads served from words made ahead, and
    fills that grow to their cap all go on where the last read stopped."""
    stream, bits = PhiloxStream(key), np.random.Philox(key=key)
    for n in (1, 3, 99, 0, 5, 1024, 4097, 2, 99, 99):
        assert stream.random_raw(n) == bits.random_raw(n).tolist()


@pytest.mark.parametrize("key", KEYS)
@pytest.mark.parametrize("advance", [1, 12345, 2 ** 40 + 3])
def test_a_stream_with_its_counter_set_reads_an_advanced_philox(key, advance):
    stream = PhiloxStream(key)
    stream.counter = advance
    assert stream.random_raw(4 * 300 + 1) == _numpy_words(key, 4 * 300 + 1, advance)


def test_the_counter_raises_rather_than_wrap():
    """The last two blocks below 2^64 are numpy's; the next read would need
    a counter of 2^64, where numpy carries into the counter's next word."""
    stream = PhiloxStream(7)
    stream.counter = 2 ** 64 - 3
    assert stream.random_raw(1) + stream.random_raw(7) == \
        _numpy_words(7, 8, 2 ** 64 - 3)
    with pytest.raises(OverflowError):
        stream.random_raw(1)
    stream = PhiloxStream(7)
    stream.counter = 2 ** 64 - 2
    with pytest.raises(OverflowError):
        stream.random_raw(5)


LARGEST_DELAY = float(np.nextafter(2.0 ** 64, 0))   # delays.max is below 2^64
bounds = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-2 ** 64, 2 ** 64),
    st.sampled_from([0.0, -0.0, 0.2, 2.0, 5e-324, LARGEST_DELAY]))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(bounds, bounds, st.integers(0, 2 ** 64 - 1), st.integers(0, 40))
def test_uniform_gives_numpys_floats(a, b, key, size):
    """Over finite low <= high (a zero span, -d..d, and the largest delay a
    config allows among them), ``uniform`` gives numpy's floats bit for bit,
    a list for a size and a float for none, and leaves the stream where
    numpy's generator is."""
    for low, high in ((min(a, b), max(a, b)), (-abs(a), abs(a)), (a, a),
                      (0.2, LARGEST_DELAY)):
        if not np.isfinite(float(high) - float(low)):
            continue
        stream, gen = PhiloxStream(key), np.random.Generator(np.random.Philox(key=key))
        drawn = stream.uniform(low, high, size)
        assert repr(drawn) == repr(gen.uniform(low, high, size).tolist())
        one = stream.uniform(low, high)
        assert type(one) is float and repr(one) == repr(float(gen.uniform(low, high)))
        assert stream.random_raw(3) == gen.bit_generator.random_raw(3).tolist()


def test_uniform_refuses_what_numpy_refuses():
    for low, high in ((2.0, 1.0), (-1e308, 1e308)):
        with pytest.raises((ValueError, OverflowError)):
            np.random.default_rng(0).uniform(low, high)
        with pytest.raises(ValueError):
            PhiloxStream(0).uniform(low, high)

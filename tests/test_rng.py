"""Keyed random streams: generator, key derivation and stream identity."""

import numpy as np
import pytest

from hierfw.rng import CHUNK, stream


def test_bit_generator_is_sfc64():
    assert isinstance(stream(0, "a").bit_generator, np.random.SFC64)


def test_same_key_same_draws():
    a = stream(11, "forward", 3)
    b = stream(11, "forward", 3)
    assert np.array_equal(a.random(8), b.random(8))
    assert np.array_equal(a.standard_normal(8), b.standard_normal(8))


@pytest.mark.parametrize("other", [
    (12, "forward", 3),      # seed
    (11, "dual-H", 3),       # label
    (11, "forward", 4),      # chunk
    (11, "forward"),         # missing label
])
def test_different_key_different_draws(other):
    assert stream(11, "forward", 3).random() != stream(*other).random()


def test_pinned_draws():
    # recorded once; a change of generator or key derivation fails here
    expected = [0.7370618060446936, 0.7508663478531833,
                0.3245222175381115, 0.4121296266387917]
    assert stream(0, "pin").random(4).tolist() == expected


def test_chunk_is_whole_raw_words():
    # the forward step joins its chunks' raw 64-bit words into one sign
    # stream, so a chunk's signs must fill whole words for any colony count
    assert CHUNK % 64 == 0

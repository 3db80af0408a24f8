"""Stream addressing: same ids reproduce, different ids decorrelate."""

import numpy as np
import pytest

from spavg.randomness import RngStream


def test_same_stream_reproduces_exactly():
    a = RngStream(7, 3).generator().standard_normal(100)
    b = RngStream(7, 3).generator().standard_normal(100)
    np.testing.assert_array_equal(a, b)


def test_distinct_stream_ids_differ():
    a = RngStream(7, 0).generator().standard_normal(100)
    b = RngStream(7, 1).generator().standard_normal(100)
    assert not np.array_equal(a, b)


def test_distinct_master_seeds_differ():
    a = RngStream(1, 0).generator().standard_normal(100)
    b = RngStream(2, 0).generator().standard_normal(100)
    assert not np.array_equal(a, b)


def test_lanes_are_independent_channels():
    stream = RngStream(2026, 5)
    slow = stream.generator(0).standard_normal(64)
    fast = stream.generator(1).standard_normal(64)
    assert not np.array_equal(slow, fast)
    # Re-opening a lane restarts its bitstream.
    again = stream.generator(1).standard_normal(64)
    np.testing.assert_array_equal(fast, again)


def test_prefix_stability():
    # Drawing a longer block extends, never changes, the prefix.
    short = RngStream(11, 2).generator().standard_normal(16)
    long = RngStream(11, 2).generator().standard_normal(64)
    np.testing.assert_array_equal(short, long[:16])


def test_stream_validation():
    with pytest.raises(ValueError):
        RngStream(-1, 0)
    with pytest.raises(ValueError):
        RngStream(0, -2)
    with pytest.raises(ValueError):
        RngStream(0, 0).generator(-1)


def test_moments_are_plausible():
    draws = RngStream(404, 9).generator().standard_normal(200_000)
    assert abs(draws.mean()) < 3.0 / np.sqrt(draws.size)
    assert abs(draws.std() - 1.0) < 3.0 / np.sqrt(draws.size)

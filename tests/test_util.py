"""Unit tests for the shared utilities (validation, timing, counters)."""

import numpy as np
import pytest

from repro.util.counters import OpCounter
from repro.util.timing import timed
from repro.util.validation import (
    as_index_array,
    check_positive_int,
    check_shape,
    require,
)


class TestValidation:
    def test_require(self):
        require(True, "never raised")
        with pytest.raises(ValueError, match="boom"):
            require(False, "boom")

    def test_check_positive_int(self):
        assert check_positive_int(3, "x") == 3
        assert check_positive_int(np.int64(5), "x") == 5
        with pytest.raises(ValueError):
            check_positive_int(0, "x")
        with pytest.raises(TypeError):
            check_positive_int(2.5, "x")
        with pytest.raises(TypeError):
            check_positive_int(True, "x")

    def test_check_shape(self):
        assert check_shape([3, 4]) == (3, 4)
        with pytest.raises(ValueError):
            check_shape([])
        with pytest.raises(ValueError):
            check_shape([3, 0])
        with pytest.raises(TypeError):
            check_shape(5)

    def test_as_index_array(self):
        arr = as_index_array([[0, 1], [2, 3]], 2)
        assert arr.shape == (2, 2) and arr.dtype == np.int64
        arr1 = as_index_array([0, 1, 2], 1)
        assert arr1.shape == (3, 1)
        with pytest.raises(ValueError):
            as_index_array([[0, 1]], 3)
        with pytest.raises(ValueError):
            as_index_array([[0, -1]], 2)


class TestTimer:
    def test_timed(self):
        calls = []

        def fn(x):
            calls.append(x)
            return x * 2

        best, result = timed(fn, 21, repeat=3)
        assert result == 42
        assert len(calls) == 3
        assert best >= 0.0
        with pytest.raises(ValueError):
            timed(fn, 1, repeat=0)


class TestOpCounter:
    def test_accumulation(self):
        c = OpCounter()
        c.add_flops(10)
        c.add_flops(np.int64(4))
        assert c.flops == 14
        assert type(c.flops) is int

    def test_reset(self):
        c = OpCounter()
        c.add_flops(5)
        c.reset()
        assert c == OpCounter()

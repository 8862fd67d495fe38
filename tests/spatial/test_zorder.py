"""Tests for repro.spatial.zorder."""

from hypothesis import given
from hypothesis import strategies as st

from repro.datasets.synthetic import EXTENT
from repro.spatial import zorder
from repro.spatial.geometry import Point
from repro.spatial.zorder import ZOrderCurve, interleave_bits


def deinterleave_bits(code: int, bits: int = 16) -> tuple:
    """Inverse of :func:`interleave_bits`; returns ``(ix, iy)``."""
    ix = iy = 0
    for i in range(bits):
        ix |= ((code >> (2 * i)) & 1) << i
        iy |= ((code >> (2 * i + 1)) & 1) << i
    return ix, iy


class TestInterleave:
    def test_known_values(self):
        # x = 0b11, y = 0b00 -> bits at even positions
        assert interleave_bits(0b11, 0b00) == 0b0101
        # x = 0b00, y = 0b11 -> bits at odd positions
        assert interleave_bits(0b00, 0b11) == 0b1010

    def test_zero(self):
        assert interleave_bits(0, 0) == 0

    @given(st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1))
    def test_roundtrip(self, ix, iy):
        code = interleave_bits(ix, iy)
        assert deinterleave_bits(code) == (ix, iy)

    @given(st.integers(0, 2**10 - 1), st.integers(0, 2**10 - 1))
    def test_monotone_in_each_coordinate_block(self, ix, iy):
        # Increasing either coordinate strictly increases the code when
        # the other is fixed at zero.
        if ix > 0:
            assert interleave_bits(ix, 0) > interleave_bits(ix - 1, 0)
        if iy > 0:
            assert interleave_bits(0, iy) > interleave_bits(0, iy - 1)


def decode(code: int) -> Point:
    """Corner of the grid cell :data:`~repro.spatial.zorder.CURVE`
    encodes as ``code``."""
    ix, iy = deinterleave_bits(code)
    cell = zorder.EXTENT / ((1 << zorder.BITS) - 1)
    return Point(ix * cell, iy * cell)


class TestZOrderCurve:
    def test_invalid_domain(self):
        # The curve's domain is the square the generators draw in.
        assert zorder.EXTENT == EXTENT > 0

    def test_invalid_bits(self):
        # A code is 2 * BITS bits wide and fits a 64-bit page key.
        assert 1 <= zorder.BITS <= 31
        assert ZOrderCurve().encode(EXTENT, EXTENT) == (1 << 2 * zorder.BITS) - 1

    def test_corners(self):
        curve = ZOrderCurve()
        assert curve.encode(0, 0) == 0
        assert curve.encode(10000, 10000) == (1 << 32) - 1

    def test_clamping_out_of_domain(self):
        curve = ZOrderCurve()
        assert curve.encode(-50, -50) == curve.encode(0, 0)
        assert curve.encode(50000, 50000) == curve.encode(10000, 10000)

    def test_encode_point_matches_encode(self):
        curve = ZOrderCurve()
        assert curve.encode_point(Point(123.0, 456.0)) == curve.encode(123.0, 456.0)

    @given(
        st.floats(0, 10000, allow_nan=False),
        st.floats(0, 10000, allow_nan=False),
    )
    def test_decode_is_near_inverse(self, x, y):
        p = decode(ZOrderCurve().encode(x, y))
        cell = 10000.0 / (2**16 - 1)
        assert abs(p.x - x) <= cell + 1e-9
        assert abs(p.y - y) <= cell + 1e-9

    def test_locality_on_average(self):
        """Close points get closer codes than far ones *on average*.

        Single pairs can straddle a quadrant boundary (the worst case of
        any space-filling curve), so the property is statistical.
        """
        import numpy as np

        curve = ZOrderCurve()
        rng = np.random.default_rng(0)
        near_gaps, far_gaps = [], []
        for _ in range(300):
            x, y = rng.uniform(100, 9900, size=2)
            base = curve.encode(x, y)
            near_gaps.append(abs(base - curve.encode(x + 5, y + 5)))
            fx, fy = rng.uniform(0, 10000, size=2)
            far_gaps.append(abs(base - curve.encode(fx, fy)))
        assert np.median(near_gaps) < np.median(far_gaps) / 100

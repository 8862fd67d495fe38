"""Z-order (Morton) space-filling curve.

The CCAM layout (paper §2.2) clusters road nodes by the Z-ordering of
their coordinates, and the per-keyword B+-trees of the inverted file
(paper §3.1) key edges by the Z-order code of their centre point.  The
curve maps 2-d points in a bounded domain to 1-d codes that preserve
spatial locality.
"""

from __future__ import annotations

from .geometry import Point

__all__ = ["CURVE", "ZOrderCurve", "interleave_bits", "deinterleave_bits"]

_DEFAULT_BITS = 16


def interleave_bits(ix: int, iy: int, bits: int = _DEFAULT_BITS) -> int:
    """Interleave the low ``bits`` bits of ``ix`` and ``iy``.

    Bit ``i`` of ``ix`` lands at position ``2i`` and bit ``i`` of ``iy``
    at position ``2i + 1`` of the result.
    """
    code = 0
    for i in range(bits):
        code |= ((ix >> i) & 1) << (2 * i)
        code |= ((iy >> i) & 1) << (2 * i + 1)
    return code


def deinterleave_bits(code: int, bits: int = _DEFAULT_BITS) -> tuple:
    """Inverse of :func:`interleave_bits`; returns ``(ix, iy)``."""
    ix = iy = 0
    for i in range(bits):
        ix |= ((code >> (2 * i)) & 1) << i
        iy |= ((code >> (2 * i + 1)) & 1) << i
    return ix, iy


class ZOrderCurve:
    """Z-order codec over a rectangular coordinate domain.

    Coordinates are quantised onto a ``2^bits x 2^bits`` grid covering
    ``[xmin, xmax] x [ymin, ymax]`` and the grid cells are interleaved
    into a Morton code.
    """

    def __init__(
        self,
        xmin: float = 0.0,
        ymin: float = 0.0,
        xmax: float = 10000.0,
        ymax: float = 10000.0,
        bits: int = _DEFAULT_BITS,
    ) -> None:
        if xmax <= xmin or ymax <= ymin:
            raise ValueError("Z-order domain must have positive extent")
        if not 1 <= bits <= 31:
            raise ValueError("bits must be in [1, 31]")
        self.xmin = xmin
        self.ymin = ymin
        self.xmax = xmax
        self.ymax = ymax
        self.bits = bits
        self._cells = (1 << bits) - 1
        self._sx = self._cells / (xmax - xmin)
        self._sy = self._cells / (ymax - ymin)

    def encode(self, x: float, y: float) -> int:
        """Morton code of point ``(x, y)``; clamps out-of-domain input."""
        # The small epsilon absorbs float rounding at exact cell
        # boundaries (e.g. the domain's far corner).
        ix = int(max(0.0, min(float(self._cells), (x - self.xmin) * self._sx + 1e-9)))
        iy = int(max(0.0, min(float(self._cells), (y - self.ymin) * self._sy + 1e-9)))
        return interleave_bits(ix, iy, self.bits)

    def encode_point(self, p: Point) -> int:
        return self.encode(p.x, p.y)

    def decode(self, code: int) -> Point:
        """Centre of the grid cell addressed by ``code``."""
        ix, iy = deinterleave_bits(code, self.bits)
        return Point(self.xmin + ix / self._sx, self.ymin + iy / self._sy)


#: The one curve the disk layout is keyed by: CCAM's node order and the
#: edge keys of IF, SIF, SIF-P and SIF-G.  The default domain,
#: ``[0, 10 000]²`` at 16 bits a coordinate; a point outside it clamps
#: to its border.
CURVE = ZOrderCurve()

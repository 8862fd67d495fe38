"""Z-order (Morton) space-filling curve.

The CCAM layout (paper §2.2) clusters road nodes by the Z-ordering of
their coordinates, and the per-keyword B+-trees of the inverted file
(paper §3.1) key edges by the Z-order code of their centre point.  The
curve maps 2-d points in a bounded domain to 1-d codes that preserve
spatial locality.
"""

from __future__ import annotations

from .geometry import Point

__all__ = ["CURVE", "ZOrderCurve", "interleave_bits"]

#: The curve's domain is ``[0, EXTENT]²``, quantised to ``BITS`` bits a
#: coordinate.
EXTENT = 10000.0
BITS = 16


def interleave_bits(ix: int, iy: int) -> int:
    """Interleave the low :data:`BITS` bits of ``ix`` and ``iy``.

    Bit ``i`` of ``ix`` lands at position ``2i`` and bit ``i`` of ``iy``
    at position ``2i + 1`` of the result.
    """
    code = 0
    for i in range(BITS):
        code |= ((ix >> i) & 1) << (2 * i)
        code |= ((iy >> i) & 1) << (2 * i + 1)
    return code


class ZOrderCurve:
    """Z-order codec over the ``[0, EXTENT]²`` domain.

    Coordinates are quantised onto a ``2^BITS x 2^BITS`` grid and the
    grid cells are interleaved into a Morton code.
    """

    def __init__(self) -> None:
        self._cells = (1 << BITS) - 1
        self._scale = self._cells / EXTENT

    def encode(self, x: float, y: float) -> int:
        """Morton code of point ``(x, y)``; clamps out-of-domain input."""
        # The small epsilon absorbs float rounding at exact cell
        # boundaries (e.g. the domain's far corner).
        ix = int(max(0.0, min(float(self._cells), x * self._scale + 1e-9)))
        iy = int(max(0.0, min(float(self._cells), y * self._scale + 1e-9)))
        return interleave_bits(ix, iy)

    def encode_point(self, p: Point) -> int:
        return self.encode(p.x, p.y)


#: The one curve the disk layout is keyed by: CCAM's node order and the
#: edge keys of IF, SIF, SIF-P and SIF-G.  A point outside the domain
#: clamps to its border.
CURVE = ZOrderCurve()

"""Cursor-based bit stream reader, the dual of :class:`~repro.bits.writer.BitWriter`."""

from __future__ import annotations

import struct
from collections.abc import Sequence

from repro.errors import BitstreamUnderflow, CodecError

__all__ = ["BitReader"]


class BitReader:
    """Reads bits MSB-first from a stream produced by :class:`BitWriter`.

    Construct either from ``(acc, nbits)`` as returned by
    :meth:`BitWriter.to_int`, or from ``bytes`` (in which case the bit count
    is ``8 * len(data)`` unless ``nbits`` is given explicitly to trim the
    right-padding added by :meth:`BitWriter.to_bytes`).
    """

    __slots__ = ("_acc", "_nbits", "_pos")

    def __init__(self, data: bytes | int, nbits: int | None = None) -> None:
        if isinstance(data, bytes):
            acc = int.from_bytes(data, "big")
            total = 8 * len(data)
            if nbits is not None:
                if nbits > total or nbits < 0:
                    raise CodecError(f"nbits {nbits} out of range for {len(data)} bytes")
                acc >>= total - nbits
                total = nbits
        else:
            if nbits is None:
                raise CodecError("nbits is required when constructing from an int")
            if nbits < 0 or (nbits == 0 and data != 0) or (data >> nbits):
                raise CodecError(f"value does not fit in {nbits} bits")
            acc = data
            total = nbits
        self._acc = acc
        self._nbits = total
        self._pos = 0

    @property
    def remaining(self) -> int:
        """Bits left to read."""
        return self._nbits - self._pos

    @property
    def position(self) -> int:
        """Bits consumed so far."""
        return self._pos

    def read_bit(self) -> int:
        """Read and return the next bit."""
        return self.read_bits(1)

    def read_bits(self, width: int) -> int:
        """Read the next ``width`` bits as a non-negative integer."""
        if width < 0:
            raise CodecError(f"width must be >= 0, got {width}")
        if width > self.remaining:
            raise BitstreamUnderflow(
                f"requested {width} bits but only {self.remaining} remain"
            )
        shift = self._nbits - self._pos - width
        value = (self._acc >> shift) & ((1 << width) - 1)
        self._pos += width
        return value

    def read_many(self, widths: Sequence[int]) -> list[int]:
        """Read one field per entry of ``widths``; the dual of ``write_many``.

        Equal to ``[self.read_bits(w) for w in widths]``, values and final
        :attr:`position` alike, but the message-sized stream is shifted
        once, not once per field: the span the batch covers converts to
        bytes in one call and the fields are cut from it 64 bits at a time,
        so reading ``k`` fields from an ``N``-bit message costs ``O(N + k)``
        word operations instead of ``O(N·k)``.  This is the referee's
        decode hot path (sketch counters, power sums).

        Every width and the total length are checked before anything is
        read.  A bad batch raises the same :class:`CodecError` /
        :class:`BitstreamUnderflow` text that ``read_bits`` would raise at
        the first failing field, and leaves the reader where it was.
        """
        left = self._nbits - self._pos
        need = sum(widths)
        if need > left or (widths and min(widths) < 0):
            # Replay read_bits' checks field by field: one of them raises.
            for width in widths:
                if width < 0:
                    raise CodecError(f"width must be >= 0, got {width}")
                if width > left:
                    raise BitstreamUnderflow(
                        f"requested {width} bits but only {left} remain"
                    )
                left -= width
        span = (self._acc >> (left - need)) & ((1 << need) - 1)
        pad = -need % 64
        words = iter(struct.unpack(f">{(need + pad) >> 6}Q",
                                   (span << pad).to_bytes((need + pad) >> 3, "big")))
        self._pos += need
        values = []
        buf = have = 0
        for width in widths:
            while have < width:
                buf = (buf << 64) | next(words)
                have += 64
            have -= width
            values.append(buf >> have)
            buf &= (1 << have) - 1
        return values

    def expect_exhausted(self) -> None:
        """Raise :class:`CodecError` unless every bit has been consumed.

        Decoders call this to catch framing bugs: a well-formed message is
        read exactly once with nothing left over.
        """
        if self.remaining:
            raise CodecError(f"{self.remaining} unread bits remain in stream")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"BitReader(pos={self._pos}, nbits={self._nbits})"

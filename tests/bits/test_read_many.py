"""BitReader.read_many is per-field read_bits in one pass: values, position, errors."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bits import BitReader, BitWriter
from repro.errors import BitstreamError, BitstreamUnderflow, CodecError

# Sketch-counter and power-sum shapes: small ids, 61-bit field elements,
# (p+1)·w power sums, 64-bit word edges, and zero widths.
_WIDTHS = st.one_of(
    st.sampled_from([0, 1, 7, 8, 12, 24, 61, 63, 64, 65, 127, 128, 129]),
    st.builds(lambda p, w: (p + 1) * w, st.integers(1, 8), st.integers(1, 14)),
    st.integers(0, 200),
)


def _outcome(reader, read):
    try:
        return read(), reader.position
    except BitstreamError as exc:
        return type(exc), str(exc), reader.position


def _both(acc, nbits, skip, widths):
    """(per-field outcome, read_many outcome) on two readers of one stream."""
    one, many = BitReader(acc, nbits), BitReader(acc, nbits)
    one.read_bits(skip)
    many.read_bits(skip)
    return (_outcome(one, lambda: [one.read_bits(w) for w in widths]),
            _outcome(many, lambda: many.read_many(widths)))


@st.composite
def _streams(draw):
    """A stream holding ``skip`` bits then the fields, cut or padded at random."""
    widths = draw(st.lists(_WIDTHS, max_size=40))
    skip = draw(st.integers(0, 70))
    writer = BitWriter()
    writer.write_bits(draw(st.integers(0, (1 << skip) - 1)), skip)
    writer.write_many([(draw(st.integers(0, (1 << w) - 1)), w) for w in widths])
    writer.write_bits(0, draw(st.integers(0, 70)))
    acc, nbits = writer.to_int()
    keep = draw(st.integers(skip, nbits))  # cut anywhere: underflow at any field
    return acc >> (nbits - keep), keep, skip, widths


class TestReadManyMatchesReadBits:
    @settings(max_examples=400)
    @given(_streams())
    def test_values_position_and_errors(self, stream):
        acc, nbits, skip, widths = stream
        per_field, batched = _both(acc, nbits, skip, widths)
        assert batched[:-1] == per_field[:-1]
        if isinstance(per_field[0], list):
            assert batched[-1] == per_field[-1] == skip + sum(widths)
        else:
            assert batched[-1] == skip  # a rejected batch reads nothing

    @settings(max_examples=200)
    @given(_streams(), st.data())
    def test_negative_width_anywhere(self, stream, data):
        acc, nbits, skip, widths = stream
        at = data.draw(st.integers(0, len(widths)))
        widths = widths[:at] + [data.draw(st.integers(-70, -1))] + widths[at:]
        per_field, batched = _both(acc, nbits, skip, widths)
        assert batched[:-1] == per_field[:-1]
        assert batched[0] in (CodecError, BitstreamUnderflow)

    def test_fields_across_word_boundaries(self):
        widths = [3, 61, 64, 1, 65, 0, 130, 61, 0]
        values = [((1 << w) - 1) >> (i % w) for i, w in enumerate(widths) if w]
        fields = list(zip(values, [w for w in widths if w]))
        writer = BitWriter()
        writer.write_many(fields)
        reader = BitReader(*writer.to_int())
        got = reader.read_many(widths)
        assert [v for v, w in zip(got, widths) if w] == values
        assert [v for v, w in zip(got, widths) if not w] == [0, 0]
        reader.expect_exhausted()

    def test_sketch_shaped_batch(self):
        widths = [8, 21, 61] * 15 * 16  # one n=128 AGM message
        fields = [((i * 2654435761) % (1 << w), w) for i, w in enumerate(widths)]
        writer = BitWriter()
        writer.write_many(fields)
        reader = BitReader(*writer.to_int())
        assert reader.read_many(widths) == [v for v, _ in fields]
        reader.expect_exhausted()

    def test_underflow_text_names_the_failing_field(self):
        reader = BitReader(0, 100)
        with pytest.raises(BitstreamUnderflow, match="requested 61 bits but only 39 remain"):
            reader.read_many([61, 61])
        assert reader.position == 0

    def test_empty_batch(self):
        reader = BitReader(0b101, 3)
        assert reader.read_many([]) == []
        assert reader.position == 0

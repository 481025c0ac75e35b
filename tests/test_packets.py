import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrdisc.packets import (MAX_RELATED_RECORDS, RECORD_SIZE, SREP_HEADER_SIZE,
                              SREP_TYPE, SREQ_SIZE, PacketError, Sreq, Srep,
                              decode_packet, encode_packet)

# Golden byte vectors, derived by hand from the layout (big-endian).
GOLDEN_SREQ = Sreq(origin=1, seq=0, session_seq=0, requested=5, ttl=4)
GOLDEN_SREQ_BYTES = bytes.fromhex("01" "0001" "00000000" "00000000" "0005" "04")

GOLDEN_SREP = Srep(responder=2, destination=1, in_reply_to=(1, 7), ttl=3,
                   answer=(5, 9), related=((6, 4), (8, 2)))
GOLDEN_SREP_BYTES = bytes.fromhex(
    "02" "0002" "0001" "0001" "00000007" "03" "03"
    "0005" "0009" "0006" "0004" "0008" "0002")


def test_golden_sreq_bytes():
    assert encode_packet(GOLDEN_SREQ) == GOLDEN_SREQ_BYTES
    assert len(GOLDEN_SREQ_BYTES) == SREQ_SIZE == 14
    assert decode_packet(GOLDEN_SREQ_BYTES) == GOLDEN_SREQ


def test_golden_srep_bytes():
    assert encode_packet(GOLDEN_SREP) == GOLDEN_SREP_BYTES
    # header + 3 records (answer + 2 related)
    assert len(GOLDEN_SREP_BYTES) == SREP_HEADER_SIZE + 3 * RECORD_SIZE == 25
    assert decode_packet(GOLDEN_SREP_BYTES) == GOLDEN_SREP


def test_decode_empty_buffer():
    with pytest.raises(PacketError):
        decode_packet(b"")


def test_decode_unknown_type_byte():
    with pytest.raises(PacketError, match="type byte"):
        decode_packet(b"\x07" + b"\x00" * 13)


def test_decode_truncated():
    with pytest.raises(PacketError):
        decode_packet(GOLDEN_SREQ_BYTES[:10])
    with pytest.raises(PacketError):
        decode_packet(GOLDEN_SREP_BYTES[:12])
    with pytest.raises(PacketError):
        decode_packet(GOLDEN_SREP_BYTES[:-1])


def test_decode_rejects_trailing_garbage():
    with pytest.raises(PacketError):
        decode_packet(GOLDEN_SREQ_BYTES + b"\x00")
    with pytest.raises(PacketError):
        decode_packet(GOLDEN_SREP_BYTES + b"\xff")


def test_decode_record_count_bounds():
    # k = 0 is invalid (an SREP always carries its answer).
    bad = bytearray(GOLDEN_SREP_BYTES)
    bad[12] = 0
    with pytest.raises(PacketError, match="count"):
        decode_packet(bytes(bad[:SREP_HEADER_SIZE]))
    # k = 34 would mean 33 related records.
    bad[12] = 34
    with pytest.raises(PacketError, match="count"):
        decode_packet(bytes(bad[:SREP_HEADER_SIZE]) + b"\x00" * (34 * RECORD_SIZE))


def test_encode_rejects_out_of_range():
    with pytest.raises(PacketError):
        encode_packet(Sreq(origin=70000, seq=0, session_seq=0, requested=1, ttl=1))
    with pytest.raises(PacketError):
        encode_packet(Sreq(origin=1, seq=0, session_seq=0, requested=1, ttl=300))


def test_encode_rejects_duplicate_or_echoed_related():
    with pytest.raises(PacketError):
        encode_packet(Srep(1, 2, (2, 0), 1, answer=(5, 1), related=((6, 1), (6, 2))))
    with pytest.raises(PacketError):
        encode_packet(Srep(1, 2, (2, 0), 1, answer=(5, 1), related=((5, 2),)))


def test_decode_rejects_duplicate_or_echoed_related():
    # Hand-built buffers that encode_packet refuses to produce.
    echoed = bytes.fromhex("02" "0001" "0002" "0002" "00000000" "01" "02"
                           "0005" "0009" "0005" "0004")
    with pytest.raises(PacketError, match="unique"):
        decode_packet(echoed)
    repeated = bytes.fromhex("02" "0001" "0002" "0002" "00000000" "01" "03"
                             "0005" "0001" "0006" "0001" "0006" "0002")
    with pytest.raises(PacketError, match="unique"):
        decode_packet(repeated)


def test_encode_rejects_oversize_related():
    related = tuple((i, 0) for i in range(MAX_RELATED_RECORDS + 1))
    with pytest.raises(PacketError):
        encode_packet(Srep(1, 2, (2, 0), 1, answer=(100, 1), related=related))


u16 = st.integers(min_value=0, max_value=0xFFFF)
u32 = st.integers(min_value=0, max_value=0xFFFFFFFF)
u8 = st.integers(min_value=0, max_value=0xFF)

sreq_st = st.builds(Sreq, origin=u16, seq=u32, session_seq=u32, requested=u16, ttl=u8)


@st.composite
def srep_st(draw):
    answer_service = draw(u16)
    others = draw(st.lists(u16.filter(lambda s: s != answer_service),
                           max_size=MAX_RELATED_RECORDS, unique=True))
    related = tuple((svc, draw(u16)) for svc in others)
    return Srep(responder=draw(u16), destination=draw(u16),
                in_reply_to=(draw(u16), draw(u32)), ttl=draw(u8),
                answer=(answer_service, draw(u16)), related=related)


@settings(max_examples=300, deadline=None)
@given(sreq_st)
def test_sreq_round_trip(packet):
    data = encode_packet(packet)
    assert len(data) == SREQ_SIZE
    assert decode_packet(data) == packet


@settings(max_examples=300, deadline=None)
@given(srep_st())
def test_srep_round_trip(packet):
    data = encode_packet(packet)
    assert len(data) == SREP_HEADER_SIZE + (1 + len(packet.related)) * RECORD_SIZE
    assert decode_packet(data) == packet


@st.composite
def mutated_encoding(draw):
    """A valid encoding with bytes overwritten, a record's service copied
    over another's, and the end cut off or extended."""
    data = bytearray(encode_packet(draw(st.one_of(sreq_st, srep_st()))))
    for _ in range(draw(st.integers(0, 3))):
        data[draw(st.integers(0, len(data) - 1))] = draw(u8)
    records = (len(data) - SREP_HEADER_SIZE) // RECORD_SIZE
    if data[0] == SREP_TYPE and records > 1 and draw(st.booleans()):
        src, dst = (SREP_HEADER_SIZE + RECORD_SIZE * draw(st.integers(0, records - 1))
                    for _ in range(2))
        data[dst:dst + 2] = data[src:src + 2]
    data = data[:draw(st.integers(0, len(data)))] + draw(st.binary(max_size=8))
    return bytes(data)


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.binary(max_size=160), mutated_encoding()))
def test_decode_rejects_or_round_trips(data):
    # Any byte string either fails with PacketError or is exactly the
    # encoding of the packet it decodes to.
    try:
        packet = decode_packet(data)
    except PacketError:
        return
    assert encode_packet(packet) == data

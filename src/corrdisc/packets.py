"""Wire format of the discovery protocol.

Two packet types, all integers big-endian:

SREQ (14 bytes)
    type=0x01 (1) | origin (2) | seq (4) | session_seq (4) |
    requested service (2) | ttl (1)

SREP (13 + 4k bytes)
    type=0x02 (1) | responder (2) | destination (2) |
    in_reply_to origin (2) | in_reply_to seq (4) | ttl (1) |
    record count k (1, 1 <= k <= 33) | k x (service (2), provider (2))

Record 0 of an SREP is the direct answer; the rest are piggybacked
related-service records (at most 32) for distinct services other than the
answer's.  ``decode_packet`` accepts exactly what ``encode_packet`` emits.
"""

from __future__ import annotations

import struct
from typing import NamedTuple

SREQ_TYPE = 0x01
SREP_TYPE = 0x02

_SREQ = struct.Struct(">BHIIHB")
_SREP_HEADER = struct.Struct(">BHHHIBB")
_RECORD = struct.Struct(">HH")

SREQ_SIZE = _SREQ.size            # 14
SREP_HEADER_SIZE = _SREP_HEADER.size  # 13
RECORD_SIZE = _RECORD.size        # 4
MAX_RELATED_RECORDS = 32
ID_LIMIT = 1 << 16               # node and service ids are two-byte fields


class PacketError(ValueError):
    """Raised for malformed buffers and out-of-range field values."""


# The NamedTuples name the packet layout and are the codec's types.  The
# engine builds plain tuples in their field order instead, and routes a
# packet by its field count: a relay builds a packet per hop, and a tuple
# subclass costs about 0.5 us more per packet to build and free.
class Sreq(NamedTuple):
    origin: int
    seq: int
    session_seq: int
    requested: int
    ttl: int

    @property
    def msg_id(self) -> tuple[int, int]:
        return (self.origin, self.seq)


class Srep(NamedTuple):
    responder: int
    destination: int
    in_reply_to: tuple[int, int]
    ttl: int
    answer: tuple[int, int]                      # (service, provider)
    related: tuple[tuple[int, int], ...] = ()    # piggybacked records


SREQ_FIELDS = len(Sreq._fields)  # 5; an Srep has 6
# The engine's packets: plain tuples laid out as Sreq and Srep.
SreqFields = tuple[int, int, int, int, int]
SrepFields = tuple[int, int, tuple[int, int], int, tuple[int, int], tuple[tuple[int, int], ...]]


def _check_related(answer: tuple[int, int], related) -> None:
    services = [svc for svc, _ in related]
    if len(set(services)) != len(services) or answer[0] in services:
        raise PacketError("related records must be unique and exclude the answer")


def encode_packet(packet: Sreq | Srep) -> bytes:
    if isinstance(packet, Sreq):
        try:
            return _SREQ.pack(SREQ_TYPE, packet.origin, packet.seq,
                              packet.session_seq, packet.requested, packet.ttl)
        except struct.error as exc:
            raise PacketError(f"sreq field out of range: {exc}") from None
    if isinstance(packet, Srep):
        if len(packet.related) > MAX_RELATED_RECORDS:
            raise PacketError(
                f"at most {MAX_RELATED_RECORDS} related records, got {len(packet.related)}")
        _check_related(packet.answer, packet.related)
        reply_origin, reply_seq = packet.in_reply_to
        try:
            head = _SREP_HEADER.pack(SREP_TYPE, packet.responder, packet.destination,
                                     reply_origin, reply_seq, packet.ttl,
                                     1 + len(packet.related))
            body = b"".join(_RECORD.pack(svc, prov)
                            for svc, prov in (packet.answer, *packet.related))
        except struct.error as exc:
            raise PacketError(f"srep field out of range: {exc}") from None
        return head + body
    raise PacketError(f"unknown packet object {packet!r}")


def decode_packet(data: bytes) -> Sreq | Srep:
    if len(data) == 0:
        raise PacketError("empty buffer")
    kind = data[0]
    if kind == SREQ_TYPE:
        if len(data) != SREQ_SIZE:
            raise PacketError(f"sreq must be {SREQ_SIZE} bytes, got {len(data)}")
        _, origin, seq, session_seq, requested, ttl = _SREQ.unpack(data)
        return Sreq(origin, seq, session_seq, requested, ttl)
    if kind == SREP_TYPE:
        if len(data) < SREP_HEADER_SIZE:
            raise PacketError("truncated srep header")
        (_, responder, destination, reply_origin, reply_seq,
         ttl, count) = _SREP_HEADER.unpack_from(data)
        if not 1 <= count <= 1 + MAX_RELATED_RECORDS:
            raise PacketError(f"srep record count {count} out of range")
        expected = SREP_HEADER_SIZE + count * RECORD_SIZE
        if len(data) != expected:
            raise PacketError(f"srep with {count} records must be {expected} bytes, "
                              f"got {len(data)}")
        records = [_RECORD.unpack_from(data, SREP_HEADER_SIZE + i * RECORD_SIZE)
                   for i in range(count)]
        _check_related(records[0], records[1:])
        return Srep(responder, destination, (reply_origin, reply_seq), ttl,
                    records[0], tuple(records[1:]))
    raise PacketError(f"unknown packet type byte 0x{kind:02x}")

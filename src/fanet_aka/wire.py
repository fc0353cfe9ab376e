"""Canonical bit-exact message encodings and the bit accounting.

Every message is the plain concatenation of its fields in declared order,
big-endian bit order, no framing and no padding; message type and routing
are carried out of band by the simulated channel and are excluded from the
bit counts. Identities and digests are 160 bits, timestamps 32 bits, so
the three key-agreement messages measure 672, 672 and 512 bits. The
freshness decision on the 32-bit timestamp field lives here too.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dc_fields

from .bits import BitString, concat
from .crypto import DIGEST_BITS, ID_BITS, TS_BITS
from .errors import IncompleteTranscript, ReplayDetected, StaleTimestamp, WidthMismatch

F = DIGEST_BITS  # every non-timestamp wire field is one 160-bit element


@dataclass(frozen=True)
class Msg1:
    """User to gateway: authentication request."""

    mac1: BitString
    rid_j: BitString
    g_i: BitString
    f_i_prime: BitString
    ts1: BitString

    WIDTHS = (F, F, F, F, TS_BITS)
    KIND = "MSG1"


@dataclass(frozen=True)
class Msg2:
    """Gateway to UAV: relayed, re-keyed authentication material."""

    mac2: BitString
    v1: BitString
    h_i: BitString
    f_i_dprime: BitString
    ts2: BitString

    WIDTHS = (F, F, F, F, TS_BITS)
    KIND = "MSG2"


@dataclass(frozen=True)
class Msg3:
    """UAV to user: key confirmation. Note the timestamp sits third."""

    v5: BitString
    v4: BitString
    ts3: BitString
    v2: BitString

    WIDTHS = (F, F, TS_BITS, F)
    KIND = "MSG3"


@dataclass(frozen=True)
class UserRegRequest:
    tid_i: BitString
    tpw_i: BitString

    WIDTHS = (F, F)
    KIND = "USER_REG_REQUEST"


@dataclass(frozen=True)
class UserRegResponse:
    tc_id_i: BitString

    WIDTHS = (F,)
    KIND = "USER_REG_RESPONSE"


@dataclass(frozen=True)
class UavRegRequest:
    id_j: BitString

    WIDTHS = (ID_BITS,)
    KIND = "UAV_REG_REQUEST"


@dataclass(frozen=True)
class UavRegResponse:
    tc_id_j: BitString
    c_j: BitString

    WIDTHS = (F, F)
    KIND = "UAV_REG_RESPONSE"


@dataclass(frozen=True)
class UavRegSubmit:
    r_j: BitString

    WIDTHS = (F,)
    KIND = "UAV_REG_SUBMIT"


MESSAGE_TYPES = (Msg1, Msg2, Msg3, UserRegRequest, UserRegResponse, UavRegRequest,
                 UavRegResponse, UavRegSubmit)

MSG1_BITS = sum(Msg1.WIDTHS)
MSG2_BITS = sum(Msg2.WIDTHS)
MSG3_BITS = sum(Msg3.WIDTHS)


def encode(msg) -> BitString:
    """Serialize a message; raises WidthMismatch on any ill-sized field."""
    names = [f.name for f in dc_fields(msg)]
    parts = []
    for name, width in zip(names, msg.WIDTHS):
        value: BitString = getattr(msg, name)
        if value.width != width:
            raise WidthMismatch(f"{type(msg).__name__}.{name} must be {width} bits, "
                                f"got {value.width}")
        parts.append(value)
    return concat(parts)


def decode(cls, raw: BitString):
    """Exact-width parse of ``raw`` into a ``cls`` instance.

    Total on any input of the right width: field slicing cannot fail, so
    fuzzed payloads decode into (garbage) field values rather than faults.
    """
    total = sum(cls.WIDTHS)
    if raw.width != total:
        raise WidthMismatch(f"{cls.__name__} is {total} bits, got {raw.width}")
    values = []
    offset = 0
    for width in cls.WIDTHS:
        values.append(raw.slice(offset, offset + width))
        offset += width
    return cls(*values)


# The decode_msg* wrappers stay: the benchmark's traced run wraps them by name.
def decode_msg1(raw: BitString) -> Msg1:
    return decode(Msg1, raw)


def decode_msg2(raw: BitString) -> Msg2:
    return decode(Msg2, raw)


def decode_msg3(raw: BitString) -> Msg3:
    return decode(Msg3, raw)


def ts_bits(tick: int) -> BitString:
    """Timestamp field: unsigned 32-bit simulated-clock ticks."""
    return BitString(TS_BITS, tick & 0xFFFFFFFF)


def check_fresh(kind: str, ts: BitString, now: int, delta_t: int) -> int:
    """Signed offset of the 32-bit timestamp ``ts`` from the clock ``now``.

    The clock is unbounded but the field wraps, so the two are compared
    modulo 2**32 (serial-number arithmetic, RFC 1982): a timestamp just
    below the wrap is one tick old, not four billion. Raises
    StaleTimestamp when the offset is ``delta_t`` ticks or more either way.
    """
    offset = ((ts.value - now + 0x80000000) & 0xFFFFFFFF) - 0x80000000
    if abs(offset) >= delta_t:
        raise StaleTimestamp(f"{kind} outside freshness window")
    return offset


class FreshnessGuard:
    """Freshness window and replay cache of one receiving party.

    ``check`` runs before any hashing: the window, then the purge of
    expired MACs, then the replay lookup. ``accept`` caches the MAC of a
    message that has fully verified, until its timestamp leaves the window;
    a message that fails verification never enters the cache.
    """

    def __init__(self, kind: str, delta_t: int):
        self.kind = kind
        self.delta_t = delta_t
        self._cache: dict[BitString, int] = {}

    def check(self, mac: BitString, ts: BitString, now: int) -> int:
        """Reject a stale or replayed message; return its cache expiry tick."""
        offset = check_fresh(self.kind, ts, now, self.delta_t)
        expired = [m for m, expiry in self._cache.items() if expiry <= now]
        for m in expired:
            del self._cache[m]
        if mac in self._cache:
            raise ReplayDetected(f"{self.kind} MAC already accepted in this window")
        return now + offset + self.delta_t

    def accept(self, mac: BitString, expiry: int) -> None:
        self._cache[mac] = expiry


def protocol_bits(transcript) -> dict:
    """Per-message and total bit counts of a completed key-agreement run.

    Counts are measured from the serialized payloads in the transcript,
    never from constants; an incomplete run raises.
    """
    sizes: dict[str, int] = {}
    for entry in transcript:
        if entry.kind in ("MSG1", "MSG2", "MSG3") and entry.kind not in sizes:
            sizes[entry.kind] = entry.payload.width
    missing = [k for k in ("MSG1", "MSG2", "MSG3") if k not in sizes]
    if missing:
        raise IncompleteTranscript(f"transcript missing {', '.join(missing)}")
    return {
        "MSG1": sizes["MSG1"],
        "MSG2": sizes["MSG2"],
        "MSG3": sizes["MSG3"],
        "total": sizes["MSG1"] + sizes["MSG2"] + sizes["MSG3"],
        "message_count": 3,
    }

"""Canonical bit-exact message encodings and the bit accounting.

Every message is the plain concatenation of its fields in declared order,
big-endian bit order, no framing and no padding; message type and routing
are carried out of band by the simulated channel and are excluded from the
bit counts. Identities and digests are 160 bits, timestamps 32 bits, so
the three key-agreement messages measure 672, 672 and 512 bits. The
freshness decision on the 32-bit timestamp field lives here too.

Message objects are mutable slotted records. The encoded payload is the
immutable wire value: it is what the channel logs and what an intercept
sees and may replace.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dc_fields

from .bits import BitString, _unchecked
from .crypto import DIGEST_BITS, ID_BITS, TS_BITS
from .errors import IncompleteTranscript, ReplayDetected, StaleTimestamp, WidthMismatch

F = DIGEST_BITS  # every non-timestamp wire field is one 160-bit element


@dataclass(slots=True)
class Msg1:
    """User to gateway: authentication request."""

    mac1: BitString
    rid_j: BitString
    g_i: BitString
    f_i_prime: BitString
    ts1: BitString

    WIDTHS = (F, F, F, F, TS_BITS)
    KIND = "MSG1"


@dataclass(slots=True)
class Msg2:
    """Gateway to UAV: relayed, re-keyed authentication material."""

    mac2: BitString
    v1: BitString
    h_i: BitString
    f_i_dprime: BitString
    ts2: BitString

    WIDTHS = (F, F, F, F, TS_BITS)
    KIND = "MSG2"


@dataclass(slots=True)
class Msg3:
    """UAV to user: key confirmation. Note the timestamp sits third."""

    v5: BitString
    v4: BitString
    ts3: BitString
    v2: BitString

    WIDTHS = (F, F, TS_BITS, F)
    KIND = "MSG3"


@dataclass(slots=True)
class UserRegRequest:
    tid_i: BitString
    tpw_i: BitString

    WIDTHS = (F, F)
    KIND = "USER_REG_REQUEST"


@dataclass(slots=True)
class UserRegResponse:
    tc_id_i: BitString

    WIDTHS = (F,)
    KIND = "USER_REG_RESPONSE"


@dataclass(slots=True)
class UavRegRequest:
    id_j: BitString

    WIDTHS = (ID_BITS,)
    KIND = "UAV_REG_REQUEST"


@dataclass(slots=True)
class UavRegResponse:
    tc_id_j: BitString
    c_j: BitString

    WIDTHS = (F, F)
    KIND = "UAV_REG_RESPONSE"


@dataclass(slots=True)
class UavRegSubmit:
    r_j: BitString

    WIDTHS = (F,)
    KIND = "UAV_REG_SUBMIT"


MESSAGE_TYPES = (Msg1, Msg2, Msg3, UserRegRequest, UserRegResponse, UavRegRequest,
                 UavRegResponse, UavRegSubmit)


#: Per message class: its (field name, width) pairs in wire order, and
#: the total width.
_LAYOUTS = {cls: (tuple((f.name, w) for f, w in zip(dc_fields(cls), cls.WIDTHS)),
                 sum(cls.WIDTHS))
           for cls in MESSAGE_TYPES}


def encode(msg) -> BitString:
    """Serialize a message; raises WidthMismatch on any ill-sized field."""
    layout, total = _LAYOUTS[type(msg)]
    value = 0
    for name, width in layout:
        part: BitString = getattr(msg, name)
        if part.width != width:
            raise WidthMismatch(f"{type(msg).__name__}.{name} must be {width} bits, "
                                f"got {part.width}")
        value = (value << width) | part.value
    return _unchecked(total, value)


def decode(cls, raw: BitString):
    """Exact-width parse of ``raw`` into a ``cls`` instance.

    Total on any input of the right width: field slicing cannot fail, so
    fuzzed payloads decode into (garbage) field values rather than faults.
    """
    layout, total = _LAYOUTS[cls]
    if raw.width != total:
        raise WidthMismatch(f"{cls.__name__} is {total} bits, got {raw.width}")
    value = raw.value
    values = []
    for _, width in layout:
        total -= width
        values.append(_unchecked(width, (value >> total) & ((1 << width) - 1)))
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
    return _unchecked(TS_BITS, tick & 0xFFFFFFFF)


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
    """Replay cache of one receiving party, checked against the clock's window.

    ``check`` runs before any hashing: the window, then the purge of
    expired MACs, then the replay lookup. ``accept`` caches the MAC of a
    message that has fully verified, until its timestamp leaves the window;
    a message that fails verification never enters the cache.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self._cache: dict[BitString, int] = {}

    def check(self, mac: BitString, ts: BitString, clock) -> int:
        """Reject a stale or replayed message; return its cache expiry tick."""
        now, delta_t = clock.now, clock.delta_t
        offset = check_fresh(self.kind, ts, now, delta_t)
        expired = [m for m, expiry in self._cache.items() if expiry <= now]
        for m in expired:
            del self._cache[m]
        if mac in self._cache:
            raise ReplayDetected(f"{self.kind} MAC already accepted in this window")
        return now + offset + delta_t

    def accept(self, mac: BitString, expiry: int) -> None:
        self._cache[mac] = expiry


def protocol_bits(transcript) -> dict:
    """Per-message and total bit counts of a completed key-agreement run.

    Counts are measured from the serialized payloads in the transcript,
    never from constants; an incomplete run raises.
    """
    kinds = [cls.KIND for cls in (Msg1, Msg2, Msg3)]
    sizes: dict[str, int] = {}
    for entry in transcript:
        if entry.kind in kinds and entry.kind not in sizes:
            sizes[entry.kind] = entry.payload.width
    missing = [k for k in kinds if k not in sizes]
    if missing:
        raise IncompleteTranscript(f"transcript missing {', '.join(missing)}")
    counts = {k: sizes[k] for k in kinds}
    return {**counts, "total": sum(counts.values()), "message_count": len(kinds)}

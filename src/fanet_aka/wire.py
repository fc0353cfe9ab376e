"""Canonical bit-exact message encodings and the bit accounting.

Every message is the plain concatenation of its fields in declared order,
big-endian bit order, no framing and no padding; message type and routing
are carried out of band by the simulated channel and are excluded from the
bit counts. Identities and digests are 160 bits, timestamps 32 bits, so
the three key-agreement messages measure 672, 672 and 512 bits. The
freshness decision on the 32-bit timestamp field lives here too.

Message objects are immutable slotted records. Each field holds the plain
``int`` the role steps compute on, its width given by the record's
``WIDTHS``. The record constructor is the boundary, as
``BitString.__init__`` is: it also takes a BitString of a field's width
and keeps its ``int``, and since no field can be assigned afterwards,
``dataclasses.replace`` goes through it too. Each record carries a codec
generated from its ``WIDTHS``: packing range-checks every field and
shifts them into one payload, unpacking slices the payload by constant
shifts and masks. The encoded payload is the immutable wire value the
channel logs and an intercept may replace; the receiver gets the sender's
record unless the delivered bits differ, and only those are unpacked.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dc_fields
from heapq import heappop, heappush

from .bits import BitString, _set_value, _set_width
from .crypto import DIGEST_BITS, ID_BITS, TS_BITS
from .errors import IncompleteTranscript, ReplayDetected, StaleTimestamp, WidthMismatch

F = DIGEST_BITS  # every non-timestamp wire field is one 160-bit element


def _field_int(value, width: int, where: str) -> int:
    """The ``int`` of a BitString handed to a record's ``width``-bit field."""
    if type(value) is not BitString:
        raise TypeError(f"{where} takes an int or a BitString, "
                        f"got {type(value).__name__}")
    if value.width != width:
        raise WidthMismatch(f"{where} must be {width} bits, got {value.width}")
    return value.value


def _immutable(self, name, value=None):
    raise AttributeError(f"{type(self).__name__} is immutable; cannot change {name!r}")


def _record(cls):
    """Make ``cls`` an immutable slotted dataclass message record with a
    boundary constructor and its own codec.

    The constructor keeps an ``int`` as it is (packing range-checks it),
    turns a BitString of the field's width into its ``int``, and raises
    WidthMismatch on any other width. Packing range-checks the fields with
    one test per width, ``(a | b | c | d) >> 160 or ts >> 32``; only when
    that fails does it walk the per-field checks in declaration order, so
    the error names the first field out of range. It then shifts every
    field into one expression, the payload's value; unpacking slices the
    payload by constant (shift, mask) pairs. The source of all three is
    generated per class from ``WIDTHS``, as ``dataclasses`` does, and they
    set the fields through the slot descriptors, so the record is immutable
    to everyone else: assigning a field raises AttributeError.
    """
    cls = dataclass(slots=True, init=False)(cls)
    name = cls.__name__
    names = [f.name for f in dc_fields(cls)]
    total = sum(cls.WIDTHS)
    init = [f"def __init__(self, {', '.join(names)}):"]
    pack = ["def _pack(self):"]
    unpack = ["def _unpack(raw):",
              f"    if raw.width != {total}:",
              f"        raise WidthMismatch(f'{name} is {total} bits, got {{raw.width}}')",
              "    value = raw.value",
              "    msg = _new(cls)"]
    terms, checks, groups, shift = [], [], {}, total
    for field_name, width in zip(names, cls.WIDTHS):
        shift -= width
        where, mask = f"{name}.{field_name}", (1 << width) - 1
        init.append(f"    _set_{field_name}(self, {field_name} if type({field_name}) "
                    f"is int else _field_int({field_name}, {width}, '{where}'))")
        pack.append(f"    {field_name} = self.{field_name}")
        checks += [f"        if not 0 <= {field_name} <= {mask}:",
                   f"            raise WidthMismatch('{where} does not fit in {width} bits')"]
        groups.setdefault(width, []).append(field_name)
        terms.append(f"{field_name} << {shift}")
        unpack.append(f"    _set_{field_name}(msg, value >> {shift} & {mask})")
    # a negative field makes its group's OR negative, so the shift is nonzero too
    pack.append("    if " + " or ".join(f"({' | '.join(group)}) >> {width}"
                                        for width, group in groups.items()) + ":")
    pack += checks
    pack += ["    payload = _new(BitString)",
             f"    _set_width(payload, {total})",
             f"    _set_value(payload, {' | '.join(terms)})",
             "    return payload"]
    unpack.append("    return msg")
    namespace = {"cls": cls, "_field_int": _field_int, "_new": object.__new__,
                 "BitString": BitString, "_set_width": _set_width, "_set_value": _set_value,
                 "WidthMismatch": WidthMismatch}
    namespace.update({f"_set_{field_name}": cls.__dict__[field_name].__set__
                      for field_name in names})
    exec("\n".join(init + [""] + pack + [""] + unpack), namespace)
    cls.__init__ = namespace["__init__"]
    cls.__setattr__ = cls.__delattr__ = _immutable
    cls._pack = namespace["_pack"]
    cls._unpack = staticmethod(namespace["_unpack"])
    return cls


@_record
class Msg1:
    """User to gateway: authentication request."""

    mac1: int
    rid_j: int
    g_i: int
    f_i_prime: int
    ts1: int

    WIDTHS = (F, F, F, F, TS_BITS)
    KIND = "MSG1"


@_record
class Msg2:
    """Gateway to UAV: relayed, re-keyed authentication material."""

    mac2: int
    v1: int
    h_i: int
    f_i_dprime: int
    ts2: int

    WIDTHS = (F, F, F, F, TS_BITS)
    KIND = "MSG2"


@_record
class Msg3:
    """UAV to user: key confirmation. Note the timestamp sits third."""

    v5: int
    v4: int
    ts3: int
    v2: int

    WIDTHS = (F, F, TS_BITS, F)
    KIND = "MSG3"


@_record
class UserRegRequest:
    tid_i: int
    tpw_i: int

    WIDTHS = (F, F)
    KIND = "USER_REG_REQUEST"


@_record
class UserRegResponse:
    tc_id_i: int

    WIDTHS = (F,)
    KIND = "USER_REG_RESPONSE"


@_record
class UavRegRequest:
    id_j: int

    WIDTHS = (ID_BITS,)
    KIND = "UAV_REG_REQUEST"


@_record
class UavRegResponse:
    tc_id_j: int
    c_j: int

    WIDTHS = (F, F)
    KIND = "UAV_REG_RESPONSE"


@_record
class UavRegSubmit:
    r_j: int

    WIDTHS = (F,)
    KIND = "UAV_REG_SUBMIT"


MESSAGE_TYPES = (Msg1, Msg2, Msg3, UserRegRequest, UserRegResponse, UavRegRequest,
                 UavRegResponse, UavRegSubmit)


def encode(msg) -> BitString:
    """Serialize a message; raises WidthMismatch on any ill-sized field: an
    ``int`` outside 0 <= v < 2**width."""
    return msg._pack()


def decode(cls, raw: BitString):
    """Exact-width parse of ``raw`` into a ``cls`` instance.

    Total on any input of the right width: field slicing cannot fail, so
    fuzzed payloads decode into (garbage) field values rather than faults.
    """
    return cls._unpack(raw)


# The decode_msg* names stay: the benchmark's traced run wraps them by name.
decode_msg1 = Msg1._unpack
decode_msg2 = Msg2._unpack
decode_msg3 = Msg3._unpack


def ts_bits(tick: int) -> int:
    """Timestamp field: unsigned 32-bit simulated-clock ticks."""
    return tick & 0xFFFFFFFF


def check_fresh(kind: str, ts: int, now: int, delta_t: int) -> int:
    """Signed offset of the 32-bit timestamp ``ts`` from the clock ``now``.

    The clock is unbounded but the field wraps, so the two are compared
    modulo 2**32 (serial-number arithmetic, RFC 1982): a timestamp just
    below the wrap is one tick old, not four billion. Raises
    StaleTimestamp when the offset is ``delta_t`` ticks or more either way.
    """
    offset = ((ts - now + 0x80000000) & 0xFFFFFFFF) - 0x80000000
    if abs(offset) >= delta_t:
        raise StaleTimestamp(f"{kind} outside freshness window")
    return offset


class FreshnessGuard:
    """Replay cache of one receiving party, checked against the clock's window.

    ``check`` runs before any hashing: the window, then the purge of
    expired MACs, then the replay lookup. ``accept`` caches the ``int`` MAC
    of a message that has fully verified, until its timestamp leaves the
    window; a message that fails verification never enters the cache. A
    heap orders the cached MACs by expiry, so the purge touches only the
    MACs that expired.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self._cache: dict[int, int] = {}
        self._expiries: list[tuple[int, int]] = []

    def check(self, mac: int, ts: int, clock) -> int:
        """Reject a stale or replayed message; return its cache expiry tick."""
        now, delta_t = clock.now, clock.delta_t
        offset = check_fresh(self.kind, ts, now, delta_t)
        cache, expiries = self._cache, self._expiries
        while expiries and expiries[0][0] <= now:
            expiry, old = heappop(expiries)
            if cache.get(old) == expiry:  # not re-accepted with a later expiry
                del cache[old]
        if mac in cache:
            raise ReplayDetected(f"{self.kind} MAC already accepted in this window")
        return now + offset + delta_t

    def accept(self, mac: int, expiry: int) -> None:
        self._cache[mac] = expiry
        heappush(self._expiries, (expiry, mac))


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

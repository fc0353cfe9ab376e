"""Primitive-operation accounting and the overhead comparison report.

Roles never call the hash / PUF / fuzzy-extractor primitives directly:
they go through an :class:`OpCounter`, so tallies are a side effect of the
real calls and can never drift from the code. Deleting a primitive call in
a role changes the tally and fails the pinned-count tests.

:meth:`OpCounter.h` is also the protocol's hash kernel: it owns the
protocol's byte layout (160-bit fields, then at most one 32-bit
timestamp) and hashes it directly. It binds its first four fields as
positional parameters, since every protocol hash has one to four, and each
protocol hash, whatever its shape, is one call of it, because a traced run
counts hashes by wrapping ``OpCounter.h``. :meth:`OpCounter.puf`,
:meth:`OpCounter.fe_gen` and :meth:`OpCounter.fe_rep` count and then call
the PUF and the fuzzy extractor, which hash their own whole-byte layouts
in :mod:`crypto`. None of the four calls :func:`crypto.sha1_value`, the
general layout, which replays any digest ``h`` recorded.
"""

from __future__ import annotations

import hashlib
import random
from contextlib import contextmanager
from dataclasses import dataclass

from . import crypto
from .crypto import PufDevice

_sha1 = hashlib.sha1
_from_bytes = int.from_bytes

#: Per-operation timing constants (milliseconds) used for *estimates* only.
#: These are conventional reference figures for commodity hardware; this
#: package reproduces operation counts, never wall-clock time.
TIMING_PRESET_MS = {
    "hash": 0.001,
    "puf": 0.015,
    "fe": 0.632,
    "ecm": 0.632,   # cyclic-group multiplication
    "eca": 0.016,   # cyclic-group addition
    "enc": 0.05,    # symmetric encryption
    "bp": 4.301,    # bilinear pairing
    "hmac": 0.088,
}

#: Published overhead figures for four comparable three-party schemes,
#: kept as read-only reference constants for the comparison report: each
#: role's op counts, which the report sums into the row's total.
BASELINES = [
    {
        "name": "baseline-fe-hash",
        "ops": {
            "user": {"fe": 1, "hash": 16},
            "gwn": {"hash": 8},
            "uav": {"hash": 7},
        },
        "messages": 3,
        "bits": 1696,
    },
    {
        "name": "baseline-ecc",
        "ops": {
            "user": {"eca": 2, "ecm": 5, "hash": 6},
            "gwn": {"eca": 1, "ecm": 1, "hash": 4},
            "uav": {"eca": 5, "ecm": 7, "hash": 5},
        },
        "messages": 3,
        "bits": 2336,
    },
    {
        "name": "baseline-pairing-hmac",
        "ops": {
            "user": {"enc": 1, "bp": 6, "hmac": 2, "puf": 1, "hash": 2},
            "gwn": {"enc": 3, "bp": 9, "hmac": 3, "puf": 1, "hash": 2},
            "uav": {"enc": 7, "bp": 6, "hmac": 3, "hash": 2},
        },
        "messages": 6,
        "bits": 3200,
    },
    {
        "name": "baseline-ecc-puf",
        "ops": {
            "user": {"hash": 4},
            "gwn": {"ecm": 1, "hash": 5},
            "uav": {"puf": 1, "ecm": 1, "hash": 4},
        },
        "messages": 3,
        "bits": 2240,
    },
]


#: The primitives an :class:`OpCounter` tallies, in the order of its counts.
OPS = ("hash", "puf", "fe", "xor")

#: The table of the innermost open :func:`recording` scope, None outside one.
_recorded: dict | None = None


@contextmanager
def recording():
    """Yield a table of digest -> ``(fields, ts)`` for every counted hash
    made inside the scope, as :meth:`OpCounter.h` was given them: a tuple
    of 160-bit field ``int``s and a timestamp ``int`` or None, so
    ``sha1_value(fields, ts=ts)`` replays the digest. Leaving an inner
    scope, also by an exception, restores the outer."""
    global _recorded
    outer, _recorded = _recorded, {}
    try:
        yield _recorded
    finally:
        _recorded = outer


@dataclass(slots=True)
class OpCounter:
    """Counted facade over the primitives, one per protocol role.

    The role steps compute on plain ``int``s: :meth:`h` takes the ``int``s
    of 160-bit fields and, as ``ts``, of at most one 32-bit timestamp,
    hashed last, and returns the digest as an ``int``; :meth:`xor` combines
    two ints, and :meth:`puf`, :meth:`fe_gen` and :meth:`fe_rep` take and
    return the ``int``s a party stores. Inside a :func:`recording` scope
    each digest keys the ``(fields, ts)`` it was given.

    The tallies only go up: a caller measures a span as the difference
    of two :meth:`counts` readings (see :func:`diff_counts`). XOR is
    tallied for information only; it never enters time estimates.
    """

    hash_count: int = 0
    puf_count: int = 0
    fe_count: int = 0
    xor_count: int = 0

    def counts(self) -> tuple[int, int, int, int]:
        """The tallies in the order of :data:`OPS`."""
        return self.hash_count, self.puf_count, self.fe_count, self.xor_count

    # counted primitive calls -------------------------------------------

    def h(self, a: int | None = None, b: int | None = None, c: int | None = None,
          d: int | None = None, *more: int, ts: int | None = None) -> int:
        """The protocol's hash kernel: SHA-1 over the fields ``a, b, c, d,
        *more`` as 20 bytes each, then ``ts``, if given, as 4 bytes; the
        digest as an ``int``.

        This is the protocol's byte layout, always whole bytes, so it is
        one integer, one ``to_bytes`` and one ``hashlib.sha1`` call;
        ``sha1_value(fields, ts=ts)`` returns the same digest. Every
        protocol hash has one to four fields, so those bind positionally
        and are joined without a loop over a varargs tuple; a field is
        absent only as None (0 is a field), and any wider call takes the
        loop over ``more``. The ``(fields, ts)`` a :func:`recording` table
        keeps is built only inside one. Each protocol hash stays one call
        of this one method, whatever its shape, so that a traced run that
        wraps ``OpCounter.h`` counts every protocol hash. Precondition:
        every field is in ``[0, 2**160)`` and ``ts`` in ``[0, 2**32)``; a
        wider part would alias a different input (``h(6, ts=2**32 + 1)``
        is ``h(7, ts=1)``). It is not checked here, since the check costs
        about 4% of a session and protocol values are always in range: a
        role hashes digests, nonces, encoded names, XORs of those, and
        values that crossed a checked boundary. ``Channel.send`` packs
        every record before delivery, and packing range-checks every
        field; the codecs mask on decode; and ``cli`` width-checks the
        state files.
        """
        self.hash_count += 1
        if c is None:
            if b is None:
                value, size = (0, 0) if a is None else (a, 20)
            else:
                value, size = a << 160 | b, 40
        elif d is None:
            value, size = (a << 160 | b) << 160 | c, 60
        else:
            value, size = ((a << 160 | b) << 160 | c) << 160 | d, 80
            for part in more:
                value, size = value << 160 | part, size + 20
        if ts is not None:
            value, size = value << 32 | ts, size + 4
        digest = _from_bytes(_sha1(value.to_bytes(size, "big")).digest(), "big")
        if _recorded is not None:  # size // 20 fields: a timestamp adds only 4 bytes
            _recorded[digest] = ((a, b, c, d, *more)[:size // 20], ts)
        return digest

    def xor(self, a: int, b: int) -> int:
        self.xor_count += 1
        return a ^ b

    def puf(self, device: PufDevice, challenge: int) -> int:
        self.puf_count += 1
        return device.eval_value(challenge)

    def fe_gen(self, bio: int, rng: random.Random) -> tuple[int, int]:
        self.fe_count += 1
        return crypto.fe_gen(bio, rng)

    def fe_rep(self, bio: int, tau: int) -> int:
        self.fe_count += 1
        return crypto.fe_rep(bio, tau)


def diff_counts(before: tuple, after: tuple) -> dict:
    """The tallies made between two :meth:`OpCounter.counts` readings,
    keyed as :data:`OPS`; spelled out, because a run builds six of these."""
    hash0, puf0, fe0, xor0 = before
    hash1, puf1, fe1, xor1 = after
    return {"hash": hash1 - hash0, "puf": puf1 - puf0, "fe": fe1 - fe0, "xor": xor1 - xor0}


def estimate_ms(ops: dict) -> float:
    """Sum of count * per-op constant. XOR is excluded as negligible."""
    return sum(n * TIMING_PRESET_MS[op] for op, n in ops.items() if op != "xor" and n)


def _row(name: str, ops: dict, messages: int, bits: int) -> dict:
    """One protocol's row of the report: its per-role ``ops`` with a
    ``total`` row, each op's sum over the roles; its message and bit
    counts; and the estimates from the ops."""
    total: dict = {}
    for counts in ops.values():
        for op, n in counts.items():
            total[op] = total.get(op, 0) + n
    ops = {**ops, "total": total}
    return {"name": name, "ops": ops, "messages": messages, "bits": bits,
            "estimated_ms": {role: round(estimate_ms(n), 3) for role, n in ops.items()}}


def overhead_report(session_counts: dict, bit_counts: dict) -> dict:
    """Comparison of a measured session against the baseline constants.

    ``session_counts`` and ``bit_counts`` are a completed run's per-role
    op counts and :func:`~fanet_aka.wire.protocol_bits`. The millisecond
    figures are labeled estimates from ``TIMING_PRESET_MS``, because only
    counts are measured.
    """
    proposed = _row("proposed", {r: session_counts[r] for r in ("user", "gwn", "uav")},
                    bit_counts["message_count"], bit_counts["total"])
    proposed["per_message_bits"] = {k: v for k, v in bit_counts.items()
                                    if k.startswith("MSG")}
    return {"proposed": proposed, "baselines": [_row(**base) for base in BASELINES],
            "timing_constants_ms": TIMING_PRESET_MS}


def render_table(report: dict) -> str:
    """Aligned plain-text rendering of :func:`overhead_report` output."""
    header = ("protocol", "user ms", "gwn ms", "uav ms", "total ms", "msgs", "bits")
    rows = [header]
    for entry in [report["proposed"], *report["baselines"]]:
        est = entry["estimated_ms"]
        rows.append((entry["name"],
                     *(f"{est[role]:.3f}" for role in ("user", "gwn", "uav", "total")),
                     str(entry["messages"]), str(entry["bits"])))
    widths = [max(map(len, column)) for column in zip(*rows)]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)

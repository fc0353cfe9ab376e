"""Primitive-operation accounting and the overhead comparison report.

Roles never call the hash / PUF / fuzzy-extractor primitives directly:
they go through an :class:`OpCounter`, so tallies are a side effect of the
real calls and can never drift from the code. Deleting a primitive call in
a role changes the tally and fails the pinned-count tests.

:meth:`OpCounter.h` is also the protocol's hash kernel: it owns the
protocol's byte layout (160-bit fields, then at most one 32-bit
timestamp) and hashes it directly. :meth:`OpCounter.puf`,
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
#: kept as read-only reference constants for the comparison report.
BASELINES = [
    {
        "name": "baseline-fe-hash",
        "ops": {
            "user": {"fe": 1, "hash": 16},
            "gwn": {"hash": 8},
            "uav": {"hash": 7},
            "total": {"fe": 1, "hash": 31},
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
            "total": {"eca": 8, "ecm": 13, "hash": 15},
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
            "total": {"enc": 11, "bp": 21, "hmac": 8, "puf": 2, "hash": 6},
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
            "total": {"ecm": 2, "puf": 1, "hash": 13},
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

    def h(self, *fields: int, ts: int | None = None) -> int:
        """The protocol's hash kernel: SHA-1 over ``fields`` as 20 bytes
        each, then ``ts``, if given, as 4 bytes; the digest as an ``int``.

        This is the protocol's byte layout, always whole bytes, so it is
        one integer, one ``to_bytes`` and one ``hashlib.sha1`` call;
        ``sha1_value(fields, ts=ts)`` returns the same digest. Precondition:
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
        value = 0
        for part in fields:
            value = value << 160 | part
        if ts is None:
            data = value.to_bytes(20 * len(fields), "big")
        else:
            data = (value << 32 | ts).to_bytes(20 * len(fields) + 4, "big")
        digest = _from_bytes(_sha1(data).digest(), "big")
        if _recorded is not None:
            _recorded[digest] = (fields, ts)
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


def _role_totals(per_role: dict) -> dict:
    total: dict = {}
    for counts in per_role.values():
        for op, n in counts.items():
            total[op] = total.get(op, 0) + n
    return total


def _estimates(per_role: dict) -> dict:
    return {role: round(estimate_ms(ops), 3) for role, ops in per_role.items()}


def overhead_report(session_counts: dict | None, bit_counts: dict | None) -> dict:
    """Comparison of the measured session against the baseline constants.

    ``session_counts`` and ``bit_counts`` may be None (e.g. a registration
    only run); the baseline side of the report still renders. The
    millisecond figures are labeled estimates from ``TIMING_PRESET_MS``,
    because only counts are measured.
    """
    report: dict = {"baselines": [], "timing_constants_ms": TIMING_PRESET_MS}

    proposed: dict = {"name": "proposed"}
    if session_counts:
        roles = {r: session_counts[r] for r in ("user", "gwn", "uav")}
        proposed["ops"] = {**roles, "total": _role_totals(roles)}
        proposed["estimated_ms"] = _estimates(proposed["ops"])
    if bit_counts:
        proposed["bits"] = bit_counts["total"]
        proposed["messages"] = bit_counts["message_count"]
        proposed["per_message_bits"] = {
            k: v for k, v in bit_counts.items() if k.startswith("MSG")
        }
    report["proposed"] = proposed

    for base in BASELINES:
        report["baselines"].append({
            "name": base["name"], "ops": base["ops"], "messages": base["messages"],
            "bits": base["bits"], "estimated_ms": _estimates(base["ops"])})
    return report


def render_table(report: dict) -> str:
    """Aligned plain-text rendering of :func:`overhead_report` output."""
    rows = []
    header = ("protocol", "user ms", "gwn ms", "uav ms", "total ms", "msgs", "bits")
    rows.append(header)
    for entry in [report["proposed"], *report["baselines"]]:
        est = entry.get("estimated_ms", {})
        rows.append((
            entry["name"],
            _fmt(est.get("user")), _fmt(est.get("gwn")),
            _fmt(est.get("uav")), _fmt(est.get("total")),
            str(entry.get("messages", "-")), str(entry.get("bits", "-")),
        ))
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = []
    for i, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(widths[j]) for j, cell in enumerate(row)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _fmt(x) -> str:
    return "-" if x is None else f"{x:.3f}"

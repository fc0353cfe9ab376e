"""Primitive-operation accounting and the overhead comparison report.

Roles never call the hash / PUF / fuzzy-extractor primitives directly:
they go through an :class:`OpCounter`, so tallies are a side effect of the
real calls and can never drift from the code. Deleting a primitive call in
a role changes the tally and fails the pinned-count tests.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass

from . import crypto
from .bits import BitString
from .crypto import PufDevice, field, sha1_value
from .errors import IncompleteTranscript

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
    """Yield a table of digest -> parts for every counted hash made inside
    the scope. Leaving an inner scope, also by an exception, restores the outer."""
    global _recorded
    outer, _recorded = _recorded, {}
    try:
        yield _recorded
    finally:
        _recorded = outer


@dataclass
class OpCounter:
    """Counted facade over the primitives, one per protocol role.

    The role steps compute on plain ``int``s: :meth:`h` takes 160-bit
    ``int`` fields and :class:`BitString` parts (timestamps, card records)
    alike and returns the digest as an ``int``, :meth:`xor` combines two
    ints, and :meth:`puf` and :meth:`fe_rep` return the ``int`` of their
    160-bit result. Inside a :func:`recording` scope each digest is still
    keyed and its parts kept as BitStrings, the ints as 160-bit fields.

    XOR is tallied for information only; it never enters time estimates.
    """

    hash_count: int = 0
    puf_count: int = 0
    fe_count: int = 0
    xor_count: int = 0

    def reset(self) -> None:
        self.hash_count = self.puf_count = self.fe_count = self.xor_count = 0

    def counts(self) -> tuple[int, int, int, int]:
        """The tallies in the order of :data:`OPS`."""
        return self.hash_count, self.puf_count, self.fe_count, self.xor_count

    def snapshot(self) -> dict:
        return dict(zip(OPS, self.counts()))

    # counted primitive calls -------------------------------------------

    def h(self, *parts: int | BitString) -> int:
        self.hash_count += 1
        digest = sha1_value(parts)
        if _recorded is not None:
            _recorded[field(digest)] = tuple(
                field(part) if type(part) is int else part for part in parts)
        return digest

    def xor(self, a: int, b: int) -> int:
        self.xor_count += 1
        return a ^ b

    def puf(self, device: PufDevice, challenge: BitString) -> int:
        self.puf_count += 1
        return device.eval_value(challenge)

    def fe_gen(self, bio: BitString, rng: random.Random) -> tuple[BitString, BitString]:
        self.fe_count += 1
        return crypto.fe_gen(bio, rng)

    def fe_rep(self, bio: BitString, tau: BitString) -> int:
        self.fe_count += 1
        return crypto.fe_rep_value(bio, tau)


def diff_counts(before: tuple, after: tuple) -> dict:
    """The tallies made between two :meth:`OpCounter.counts` readings,
    keyed as :data:`OPS`; spelled out, because a run builds six of these."""
    hash0, puf0, fe0, xor0 = before
    hash1, puf1, fe1, xor1 = after
    return {"hash": hash1 - hash0, "puf": puf1 - puf0, "fe": fe1 - fe0,
            "xor": xor1 - xor0}


def count_session(result) -> dict:
    """Per-role primitive tallies of a completed honest session.

    Covers login + initiation + finalization on the user side, the relay
    step at the gateway, and the responder step at the UAV.
    """
    if not getattr(result, "ok", False):
        raise IncompleteTranscript("session did not complete; no counts to report")
    return {role: dict(counts) for role, counts in result.op_counts.items()}


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

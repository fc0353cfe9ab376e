"""Bounded knowledge-closure engine for the Dolev-Yao adversary.

Mechanizes "computationally infeasible to derive" as non-membership in
the set of terms an adversary can build from its observations with the
protocol's own algebra: hashing, XOR and concatenation. A term is the
``int`` of a 160-bit field or of a 32-bit timestamp. The engine never
slices: the caller hands it what the adversary saw as fields, split as
:func:`~fanet_aka.wire.decode` splits a payload, and declares up front the
target fields it will ask about; only those may be queried. The engine is
*sound* (every member is genuinely derivable and can be justified by an
explicit trace) but deliberately incomplete beyond its bounds:

* XOR derivability is decided exactly by linear algebra over GF(2)
  instead of materializing the exponential combination set. The span's
  generators are the knowledge atoms (givens and zero constants); the
  digests the hash rule mints are not, because enough unrelated one-way
  digests span the whole field and would make every value a vacuous
  "XOR combination".
* Hashing is one rule: hash-of-concatenation over field-shaped tuples
  (sequences of 160-bit atoms, optionally suffixed by one 32-bit
  timestamp), the shapes the protocol itself uses, one-part shapes
  included, under a fixed tuple budget (:data:`BUDGET`) and one
  composition level deep. A digest is never hashed again: past one
  level a hash's input is a lone digest or a tuple of digests, which
  the protocol never forms, so it can meet a protocol value only through
  a SHA-1 collision (Comon-Lundh & Shmatikov, LICS 2003; Chevalier,
  Küsters, Rusinowitch & Turuani, LICS 2003). Each shape is walked
  in ``itertools.product`` order over its pools, so a target's recorded
  preimage is its first hit in that order, and each tuple is hashed
  exactly once: ``bulk_count`` (a report's ``closure_bulk``) is the
  number of SHA-1 calls the rule makes. Digests are compared with the
  declared targets and dropped: memory holds one shape's joined last two
  terms and one run of digests, never the whole enumeration. Shapes that
  do not fit the budget are recorded as skipped.

This is an engineering proxy for the informal infeasibility arguments,
not a cryptographic proof, and is documented as such.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product

from .bits import hex_of
from .crypto import DIGEST_BITS as FIELD_BITS, TS_BITS as TS_FIELD_BITS

#: Most hash-concatenation tuples one closure streams.
BUDGET = 2_000_000

#: Widths whose all-zero constants the adversary is assumed to know.
ZERO_WIDTHS = (TS_FIELD_BITS, FIELD_BITS)

#: Tuple shapes explored by the hash-of-concatenation rule: ("pure", m)
#: is m field elements, ("ts", m) is m field elements followed by one
#: timestamp. Smallest shapes come first so the budget starves only the
#: widest enumerations. Together these cover every hash input shape the
#: protocol uses.
_PLANS = (("ts", 0), ("pure", 1), ("pure", 2), ("ts", 1), ("pure", 3), ("ts", 2),
          ("ts", 3), ("ts", 4))


@dataclass
class Closure:
    """Result of a closure computation; decides membership of its targets."""

    targets: set = field(default_factory=set)     # queryable field ints
    terms: dict = field(default_factory=dict)     # knowledge atoms (width, value) -> None
    hits: dict = field(default_factory=dict)      # target -> hash-concat preimage bytes
    bulk_count: int = 0                           # hash-concat tuples streamed
    enumerated_shapes: list = field(default_factory=list)
    skipped_shapes: list = field(default_factory=list)  # over the budget

    def __contains__(self, target: int) -> bool:
        self._declared(target)
        return ((FIELD_BITS, target) in self.terms or target in self.hits
                or self._xor_subset(target) is not None)

    def derivation(self, target: int) -> list[str] | None:
        """Human-readable trace for a member, None for non-members."""
        self._declared(target)
        key = (FIELD_BITS, target)
        if key in self.terms:
            return [f"given {hex_of(*key)}"]
        if target in self.hits:
            parts = (hex_of(8 * len(p), int.from_bytes(p, "big")) for p in self.hits[target])
            return [f"hash-concat({', '.join(parts)}) = {hex_of(*key)}"]
        subset = self._xor_subset(target)
        if subset is not None:
            return [f"xor({', '.join(hex_of(*k) for k in subset)}) = {hex_of(*key)}"]
        return None

    # -- internals ---------------------------------------------------------

    def _declared(self, target: int) -> None:
        """Refuse a query for an undeclared target: a miss on it was never searched."""
        if target not in self.targets:
            raise ValueError(f"{target:#x} was not declared as a closure target")

    @cached_property
    def _span(self) -> tuple[list[tuple[int, int]], dict[int, tuple[int, int]]]:
        """GF(2) basis of the knowledge atoms, built on the first span
        query: the generator keys, and msb position -> (vector, mask),
        where bit i of the mask marks generator i as a contributor.

        Timestamps join zero-extended, which is legitimate because the
        adversary holds the zero constants. Digests found by the hash rule
        are deliberately not span generators: enough unrelated one-way
        digests span the whole field, which would make every value an
        "XOR combination" without corresponding to any attack knowledge.
        They still answer exact membership queries.
        """
        keys = list(self.terms)
        pivots: dict[int, tuple[int, int]] = {}
        for i, (_, v) in enumerate(keys):
            mask = 1 << i
            while v:
                msb = v.bit_length()
                if msb not in pivots:
                    pivots[msb] = (v, mask)
                    break
                pv, pm = pivots[msb]
                v ^= pv
                mask ^= pm
        return keys, pivots

    def _xor_subset(self, target: int) -> list[tuple[int, int]] | None:
        """GF(2) span query; returns the contributing term keys or None."""
        keys, pivots = self._span
        vec, mask = target, 0
        while vec:
            msb = vec.bit_length()
            if msb not in pivots:
                return None
            pv, pm = pivots[msb]
            vec ^= pv
            mask ^= pm
        if not mask:
            return None  # the zero field answers via the zero constants
        return sorted(key for i, key in enumerate(keys) if mask >> i & 1)


def compute_closure(fields: list[int], stamps: list[int], targets: list[int]) -> Closure:
    """Closure of the knowledge atoms under XOR and one level of hashing.

    ``fields`` and ``targets`` are the ``int``s of 160-bit fields and
    ``stamps`` those of 32-bit timestamps. Only the ``targets`` may be
    queried afterwards: the hash-of-concatenation search records a
    preimage for them alone. :data:`BUDGET` caps how many tuples are
    tried; shape exploration skips any shape that would exceed it, so
    runs are deterministic for a fixed knowledge.
    """
    clo = Closure(targets=set(targets))
    terms = clo.terms
    terms.update(dict.fromkeys([(FIELD_BITS, v) for v in fields]
                               + [(TS_FIELD_BITS, v) for v in stamps]))
    if terms:
        terms.update(dict.fromkeys((width, 0) for width in ZERO_WIDTHS))

    # hash-of-concatenation over protocol-shaped tuples, budget capped,
    # streamed against the declared targets
    atoms160 = [v.to_bytes(w // 8, "big") for w, v in terms if w == FIELD_BITS]
    atoms32 = [v.to_bytes(w // 8, "big") for w, v in terms if w == TS_FIELD_BITS]
    wanted = {t.to_bytes(FIELD_BITS // 8, "big"): t for t in targets}
    sha = hashlib.sha1
    for shape, m in _PLANS:
        cost = len(atoms160) ** m * (len(atoms32) if shape == "ts" else 1)
        if cost == 0:
            continue
        if clo.bulk_count + cost > BUDGET:
            clo.skipped_shapes.append((shape, m))
            continue
        clo.bulk_count += cost
        clo.enumerated_shapes.append((shape, m))
        pools = [atoms160] * m + ([atoms32] if shape == "ts" else [])
        # heads, then two-pool tails, is product(*pools) order; each head
        # and each tail is joined once per shape
        tails = list(product(*pools[-2:]))
        datas = [b"".join(tail) for tail in tails]
        for head in product(*pools[:-2]):
            prefix = b"".join(head)
            digests = [sha(prefix + data).digest() for data in datas]
            if not wanted.keys().isdisjoint(digests):
                for tail, digest in zip(tails, digests):
                    if digest in wanted:
                        clo.hits.setdefault(wanted[digest], head + tail)

    return clo

"""Bounded knowledge-closure engine for the Dolev-Yao adversary.

Mechanizes "computationally infeasible to derive" as non-membership in
the set of terms an adversary can build from its observations with the
protocol's own algebra: hashing, XOR, concatenation, and slicing at
protocol field boundaries. The caller declares up front the target terms
it will ask about, and only those may be queried. The engine is *sound*
(every member is genuinely derivable and can be justified by an explicit
trace) but deliberately incomplete beyond its bounds:

* XOR derivability is decided exactly by linear algebra over GF(2)
  instead of materializing the exponential combination set. Only
  observation-derived terms (givens, slices, lifts, zero constants)
  generate the span; digests minted by the engine's own hash rules do
  not, because enough unrelated one-way digests span the whole field
  and would make every value a vacuous "XOR combination".
* Hash-of-concatenation is explored over field-shaped tuples (sequences
  of 160-bit terms, optionally suffixed by one 32-bit timestamp), the
  shapes the protocol itself uses, under a fixed tuple budget
  (:data:`BUDGET`) and one composition level deep. Digests are streamed
  and compared with the declared targets, never stored; shapes that do
  not fit the budget are recorded as skipped.
* Single-term hash chains iterate to a fixed depth (:data:`DEPTH`).

This is an engineering proxy for the informal infeasibility arguments,
not a cryptographic proof, and is documented as such.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from itertools import product

from .bits import BitString
from .crypto import DIGEST_BITS as FIELD_BITS, TS_BITS as TS_FIELD_BITS
from .wire import MESSAGE_TYPES

#: Field boundaries used by the slicing rule, keyed by total width: the
#: layout of every multi-field message. Messages of one width share one
#: layout (MSG1 and MSG2 at 672 bits, the 320-bit registration payloads).
SLICE_LAYOUTS = {sum(cls.WIDTHS): cls.WIDTHS for cls in MESSAGE_TYPES
                 if len(cls.WIDTHS) > 1}

#: Rounds of the single-term hash-chain rule; 0 stops at the givens.
DEPTH = 4
#: Most hash-concatenation tuples one closure streams.
BUDGET = 2_000_000

#: Widths whose all-zero constants the adversary is assumed to know.
ZERO_WIDTHS = (32, 128, 160)

#: Tuple shapes explored by the hash-of-concatenation rule: ("pure", m)
#: is m field elements, ("ts", m) is m field elements followed by one
#: timestamp. Smallest shapes come first so the budget starves only the
#: widest enumerations. Together these cover every hash input shape the
#: protocol uses.
_PLANS = (("pure", 2), ("ts", 1), ("pure", 3), ("ts", 2), ("ts", 3), ("ts", 4))


def _key(term: BitString) -> tuple[int, int]:
    return (term.width, term.value)


@dataclass
class Closure:
    """Result of a closure computation; decides membership of its targets."""

    targets: set = field(default_factory=set)     # queryable (width, value) keys
    terms: dict = field(default_factory=dict)     # (width, value) -> trace
    hits: dict = field(default_factory=dict)      # target key -> hash-concat preimage
    bulk_count: int = 0                           # hash-concat tuples streamed
    enumerated_shapes: list = field(default_factory=list)
    skipped_shapes: list = field(default_factory=list)  # over the budget

    def __contains__(self, term: BitString) -> bool:
        key = self._declared(term)
        return (key in self.terms or key in self.hits
                or self._xor_subset(term) is not None)

    def derivation(self, term: BitString) -> list[str] | None:
        """Human-readable trace for a member, None for non-members."""
        key = self._declared(term)
        if key in self.terms:
            return self._trace_lines(key)
        if key in self.hits:
            return [f"hash-concat({', '.join(p.hex() for p in self.hits[key])}) "
                    f"= {term.hex()}"]
        subset = self._xor_subset(term)
        if subset is not None:
            return [f"xor({', '.join(t.hex() for t in subset)}) = {term.hex()}"]
        return None

    # -- internals ---------------------------------------------------------

    def _declared(self, term: BitString) -> tuple[int, int]:
        """Key of a declared target; a miss on any other term was never searched."""
        key = _key(term)
        if key not in self.targets:
            raise ValueError(f"{term!r} was not declared as a closure target")
        return key

    def _materialized(self) -> list[BitString]:
        return [BitString(w, v) for (w, v) in self.terms]

    def _xor_subset(self, target: BitString) -> list[BitString] | None:
        """GF(2) span query over the observation-derived terms.

        Narrower terms join lifted, which is legitimate because the
        adversary holds the zero constants; wider terms are excluded
        because no rule truncates. Digest outputs produced by the hash
        rules are deliberately not span generators: enough unrelated
        one-way digests span the whole field, which would make every
        value an "XOR combination" without corresponding to any attack
        knowledge. They still answer exact membership queries.
        Returns the contributing subset or None.
        """
        pivots: dict[int, tuple[int, set]] = {}  # msb position -> (vector, keys)
        for key, (rule, _) in self.terms.items():
            if key[0] > target.width or rule == "hash":
                continue
            v, contributors = key[1], {key}
            while v:
                msb = v.bit_length()
                if msb in pivots:
                    pv, pm = pivots[msb]
                    v ^= pv
                    contributors ^= pm
                else:
                    pivots[msb] = (v, contributors)
                    break
        vec, mask = target.value, set()
        while vec:
            msb = vec.bit_length()
            if msb not in pivots:
                return None
            pv, pm = pivots[msb]
            vec ^= pv
            mask ^= pm
        if not mask:
            return None  # the zero string answers via the zero constants
        return [BitString(w, v) for (w, v) in sorted(mask)]

    def _trace_lines(self, key, depth: int = 0) -> list[str]:
        rule, parents = self.terms[key]
        term_hex = BitString(*key).hex()
        if rule == "given":
            return [f"given {term_hex}"]
        if depth > 6:
            return [f"{rule}(...) = {term_hex}"]
        lines = []
        for p in parents:
            lines.extend(self._trace_lines(_key(p), depth + 1))
        args = ", ".join(p.hex() for p in parents)
        lines.append(f"{rule}({args}) = {term_hex}")
        return lines


def _atoms(terms: list[BitString]) -> tuple[list[BitString], list[BitString]]:
    seen160, seen32 = [], []
    for t in terms:
        if t.width == FIELD_BITS:
            seen160.append(t)
        elif t.width == TS_FIELD_BITS:
            seen32.append(t)
    return seen160, seen32


def compute_closure(knowledge: list[BitString], targets: list[BitString]) -> Closure:
    """Least fixed point of the derivation rules, truncated at :data:`DEPTH`.

    Only the ``targets`` may be queried afterwards: the hash-of-concatenation
    search records a preimage for them alone. :data:`BUDGET` caps how many
    tuples are tried; shape exploration skips any shape that would exceed
    it, so runs are deterministic for a fixed knowledge.
    """
    clo = Closure(targets={_key(t) for t in targets})

    def add(term: BitString, rule: str, parents: tuple = ()) -> bool:
        key = _key(term)
        if key in clo.terms:
            return False
        clo.terms[key] = (rule, parents)
        return True

    for term in knowledge:
        add(term, "given")
    if knowledge:
        for w in ZERO_WIDTHS:
            add(BitString.zeros(w), "zero-constant")

    if DEPTH <= 0:
        return clo

    # saturate the cheap structural rules: field slicing and lifting
    changed = True
    while changed:
        changed = False
        for term in clo._materialized():
            layout = SLICE_LAYOUTS.get(term.width)
            if layout:
                offset = 0
                for width in layout:
                    piece = term.slice(offset, offset + width)
                    changed |= add(piece, "slice", (term,))
                    offset += width
            if term.width < FIELD_BITS and term.width != TS_FIELD_BITS:
                changed |= add(term.zext(FIELD_BITS), "lift", (term,))

    # hash-of-concatenation over protocol-shaped tuples, budget capped,
    # streamed against the declared field-width targets
    atoms160, atoms32 = _atoms(clo._materialized())
    wanted = {t.to_bytes(): _key(t) for t in targets if t.width == FIELD_BITS}
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
        byte_pools = [[t.to_bytes() for t in pool] for pool in pools]
        sha = hashlib.sha1
        for combo in product(*byte_pools):
            if (digest := sha(b"".join(combo)).digest()) in wanted:
                clo.hits.setdefault(wanted[digest],
                                    [BitString.from_bytes(b) for b in combo])

    # single-term hash chains iterate to DEPTH
    frontier = clo._materialized()
    for _ in range(DEPTH):
        new = []
        for term in frontier:
            digest = BitString.from_bytes(hashlib.sha1(term.to_bytes()).digest())
            if add(digest, "hash", (term,)):
                new.append(digest)
        if not new:
            break
        frontier = new

    return clo

"""UAV side: registration responder and key-agreement responder.

A UAV's memory image is exactly {challenge, identity, certificate}; the
PUF is a device capability, never a stored value, so a capture attack
yields the triple but not the challenge response.
"""

from __future__ import annotations

import random

from .bits import BitString
from .crypto import (CHALLENGE_BITS, DIGEST_BITS, NONCE_BITS, PUF_SEED_BITS, PufDevice,
                     field)
from .errors import MacMismatch
from .metrics import OpCounter
from .wire import FreshnessGuard, Msg2, Msg3, UavRegSubmit, ts_bits


class Uav:
    """Protocol state machine for one UAV, built from its enrollment response:
    the gateway's challenge ``c_j`` and certificate ``tc_id_j``."""

    def __init__(self, identity: str, puf: PufDevice, c_j: BitString,
                 tc_id_j: BitString):
        self.identity = identity
        self.id_j = BitString.from_text(identity)
        self._puf = puf
        self.c_j = c_j
        self.tc_id_j = tc_id_j
        self.ops = OpCounter()
        self.guard = FreshnessGuard(Msg2.KIND)

    # -- registration (secure channel) --------------------------------------

    def register(self) -> UavRegSubmit:
        """Answer the enrollment challenge with its PUF response."""
        return UavRegSubmit(r_j=self.ops.puf(self._puf, self.c_j))

    # -- key agreement ---------------------------------------------------------

    def aka_respond(self, msg2: Msg2, clock, rng: random.Random) -> tuple[Msg3, BitString]:
        """Verify MSG2, derive the session key, emit MSG3.

        No key material leaves this method on any error path.
        """
        ts2 = msg2.ts2
        expiry = self.guard.check(msg2.mac2, ts2, clock)

        ops, id_j, tc_id_j = self.ops, self.id_j.value, self.tc_id_j.value
        v1 = msg2.v1
        r_j = ops.puf(self._puf, self.c_j)
        n_j = ops.xor(v1, ops.h(id_j, tc_id_j, r_j))
        # recovered nonce must carry the 32-bit zero prefix of a lifted
        # 128-bit nonce; anything else is a tampered or misdirected message
        if n_j >> NONCE_BITS:
            raise MacMismatch("recovered nonce prefix violates width rule")
        tid_j = ops.h(id_j, n_j)
        if ops.h(v1, tid_j, r_j, ts2) != msg2.mac2:
            raise MacMismatch("MSG2 authentication code mismatch")
        self.guard.accept(msg2.mac2, expiry)

        n_k = rng.getrandbits(NONCE_BITS)  # lifted: the int is unchanged
        ts3 = ts_bits(clock.now)
        tid_i = ops.xor(msg2.h_i, n_j)
        v2 = ops.xor(ops.h(id_j, tid_i, ts3), n_k)
        f_i = ops.xor(msg2.f_i_dprime, r_j)
        rid_j = ops.xor(id_j, f_i)
        v3 = ops.h(tid_j, tc_id_j)
        session_key = ops.h(v3, tid_i, rid_j, n_k, ts3)
        v4 = ops.xor(v3, ops.h(tid_i, rid_j, n_k))
        v5 = ops.xor(ops.h(tid_i, rid_j, ts3), n_k)
        return Msg3(v5=v5, v4=v4, ts3=ts3, v2=v2), field(session_key)

    # -- adversary capability ----------------------------------------------------

    def capture_memory(self) -> dict[str, BitString]:
        """Exactly what a physical capture exposes: the stored triple.

        The PUF seed is a hardware property, not memory contents, so it is
        deliberately absent.
        """
        return {"c_j": self.c_j, "id_j": self.id_j, "tc_id_j": self.tc_id_j}

    # -- persistence ----------------------------------------------------------------

    def to_json(self) -> dict:
        return {"identity": self.identity, "c_j": self.c_j.hex(),
                "tc_id_j": self.tc_id_j.hex()}

    @classmethod
    def from_json(cls, doc: dict, puf_seed_hex: str) -> "Uav":
        return cls(doc["identity"],
                   PufDevice(BitString.from_hex(puf_seed_hex, width=PUF_SEED_BITS)),
                   BitString.from_hex(doc["c_j"], width=CHALLENGE_BITS),
                   BitString.from_hex(doc["tc_id_j"], width=DIGEST_BITS))

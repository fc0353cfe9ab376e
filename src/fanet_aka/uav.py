"""UAV side: registration responder and key-agreement responder.

A UAV's memory image is exactly {challenge, identity, certificate}; the
PUF is a device capability, never a stored value, so a capture attack
yields the triple but not the challenge response.
"""

from __future__ import annotations

import random

from .bits import BitString
from .crypto import DIGEST_BITS, NONCE_BITS, PufDevice, lift, random_nonce
from .errors import MacMismatch, ProtocolError
from .metrics import OpCounter
from .wire import FreshnessGuard, Msg2, Msg3, UavRegResponse, UavRegSubmit, ts_bits


class Uav:
    """Protocol state machine for one UAV."""

    def __init__(self, identity: str, puf: PufDevice,
                 ops: OpCounter | None = None, delta_t: int = 2):
        self.identity = identity
        self.id_j = BitString.from_text(identity)
        self._puf = puf
        self.ops = ops or OpCounter()
        self.guard = FreshnessGuard(Msg2.KIND, delta_t)
        self.c_j: BitString | None = None
        self.tc_id_j: BitString | None = None

    # -- registration (secure channel) --------------------------------------

    def register(self, response: UavRegResponse,
                 rng: random.Random | None = None) -> UavRegSubmit:
        """Answer the enrollment challenge; store only the public triple."""
        self.c_j = response.c_j
        self.tc_id_j = response.tc_id_j
        r_j = self.ops.puf(self._puf, response.c_j, rng)
        return UavRegSubmit(r_j=r_j)

    # -- key agreement ---------------------------------------------------------

    def aka_respond(self, msg2: Msg2, clock, rng: random.Random) -> tuple[Msg3, BitString]:
        """Verify MSG2, derive the session key, emit MSG3.

        No key material leaves this method on any error path.
        """
        if self.c_j is None:
            raise ProtocolError("UAV not registered")
        expiry = self.guard.check(msg2.mac2, msg2.ts2, clock.now)

        r_j = self.ops.puf(self._puf, self.c_j, rng)
        n_j = self.ops.xor(msg2.v1, self.ops.h(self.id_j, self.tc_id_j, r_j))
        # recovered nonce must carry the 32-bit zero prefix of a lifted
        # 128-bit nonce; anything else is a tampered or misdirected message
        if n_j.slice(0, DIGEST_BITS - NONCE_BITS).value != 0:
            raise MacMismatch("recovered nonce prefix violates width rule")
        tid_j = self.ops.h(self.id_j, n_j)
        if self.ops.h(msg2.v1, tid_j, r_j, msg2.ts2) != msg2.mac2:
            raise MacMismatch("MSG2 authentication code mismatch")
        self.guard.accept(msg2.mac2, expiry)

        n_k = random_nonce(rng)
        ts3 = ts_bits(clock.now)
        tid_i = self.ops.xor(msg2.h_i, n_j)
        v2 = self.ops.xor(self.ops.h(self.id_j, tid_i, ts3), lift(n_k))
        f_i = self.ops.xor(msg2.f_i_dprime, r_j)
        rid_j = self.ops.xor(self.id_j, f_i)
        v3 = self.ops.h(tid_j, self.tc_id_j)
        session_key = self.ops.h(v3, tid_i, rid_j, lift(n_k), ts3)
        v4 = self.ops.xor(v3, self.ops.h(tid_i, rid_j, lift(n_k)))
        v5 = self.ops.xor(self.ops.h(tid_i, rid_j, ts3), lift(n_k))
        return Msg3(v5=v5, v4=v4, ts3=ts3, v2=v2), session_key

    # -- adversary capability ----------------------------------------------------

    def capture_memory(self) -> dict[str, BitString]:
        """Exactly what a physical capture exposes: the stored triple.

        The PUF seed is a hardware property, not memory contents, so it is
        deliberately absent.
        """
        if self.c_j is None or self.tc_id_j is None:
            raise ProtocolError("UAV not registered")
        return {"c_j": self.c_j, "id_j": self.id_j, "tc_id_j": self.tc_id_j}

    # -- persistence ----------------------------------------------------------------

    def to_json(self) -> dict:
        if self.c_j is None or self.tc_id_j is None:
            raise ProtocolError("UAV not registered")
        return {"identity": self.identity, "c_j": self.c_j.hex(),
                "tc_id_j": self.tc_id_j.hex(), "delta_t": self.guard.delta_t}

    @classmethod
    def from_json(cls, doc: dict, puf_seed_hex: str,
                  noise_rate: float = 0.0) -> "Uav":
        puf = PufDevice(BitString.from_hex(puf_seed_hex), noise_rate)
        uav = cls(doc["identity"], puf, delta_t=doc["delta_t"])
        uav.c_j = BitString.from_hex(doc["c_j"])
        uav.tc_id_j = BitString.from_hex(doc["tc_id_j"])
        return uav

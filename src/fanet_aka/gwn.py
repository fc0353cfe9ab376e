"""Gateway node: trusted registrar for users and UAVs, and the relay step
of the key agreement.

The gateway holds the long-term secret ``s``; nothing derived from it
leaves the node unhashed or unmasked. It keeps no per-session state other
than a replay cache of recently accepted request MACs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .bits import BitString
from .crypto import CHALLENGE_BITS, lift, random_nonce
from .errors import DuplicateRegistration, MacMismatch, UnknownUav
from .metrics import OpCounter
from .wire import (FreshnessGuard, Msg1, Msg2, UavRegResponse, UserRegRequest,
                   UserRegResponse, ts_bits)


@dataclass
class UavRecord:
    """Registry entry for one UAV; the response arrives in a second step."""

    n_j: BitString
    tc_id_j: BitString
    c_j: BitString
    r_j: BitString | None = None

    def to_json(self) -> dict:
        return {"n_j": self.n_j.hex(), "tc_id_j": self.tc_id_j.hex(),
                "c_j": self.c_j.hex(),
                "r_j": None if self.r_j is None else self.r_j.hex()}

    @classmethod
    def from_json(cls, doc: dict) -> "UavRecord":
        return cls(n_j=BitString.from_hex(doc["n_j"], width=128),
                   tc_id_j=BitString.from_hex(doc["tc_id_j"]),
                   c_j=BitString.from_hex(doc["c_j"]),
                   r_j=None if doc["r_j"] is None else BitString.from_hex(doc["r_j"]))


class Gateway:
    """Trusted gateway state machine."""

    def __init__(self, identity: str, rng: random.Random,
                 ops: OpCounter | None = None, delta_t: int = 2):
        self.identity = identity
        self.id_g = BitString.from_text(identity)
        self._s = BitString.random(160, rng)
        self.ops = ops or OpCounter()
        self.guard = FreshnessGuard(Msg1.KIND, delta_t)
        self.user_tids: set[BitString] = set()
        self.registry: dict[str, UavRecord] = {}

    # -- registrations (secure channel) -------------------------------------

    def register_user(self, request: UserRegRequest) -> UserRegResponse:
        """Issue a certificate for a pseudonym never seen before.

        This is also card replacement: the user re-registers under a fresh
        pseudonym, and any pseudonym already on file is refused for good.
        """
        if request.tid_i in self.user_tids:
            raise DuplicateRegistration("pseudonym already registered")
        tc = self.ops.xor(self.ops.xor(request.tid_i, request.tpw_i),
                          self.ops.h(self.id_g, self._s))
        self.user_tids.add(request.tid_i)
        return UserRegResponse(tc_id_i=tc)

    def register_uav_begin(self, uav_identity: str,
                           rng: random.Random) -> UavRegResponse:
        if uav_identity in self.registry:
            raise DuplicateRegistration(f"{uav_identity} already registered")
        id_j = BitString.from_text(uav_identity)
        n_j = random_nonce(rng)
        tid_j = self.ops.h(id_j, lift(n_j))
        tc_id_j = self.ops.h(tid_j, self._s)
        c_j = BitString.random(CHALLENGE_BITS, rng)
        self.registry[uav_identity] = UavRecord(n_j=n_j, tc_id_j=tc_id_j, c_j=c_j)
        return UavRegResponse(tc_id_j=tc_id_j, c_j=c_j)

    def register_uav_complete(self, uav_identity: str, r_j: BitString) -> None:
        record = self.registry.get(uav_identity)
        if record is None:
            raise UnknownUav(f"{uav_identity} has no partial registration")
        record.r_j = r_j

    # -- key agreement relay -------------------------------------------------

    def relay_auth(self, msg1: Msg1, clock, rng: random.Random) -> Msg2:
        """Verify MSG1, look up the target UAV, emit MSG2.

        Rejection is cheap by construction: a garbage request costs at most
        the three digests needed to check its MAC, and nothing is emitted
        on any error path.
        """
        expiry = self.guard.check(msg1.mac1, msg1.ts1, clock.now)

        m1 = self.ops.h(self.id_g, self._s)
        e_i = self.ops.h(m1, msg1.ts1)
        f_i = self.ops.xor(e_i, msg1.f_i_prime)
        tid_i = self.ops.xor(msg1.g_i, f_i)
        if self.ops.h(tid_i, e_i, msg1.ts1) != msg1.mac1:
            raise MacMismatch("MSG1 authentication code mismatch")

        id_j = self.ops.xor(msg1.rid_j, f_i)
        record = self._find_uav(id_j)
        if record is None or record.r_j is None:
            raise UnknownUav("recovered UAV identity not registered")
        self.guard.accept(msg1.mac1, expiry)

        ts2 = ts_bits(clock.now)
        tid_j = self.ops.h(id_j, lift(record.n_j))
        v1 = self.ops.xor(self.ops.h(id_j, record.tc_id_j, record.r_j),
                          lift(record.n_j))
        mac2 = self.ops.h(v1, tid_j, record.r_j, ts2)
        f_i_dprime = self.ops.xor(f_i, record.r_j)
        h_i = self.ops.xor(tid_i, lift(record.n_j))
        return Msg2(mac2=mac2, v1=v1, h_i=h_i, f_i_dprime=f_i_dprime, ts2=ts2)

    # -- internals --------------------------------------------------------------

    def _find_uav(self, id_j: BitString) -> UavRecord | None:
        for identity, record in self.registry.items():
            if BitString.from_text(identity) == id_j:
                return record
        return None

    # -- persistence ---------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "identity": self.identity,
            "delta_t": self.guard.delta_t,
            "user_tids": sorted(t.hex() for t in self.user_tids),
            "registry": {name: rec.to_json() for name, rec in sorted(self.registry.items())},
        }

    def export_secret(self) -> str:
        """Hex of the long-term secret, for the simulation secrets file only."""
        return self._s.hex()

    @classmethod
    def from_json(cls, doc: dict, secret_hex: str) -> "Gateway":
        gw = cls.__new__(cls)
        gw.identity = doc["identity"]
        gw.id_g = BitString.from_text(doc["identity"])
        gw._s = BitString.from_hex(secret_hex)
        gw.ops = OpCounter()
        gw.guard = FreshnessGuard(Msg1.KIND, doc["delta_t"])
        gw.user_tids = {BitString.from_hex(t) for t in doc["user_tids"]}
        gw.registry = {name: UavRecord.from_json(rec)
                       for name, rec in doc["registry"].items()}
        return gw

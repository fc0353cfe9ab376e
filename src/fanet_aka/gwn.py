"""Gateway node: trusted registrar for users and UAVs, and the relay step
of the key agreement.

The gateway holds the long-term secret ``s``; nothing derived from it
leaves the node unhashed or unmasked. It keeps no per-session state other
than a replay cache of recently accepted request MACs. The UAV registry is
keyed by name and indexed by the 160-bit wire identity ``id_j``, which is
what a request carries, so no two names may share one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .bits import BitString
from .crypto import CHALLENGE_BITS, DIGEST_BITS, NONCE_BITS, field, random_nonce
from .errors import DuplicateRegistration, MacMismatch, UnknownUav
from .metrics import OpCounter
from .wire import (FreshnessGuard, Msg1, Msg2, UavRegResponse, UserRegRequest,
                   UserRegResponse, ts_bits)

SECRET_BITS = 160


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
        return cls(n_j=BitString.from_hex(doc["n_j"], width=NONCE_BITS),
                   tc_id_j=BitString.from_hex(doc["tc_id_j"], width=DIGEST_BITS),
                   c_j=BitString.from_hex(doc["c_j"], width=CHALLENGE_BITS),
                   r_j=None if doc["r_j"] is None
                   else BitString.from_hex(doc["r_j"], width=DIGEST_BITS))


class Gateway:
    """Trusted gateway state machine."""

    def __init__(self, identity: str, secret: BitString,
                 user_tids: set[BitString] | None = None,
                 registry: dict[str, UavRecord] | None = None):
        """A restored gateway also brings the pseudonyms and UAV records on file."""
        self.identity = identity
        self.id_g = BitString.from_text(identity)
        self._s = secret
        self.ops = OpCounter()
        self.guard = FreshnessGuard(Msg1.KIND)
        self.user_tids = set() if user_tids is None else user_tids
        self.registry = {} if registry is None else registry
        self._uav_index = {BitString.from_text(name).value: rec
                           for name, rec in self.registry.items()}
        if len(self._uav_index) != len(self.registry):
            raise ValueError("two registered UAVs share a wire identity")

    # -- registrations (secure channel) -------------------------------------

    def register_user(self, request: UserRegRequest) -> UserRegResponse:
        """Issue a certificate for a pseudonym never seen before.

        This is also card replacement: the user re-registers under a fresh
        pseudonym, and any pseudonym already on file is refused for good.
        """
        tid_i = field(request.tid_i)
        if tid_i in self.user_tids:
            raise DuplicateRegistration("pseudonym already registered")
        tc = self.ops.xor(self.ops.xor(request.tid_i, request.tpw_i),
                          self.ops.h(self.id_g, self._s))
        self.user_tids.add(tid_i)
        return UserRegResponse(tc_id_i=tc)

    def check_uav_name(self, uav_identity: str) -> BitString:
        """Refuse a taken name or wire identity; return the wire identity."""
        if uav_identity in self.registry:
            raise DuplicateRegistration(f"{uav_identity} already registered")
        id_j = BitString.from_text(uav_identity)
        if id_j.value in self._uav_index:
            # from_text zero-pads, so "uav-1" and "uav-1\x00" are one identity
            raise DuplicateRegistration(f"{uav_identity!r} has the wire identity "
                                        f"of a registered UAV")
        return id_j

    def register_uav_begin(self, uav_identity: str,
                           rng: random.Random) -> UavRegResponse:
        id_j = self.check_uav_name(uav_identity)
        n_j = random_nonce(rng)
        tid_j = self.ops.h(id_j, n_j.value)  # n_j lifted: the int is unchanged
        tc_id_j = self.ops.h(tid_j, self._s)
        c_j = BitString.random(CHALLENGE_BITS, rng)
        record = UavRecord(n_j=n_j, tc_id_j=field(tc_id_j), c_j=c_j)
        self.registry[uav_identity] = self._uav_index[id_j.value] = record
        return UavRegResponse(tc_id_j=tc_id_j, c_j=c_j.value)

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
        ts1 = msg1.ts1
        expiry = self.guard.check(msg1.mac1, ts1, clock)

        ops = self.ops
        m1 = ops.h(self.id_g.value, self._s.value)
        e_i = ops.h(m1, ts1)
        f_i = ops.xor(e_i, msg1.f_i_prime)
        tid_i = ops.xor(msg1.g_i, f_i)
        if ops.h(tid_i, e_i, ts1) != msg1.mac1:
            raise MacMismatch("MSG1 authentication code mismatch")

        id_j = ops.xor(msg1.rid_j, f_i)
        record = self._uav_index.get(id_j)
        if record is None or record.r_j is None:
            raise UnknownUav("recovered UAV identity not registered")
        self.guard.accept(msg1.mac1, expiry)

        ts2 = ts_bits(clock.now)
        n_j, r_j = record.n_j.value, record.r_j.value  # n_j lifted: the int is unchanged
        tid_j = ops.h(id_j, n_j)
        v1 = ops.xor(ops.h(id_j, record.tc_id_j.value, r_j), n_j)
        mac2 = ops.h(v1, tid_j, r_j, ts2)
        return Msg2(mac2=mac2, v1=v1, h_i=ops.xor(tid_i, n_j),
                    f_i_dprime=ops.xor(f_i, r_j), ts2=ts2)

    # -- persistence ---------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "identity": self.identity,
            "user_tids": sorted(t.hex() for t in self.user_tids),
            "registry": {name: rec.to_json() for name, rec in sorted(self.registry.items())},
        }

    def export_secret(self) -> str:
        """Hex of the long-term secret, for the simulation secrets file only."""
        return self._s.hex()

    @classmethod
    def from_json(cls, doc: dict, secret_hex: str) -> "Gateway":
        return cls(doc["identity"], BitString.from_hex(secret_hex, width=SECRET_BITS),
                   {BitString.from_hex(t, width=DIGEST_BITS) for t in doc["user_tids"]},
                   {name: UavRecord.from_json(rec)
                    for name, rec in doc["registry"].items()})

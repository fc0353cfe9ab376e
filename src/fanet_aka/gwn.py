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

from .bits import text_value
from .crypto import CHALLENGE_BITS, NONCE_BITS
from .errors import DuplicateRegistration, MacMismatch, UnknownUav
from .metrics import OpCounter
from .wire import (FreshnessGuard, Msg1, Msg2, UavRegResponse, UserRegRequest,
                   UserRegResponse, ts_bits)

SECRET_BITS = 160


@dataclass(slots=True)
class UavRecord:
    """Registry entry for one UAV, each value the ``int`` of its field; the
    response arrives in a second step."""

    n_j: int
    tc_id_j: int
    c_j: int
    r_j: int | None = None


class Gateway:
    """Trusted gateway state machine. The secret ``s``, the identity
    ``id_g`` and the pseudonyms on file are the ``int``s of their fields."""

    def __init__(self, identity: str, secret: int,
                 user_tids: set[int] | None = None,
                 registry: dict[str, UavRecord] | None = None):
        """A restored gateway also brings the pseudonyms and UAV records on file."""
        if not identity:
            raise ValueError("identity must be non-empty")
        self.identity = identity
        self.id_g = text_value(identity)
        self._s = secret
        self.ops = OpCounter()
        self.guard = FreshnessGuard(Msg1.KIND)
        self.user_tids = set() if user_tids is None else user_tids
        self.registry = {} if registry is None else registry
        self._uav_index = {text_value(name): rec for name, rec in self.registry.items()}
        if len(self._uav_index) != len(self.registry):
            raise ValueError("two registered UAVs share a wire identity")

    # -- registrations (secure channel) -------------------------------------

    def register_user(self, request: UserRegRequest) -> UserRegResponse:
        """Issue a certificate for a pseudonym never seen before.

        This is also card replacement: the user re-registers under a fresh
        pseudonym, and any pseudonym already on file is refused for good.
        """
        tid_i = request.tid_i
        if tid_i in self.user_tids:
            raise DuplicateRegistration("pseudonym already registered")
        tc_id_i = self.ops.xor(self.ops.xor(tid_i, request.tpw_i), self.ops.h(self.id_g, self._s))
        self.user_tids.add(tid_i)
        return UserRegResponse(tc_id_i)

    def check_uav_name(self, uav_identity: str) -> int:
        """Refuse an empty or taken name or wire identity; return the wire identity."""
        if not uav_identity:
            raise ValueError("identity must be non-empty")
        id_j = text_value(uav_identity)
        self._refuse_taken(uav_identity, id_j)
        return id_j

    def _refuse_taken(self, uav_identity: str, id_j: int) -> None:
        if uav_identity in self.registry:
            raise DuplicateRegistration(f"{uav_identity} already registered")
        if id_j in self._uav_index:
            # text_value zero-pads, so "uav-1" and "uav-1\x00" are one identity
            raise DuplicateRegistration(f"{uav_identity!r} has the wire identity "
                                        f"of a registered UAV")

    def register_uav_begin(self, uav_identity: str, id_j: int,
                           rng: random.Random) -> UavRegResponse:
        """Enroll a UAV under the ``id_j`` :meth:`check_uav_name` returns; refuse a taken one."""
        self._refuse_taken(uav_identity, id_j)
        n_j = rng.getrandbits(NONCE_BITS)
        tc_id_j = self.ops.h(self.ops.h(id_j, n_j), self._s)
        c_j = rng.getrandbits(CHALLENGE_BITS)
        self.registry[uav_identity] = self._uav_index[id_j] = UavRecord(n_j, tc_id_j, c_j)
        return UavRegResponse(tc_id_j, c_j)

    def register_uav_complete(self, uav_identity: str, r_j: int) -> None:
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
        m1 = ops.h(self.id_g, self._s)
        e_i = ops.h(m1, ts=ts1)
        f_i = ops.xor(e_i, msg1.f_i_prime)
        tid_i = ops.xor(msg1.g_i, f_i)
        if ops.h(tid_i, e_i, ts=ts1) != msg1.mac1:
            raise MacMismatch("MSG1 authentication code mismatch")

        id_j = ops.xor(msg1.rid_j, f_i)
        record = self._uav_index.get(id_j)
        if record is None or record.r_j is None:
            raise UnknownUav("recovered UAV identity not registered")
        self.guard.accept(msg1.mac1, expiry)

        ts2 = ts_bits(clock.now)
        n_j, r_j = record.n_j, record.r_j
        tid_j = ops.h(id_j, n_j)
        v1 = ops.xor(ops.h(id_j, record.tc_id_j, r_j), n_j)
        mac2 = ops.h(v1, tid_j, r_j, ts=ts2)
        h_i = ops.xor(tid_i, n_j)
        f_i_dprime = ops.xor(f_i, r_j)
        return Msg2(mac2, v1, h_i, f_i_dprime, ts2)

    def export_secret(self) -> int:
        """The long-term secret's ``int``, for the simulation secrets file only."""
        return self._s

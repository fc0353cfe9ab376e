"""User and smart-card side of the protocol.

Covers registration, login, session initiation and finalization, and local
password/biometric update. Card replacement is re-registration under a
fresh pseudonym: ``register_begin`` then ``register_complete``. A ``User``
is a single-session sequential state machine: one pending key agreement
at a time, consumed on finalization.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .bits import BitString
from .crypto import FeParams, lift, random_nonce
from .errors import AuthFailed, LoginFailed, ProtocolError
from .metrics import OpCounter
from .wire import Msg1, Msg3, UserRegRequest, UserRegResponse, check_fresh, ts_bits


@dataclass
class SmartCard:
    """The user-held credential record.

    Holds only masked or hashed material: neither the identity, password,
    nonce nor biometric key appears as a field.
    """

    a_i: BitString          # nonce masked by h(ID || sigma)
    b_i: BitString          # credential check digest
    c_i: BitString          # gateway digest recovered by XOR cancellation
    tau_i: BitString        # fuzzy-extractor helper data, public
    fe_params: FeParams

    @property
    def tolerance(self) -> int:
        return self.fe_params.tolerance

    def to_json(self) -> dict:
        return {
            "a_i": self.a_i.hex(),
            "b_i": self.b_i.hex(),
            "c_i": self.c_i.hex(),
            "tau_i": self.tau_i.hex(),
            "fe_params": {"key_bits": self.fe_params.key_bits,
                          "repetition": self.fe_params.repetition},
            "tolerance": self.tolerance,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "SmartCard":
        params = FeParams(**doc["fe_params"])
        return cls(
            a_i=BitString.from_hex(doc["a_i"]),
            b_i=BitString.from_hex(doc["b_i"]),
            c_i=BitString.from_hex(doc["c_i"]),
            tau_i=BitString.from_hex(doc["tau_i"], width=params.bio_width),
            fe_params=params,
        )


@dataclass
class LoginContext:
    """Secrets recovered by a successful credential check; never persisted."""

    id_i: BitString
    tid_i: BitString
    tpw_i: BitString
    n_i: BitString
    c_i: BitString


@dataclass
class PendingSession:
    """Values retained between sending MSG1 and processing MSG3. Single use."""

    tid_i: BitString
    rid_j: BitString
    id_j: BitString
    ts1: BitString


class User:
    """Protocol state machine for one registered user."""

    def __init__(self, identity: str, ops: OpCounter | None = None,
                 fe_params: FeParams | None = None):
        if not identity:
            raise ValueError("identity must be non-empty")
        self.identity = identity
        self.id_i = BitString.from_text(identity)
        self.ops = ops or OpCounter()
        self.fe_params = fe_params or FeParams()
        self.card: SmartCard | None = None
        self.known_uavs: set[str] = set()
        self._reg_nonce: BitString | None = None
        self._reg_tpw: BitString | None = None
        self._pending: PendingSession | None = None

    # -- registration (secure channel) ------------------------------------

    def register_begin(self, password: str, rng: random.Random) -> UserRegRequest:
        if not password:
            raise ValueError("password must be non-empty")
        n_i = random_nonce(rng)
        pw = BitString.from_text(password)
        tid_i = self.ops.h(self.id_i, lift(n_i))
        tpw_i = self.ops.h(pw, lift(n_i))
        self._reg_nonce = n_i
        self._reg_tpw = tpw_i
        return UserRegRequest(tid_i=tid_i, tpw_i=tpw_i)

    def register_complete(self, response: UserRegResponse, bio: BitString,
                          rng: random.Random) -> SmartCard:
        if self._reg_nonce is None:
            raise ProtocolError("no registration in progress")
        n_i, tpw_i = self._reg_nonce, self._reg_tpw
        tid_i = self.ops.h(self.id_i, lift(n_i))
        sigma, tau = self.ops.fe_gen(bio, self.fe_params, rng)
        a_i = self.ops.xor(lift(n_i), self.ops.h(self.id_i, sigma))
        b_i = self.ops.h(self.id_i, tpw_i, sigma)
        c_i = self.ops.xor(self.ops.xor(response.tc_id_i, tid_i), tpw_i)
        self.card = SmartCard(a_i=a_i, b_i=b_i, c_i=c_i, tau_i=tau,
                              fe_params=self.fe_params)
        self._reg_nonce = self._reg_tpw = None
        return self.card

    # -- login and key agreement ------------------------------------------

    def login(self, password: str, bio: BitString) -> LoginContext:
        """Recover the login secrets from card, password and biometric.

        Total: always returns a context or raises LoginFailed, which is
        cause-opaque so a thief cannot tell a wrong password from a bad
        biometric reading.
        """
        if self.card is None:
            raise ProtocolError("no card issued")
        card = self.card
        sigma_star = self.ops.fe_rep(bio, card.tau_i, card.fe_params)
        n_i_star = self.ops.xor(card.a_i, self.ops.h(self.id_i, sigma_star))
        tid_star = self.ops.h(self.id_i, n_i_star)
        tpw_star = self.ops.h(BitString.from_text(password), n_i_star)
        b_star = self.ops.h(self.id_i, tpw_star, sigma_star)
        if b_star != card.b_i:
            raise LoginFailed(debug_cause="credential-check",
                              debug={"sigma_star": sigma_star, "b_star": b_star})
        return LoginContext(id_i=self.id_i, tid_i=tid_star, tpw_i=tpw_star,
                            n_i=n_i_star, c_i=card.c_i)

    def aka_initiate(self, ctx: LoginContext, uav_identity: str, clock) -> Msg1:
        """Build MSG1 toward the chosen UAV and retain the pending session."""
        id_j = BitString.from_text(uav_identity)
        ts1 = ts_bits(clock.now)
        e_i = self.ops.h(ctx.c_i, ts1)
        f_i = self.ops.h(ctx.tid_i, ctx.tpw_i, ts1)
        mac1 = self.ops.h(ctx.tid_i, e_i, ts1)
        rid_j = self.ops.xor(id_j, f_i)
        f_i_prime = self.ops.xor(e_i, f_i)
        g_i = self.ops.xor(ctx.tid_i, f_i)
        self._pending = PendingSession(tid_i=ctx.tid_i, rid_j=rid_j,
                                       id_j=id_j, ts1=ts1)
        return Msg1(mac1=mac1, rid_j=rid_j, g_i=g_i, f_i_prime=f_i_prime, ts1=ts1)

    def aka_finalize(self, msg3: Msg3, clock, delta_t: int) -> BitString:
        """Verify MSG3 and derive the session key. Consumes the pending state."""
        if self._pending is None:
            raise ProtocolError("no session pending")
        pend, self._pending = self._pending, None
        check_fresh(Msg3.KIND, msg3.ts3, clock.now, delta_t)
        n_k = self.ops.xor(msg3.v5, self.ops.h(pend.tid_i, pend.rid_j, msg3.ts3))
        v2_star = self.ops.xor(self.ops.h(pend.id_j, pend.tid_i, msg3.ts3), n_k)
        if v2_star != msg3.v2:
            raise AuthFailed("MSG3 confirmation check failed")
        v3_star = self.ops.xor(msg3.v4, self.ops.h(pend.tid_i, pend.rid_j, n_k))
        return self.ops.h(v3_star, pend.tid_i, pend.rid_j, n_k, msg3.ts3)

    # -- credential maintenance -------------------------------------------

    def update_credentials(self, old_password: str, old_bio: BitString,
                           new_password: str, new_bio: BitString,
                           rng: random.Random) -> SmartCard:
        """Local password and biometric change; no gateway involved.

        The card's gateway digest is untouched: the masked certificate
        algebra cancels the pseudonym and password terms, so the value the
        card carries is the same before and after the update.
        """
        ctx = self.login(old_password, old_bio)
        sigma_new, tau_new = self.ops.fe_gen(new_bio, self.fe_params, rng)
        tpw_new = self.ops.h(BitString.from_text(new_password), ctx.n_i)
        a_new = self.ops.xor(ctx.n_i, self.ops.h(self.id_i, sigma_new))
        b_new = self.ops.h(self.id_i, tpw_new, sigma_new)
        self.card = SmartCard(a_i=a_new, b_i=b_new, c_i=ctx.c_i, tau_i=tau_new,
                              fe_params=self.fe_params)
        return self.card

    # -- bookkeeping --------------------------------------------------------

    def note_uav(self, uav_identity: str) -> None:
        """Record a gateway broadcast announcing a UAV."""
        self.known_uavs.add(uav_identity)

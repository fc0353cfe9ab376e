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

from .bits import text_value
from .crypto import NONCE_BITS
from .errors import AuthFailed, LoginFailed, ProtocolError, WidthMismatch
from .metrics import OpCounter
from .wire import Msg1, Msg3, UserRegRequest, UserRegResponse, check_fresh, ts_bits


@dataclass(slots=True)
class SmartCard:
    """The user-held credential record, each field the ``int`` of its value.

    Holds only masked or hashed material: neither the identity, password,
    nonce nor biometric key appears as a field.
    """

    a_i: int      # nonce masked by h(ID || sigma)
    b_i: int      # credential check digest
    c_i: int      # gateway digest recovered by XOR cancellation
    tau_i: int    # fuzzy-extractor helper data, public


@dataclass(slots=True)
class LoginContext:
    """Secrets recovered by a successful credential check, as the ints of
    their 160-bit fields; never persisted."""

    tid_i: int
    tpw_i: int
    n_i: int
    c_i: int


@dataclass(slots=True)
class PendingSession:
    """Values retained between sending MSG1 and processing MSG3, as the ints
    of their 160-bit fields. Single use."""

    tid_i: int
    rid_j: int
    id_j: int


class User:
    """Protocol state machine for one registered user.

    At most one key agreement is pending. A second ``aka_initiate`` before
    ``aka_finalize`` replaces the pending session: the first session's
    MSG3 then fails the confirmation check with AuthFailed, and, like every
    finalization, that failure consumes the pending state.
    """

    def __init__(self, identity: str):
        if not identity:
            raise ValueError("identity must be non-empty")
        self.identity = identity
        self.id_i = text_value(identity)
        self.ops = OpCounter()
        self.card: SmartCard | None = None
        # the ints of (N_i, TID_i, TPW_i) of a registration awaiting
        # the gateway's reply
        self._reg: tuple[int, int, int] | None = None
        self._pending: PendingSession | None = None

    # -- registration (secure channel) ------------------------------------

    def register_begin(self, password: str, rng: random.Random) -> UserRegRequest:
        if not password:
            raise ValueError("password must be non-empty")
        n_i = rng.getrandbits(NONCE_BITS)
        tid_i = self.ops.h(self.id_i, n_i)
        tpw_i = self.ops.h(text_value(password), n_i)
        self._reg = (n_i, tid_i, tpw_i)
        return UserRegRequest(tid_i, tpw_i)

    def register_complete(self, response: UserRegResponse, bio: int,
                          rng: random.Random) -> SmartCard:
        if self._reg is None:
            raise ProtocolError("no registration in progress")
        n_i, tid_i, tpw_i = self._reg
        c_i = self.ops.xor(self.ops.xor(response.tc_id_i, tid_i), tpw_i)
        self._reg = None
        return self._mint_card(n_i, tpw_i, c_i, bio, rng)

    def _mint_card(self, n_i: int, tpw_i: int, c_i: int, bio: int,
                   rng: random.Random) -> SmartCard:
        """The card for nonce ``n_i`` and ``tpw_i`` under a fresh biometric key."""
        sigma, tau = self.ops.fe_gen(bio, rng)
        a_i = self.ops.xor(n_i, self.ops.h(self.id_i, sigma))
        b_i = self.ops.h(self.id_i, tpw_i, sigma)
        self.card = SmartCard(a_i=a_i, b_i=b_i, c_i=c_i, tau_i=tau)
        return self.card

    # -- login and key agreement ------------------------------------------

    def login(self, password: str, bio: int) -> LoginContext:
        """Recover the login secrets from card, password and biometric.

        Total: always returns a context or raises LoginFailed, which is
        cause-opaque so a thief cannot tell a wrong password from a bad
        biometric reading. A password too wide for its field is a wrong one.
        """
        if self.card is None:
            raise ProtocolError("no card issued")
        card, ops, id_i = self.card, self.ops, self.id_i
        sigma_star = ops.fe_rep(bio, card.tau_i)
        n_i_star = ops.xor(card.a_i, ops.h(id_i, sigma_star))
        tid_star = ops.h(id_i, n_i_star)
        try:
            tpw_star = ops.h(text_value(password), n_i_star)
        except WidthMismatch:
            raise LoginFailed("login failed") from None
        if ops.h(id_i, tpw_star, sigma_star) != card.b_i:
            raise LoginFailed("login failed")
        return LoginContext(tid_i=tid_star, tpw_i=tpw_star, n_i=n_i_star, c_i=card.c_i)

    def aka_initiate(self, ctx: LoginContext, uav_identity: str, clock) -> Msg1:
        """Build MSG1 toward the chosen UAV and retain the pending session."""
        ops = self.ops
        id_j = text_value(uav_identity)
        tid_i = ctx.tid_i
        ts1 = ts_bits(clock.now)
        e_i = ops.h(ctx.c_i, ts=ts1)
        f_i = ops.h(tid_i, ctx.tpw_i, ts=ts1)
        mac1 = ops.h(tid_i, e_i, ts=ts1)
        rid_j = ops.xor(id_j, f_i)
        f_i_prime = ops.xor(e_i, f_i)
        g_i = ops.xor(tid_i, f_i)
        self._pending = PendingSession(tid_i=tid_i, rid_j=rid_j, id_j=id_j)
        return Msg1(mac1, rid_j, g_i, f_i_prime, ts1)

    def aka_finalize(self, msg3: Msg3, clock) -> int:
        """Verify MSG3 and derive the session key, the ``int`` of its digest.
        Consumes the pending state."""
        if self._pending is None:
            raise ProtocolError("no session pending")
        pend, self._pending = self._pending, None
        ts3 = msg3.ts3
        check_fresh(Msg3.KIND, ts3, clock.now, clock.delta_t)
        ops, tid_i, rid_j = self.ops, pend.tid_i, pend.rid_j
        n_k = ops.xor(msg3.v5, ops.h(tid_i, rid_j, ts=ts3))
        if ops.xor(ops.h(pend.id_j, tid_i, ts=ts3), n_k) != msg3.v2:
            raise AuthFailed("MSG3 confirmation check failed")
        v3_star = ops.xor(msg3.v4, ops.h(tid_i, rid_j, n_k))
        return ops.h(v3_star, tid_i, rid_j, n_k, ts=ts3)

    # -- credential maintenance -------------------------------------------

    def update_credentials(self, old_password: str, old_bio: int,
                           new_password: str, new_bio: int,
                           rng: random.Random) -> SmartCard:
        """Local password and biometric change; no gateway involved.

        The card's gateway digest is untouched: the masked certificate
        algebra cancels the pseudonym and password terms, so the value the
        card carries is the same before and after the update.
        """
        if not new_password:
            raise ValueError("password must be non-empty")
        ctx = self.login(old_password, old_bio)
        tpw_new = self.ops.h(text_value(new_password), ctx.n_i)
        return self._mint_card(ctx.n_i, tpw_new, self.card.c_i, new_bio, rng)

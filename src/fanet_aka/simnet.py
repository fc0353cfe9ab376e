"""Deterministic simulated network: logical clock, recorded channel,
adversary actions, and the scripted honest-run driver.

Everything is single threaded and driven explicitly by scenario code, so
a (seed, script) pair always reproduces the same transcript byte for
byte. The adversary owns the public channel in full: ``Adversary``
observes and replays logged messages, and ``run_aka``'s ``intercept`` hook
tampers with, delays or drops them in flight. Secure-channel payloads are
invisible to it unless a scenario explicitly grants insider access.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from .bits import BitString
from .crypto import PufDevice
from .errors import DisallowedAction, ProtocolError
from .gwn import Gateway
from .metrics import diff_counts
from .uav import Uav
from .user import User
from .wire import decode, encode  # decode: the benchmark's traced run wraps it here
from . import wire


@dataclass
class SimConfig:
    """Knobs shared by scenarios, the acceptance suite and the CLI."""

    seed: int = 0
    delta_t: int = 2
    closure_depth: int = 4


class SimClock:
    """Shared monotone tick counter; every party reads the same clock."""

    def __init__(self, now: int = 0):
        self.now = now

    def advance(self, ticks: int = 1) -> int:
        if ticks < 0:
            raise ValueError("clock is monotone")
        self.now += ticks
        return self.now


@dataclass
class Transmission:
    """One logged channel event."""

    tick: int
    origin: str
    dest: str
    kind: str
    payload: BitString
    secure: bool = False
    events: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {"tick": self.tick, "origin": self.origin, "dest": self.dest,
                "kind": self.kind, "secure": self.secure,
                "hex": self.payload.hex(), "events": list(self.events)}


class Channel:
    """Record of every transmission, in order."""

    def __init__(self, clock: SimClock):
        self.clock = clock
        self.log: list[Transmission] = []

    def send(self, origin: str, dest: str, kind: str, payload: BitString,
             secure: bool = False) -> Transmission:
        tr = Transmission(tick=self.clock.now, origin=origin, dest=dest,
                          kind=kind, payload=payload, secure=secure)
        self.log.append(tr)
        return tr

    def public_payloads(self) -> list[BitString]:
        return [tr.payload for tr in self.log if not tr.secure]


class Adversary:
    """Dolev-Yao observation and replay over the channel; replays are logged."""

    def __init__(self, channel: Channel, insider: bool = False):
        self.channel = channel
        self.insider = insider

    def _check(self, tr: Transmission) -> None:
        if tr.secure and not self.insider:
            raise DisallowedAction("secure-channel message is out of reach")

    def observe(self) -> list[BitString]:
        """Everything visible: public always, secure only for an insider."""
        return [tr.payload for tr in self.channel.log
                if self.insider or not tr.secure]

    def replay(self, tr: Transmission) -> Transmission:
        self._check(tr)
        copy = self.channel.send(tr.origin, tr.dest, tr.kind, tr.payload,
                                 secure=tr.secure)
        copy.events.append("replayed")
        return copy


@dataclass
class World:
    """One fresh deployment: gateway, parties, clock, channel, rng."""

    config: SimConfig
    rng: random.Random
    clock: SimClock
    channel: Channel
    gateway: Gateway
    users: dict[str, User] = field(default_factory=dict)
    uavs: dict[str, Uav] = field(default_factory=dict)
    user_secrets: dict[str, dict] = field(default_factory=dict)

    def adversary(self, insider: bool = False) -> Adversary:
        return Adversary(self.channel, insider=insider)


def build_world(config: SimConfig | None = None,
                rng: random.Random | None = None) -> World:
    config = config or SimConfig()
    rng = rng or random.Random(config.seed)
    clock = SimClock()
    channel = Channel(clock)
    gateway = Gateway("gateway-0", rng, delta_t=config.delta_t)
    return World(config=config, rng=rng, clock=clock, channel=channel,
                 gateway=gateway)


def enroll_user(world: World, identity: str, password: str) -> User:
    """Run the full user registration phase over the secure channel.

    Enrolling a registered identity again is card replacement: a new
    ``User`` with a fresh pseudonym, password and biometric.
    """
    user = User(identity)
    bio = BitString.random(user.fe_params.bio_width, world.rng)
    request = user.register_begin(password, world.rng)
    n_i = user._reg_nonce  # harness ground truth for the leak checks
    world.channel.send(identity, world.gateway.identity, wire.UserRegRequest.KIND,
                       encode(request), secure=True)
    response = world.gateway.register_user(request)
    world.channel.send(world.gateway.identity, identity, wire.UserRegResponse.KIND,
                       encode(response), secure=True)
    user.register_complete(response, bio, world.rng)
    world.users[identity] = user
    world.user_secrets[identity] = {
        "password": password, "bio": bio, "n_i": n_i,
        "tid_i": request.tid_i, "tpw_i": request.tpw_i,
        "tc_id_i": response.tc_id_i,
    }
    return user


def enroll_uav(world: World, identity: str, announce: bool = False) -> Uav:
    """Run the full UAV registration phase; ``announce`` tells every user."""
    puf = PufDevice.generate(world.rng)
    uav = Uav(identity, puf, delta_t=world.config.delta_t)
    world.channel.send(identity, world.gateway.identity, wire.UavRegRequest.KIND,
                       encode(wire.UavRegRequest(id_j=uav.id_j)), secure=True)
    response = world.gateway.register_uav_begin(identity, world.rng)
    world.channel.send(world.gateway.identity, identity, wire.UavRegResponse.KIND,
                       encode(response), secure=True)
    submit = uav.register(response)
    world.channel.send(identity, world.gateway.identity, wire.UavRegSubmit.KIND,
                       encode(submit), secure=True)
    world.gateway.register_uav_complete(identity, submit.r_j)
    world.uavs[identity] = uav
    if announce:
        for user in world.users.values():
            user.note_uav(identity)
    return uav


#: Interception hook: gets (kind, payload), returns the payload to deliver
#: or None to drop the message.
Intercept = Callable[[str, BitString], BitString | None]


@dataclass
class AkaResult:
    """Outcome of one driven key-agreement run."""

    ok: bool
    stage: str
    error: str | None
    user_sk: BitString | None
    uav_sk: BitString | None
    transcript: list[Transmission]
    op_counts: dict
    phase_counts: dict
    checks: dict

    @property
    def keys_agree(self) -> bool:
        return (self.user_sk is not None and self.uav_sk is not None
                and self.user_sk == self.uav_sk)


def run_aka(world: World, user_identity: str, uav_identity: str,
            intercept: Intercept | None = None,
            password: str | None = None, bio: BitString | None = None) -> AkaResult:
    """Drive one full key agreement, optionally through an interceptor.

    The interceptor sees the serialized public payloads exactly as the
    receiving party will, so tampering operates on wire bits. Counter
    snapshots around each phase feed the operation accounting.
    """
    user = world.users[user_identity]
    uav = world.uavs[uav_identity]
    gwn = world.gateway
    secrets = world.user_secrets[user_identity]
    password = secrets["password"] if password is None else password
    bio = secrets["bio"] if bio is None else bio
    start = len(world.channel.log)
    for ops in (user.ops, gwn.ops, uav.ops):
        ops.reset()
    checks = {"credential": False, "mac1": False, "mac2": False, "confirmation": False}
    phases: dict[str, dict] = {}
    user_sk = uav_sk = None

    def finish(ok: bool, stage: str, error: Exception | None) -> AkaResult:
        transcript = world.channel.log[start:]
        return AkaResult(
            ok=ok, stage=stage, error=None if error is None else type(error).__name__,
            user_sk=user_sk, uav_sk=uav_sk, transcript=transcript,
            op_counts={"user": user.ops.snapshot(), "gwn": gwn.ops.snapshot(),
                       "uav": uav.ops.snapshot()},
            phase_counts=phases, checks=checks)

    def through(kind: str, payload: BitString) -> BitString | None:
        return payload if intercept is None else intercept(kind, payload)

    try:
        before = user.ops.snapshot()
        ctx = user.login(password, bio)
        checks["credential"] = True
        phases["login"] = diff_counts(before, user.ops.snapshot())

        before = user.ops.snapshot()
        msg1 = user.aka_initiate(ctx, uav_identity, world.clock)
        phases["initiate"] = diff_counts(before, user.ops.snapshot())
        tr1 = world.channel.send(user_identity, gwn.identity, wire.Msg1.KIND,
                                 encode(msg1))
        payload = through(wire.Msg1.KIND, tr1.payload)
        if payload is None:
            return finish(False, "MSG1", ProtocolError("dropped"))
        tr1.payload = payload
        world.clock.advance(1)

        msg2 = gwn.relay_auth(wire.decode_msg1(payload), world.clock, world.rng)
        checks["mac1"] = True
        tr2 = world.channel.send(gwn.identity, uav_identity, wire.Msg2.KIND,
                                 encode(msg2))
        payload = through(wire.Msg2.KIND, tr2.payload)
        if payload is None:
            return finish(False, "MSG2", ProtocolError("dropped"))
        tr2.payload = payload
        world.clock.advance(1)

        msg3, uav_sk = uav.aka_respond(wire.decode_msg2(payload), world.clock,
                                       world.rng)
        checks["mac2"] = True
        tr3 = world.channel.send(uav_identity, user_identity, wire.Msg3.KIND,
                                 encode(msg3))
        payload = through(wire.Msg3.KIND, tr3.payload)
        if payload is None:
            return finish(False, "MSG3", ProtocolError("dropped"))
        tr3.payload = payload

        before = user.ops.snapshot()
        user_sk = user.aka_finalize(wire.decode_msg3(payload), world.clock,
                                    world.config.delta_t)
        checks["confirmation"] = True
        phases["finalize"] = diff_counts(before, user.ops.snapshot())
    except ProtocolError as exc:
        return finish(False, _failed_stage(checks), exc)
    return finish(True, "complete", None)


def _failed_stage(checks: dict) -> str:
    if not checks["credential"]:
        return "login"
    if not checks["mac1"]:
        return "MSG1"
    if not checks["mac2"]:
        return "MSG2"
    return "MSG3"

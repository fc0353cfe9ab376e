"""Deterministic simulated network: logical clock, recorded channel,
and the scripted honest-run driver.

Everything is single threaded and driven explicitly by scenario code, so
a (seed, script) pair always reproduces the same transcript byte for
byte. The channel is the Dolev-Yao adversary: it observes its log,
``Channel.replay`` re-sends a logged public message, and ``run_aka``'s
``intercept`` hook tampers with, delays or drops messages in flight.
Secure-channel messages are out of its reach; an insider scenario reads them.

The log is bounded: it keeps the latest ``LOG_CAPACITY`` transmissions and
counts the ones it evicts, so a long run's memory stays flat. A run owns
its transcript: ``run_aka`` returns the transmissions it sent itself, not
a slice of the log.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from .bits import BitString
from .crypto import BIO_BITS, PufDevice
from .errors import DisallowedAction, ProtocolError
from .gwn import SECRET_BITS, Gateway
from .metrics import diff_counts
from .uav import Uav
from .user import User
from .wire import decode, encode  # decode: the benchmark's traced run wraps it here
from . import crypto, wire


@dataclass
class SimConfig:
    """Knobs shared by scenarios, the acceptance suite and the CLI."""

    seed: int = 0
    delta_t: int = 2


class SimClock:
    """Shared monotone tick counter and the freshness window ``delta_t``
    (the bound on transmission delay); every party reads the same clock."""

    def __init__(self, delta_t: int, now: int = 0):
        self.delta_t = delta_t
        self.now = now

    def advance(self, ticks: int = 1) -> int:
        if ticks < 0:
            raise ValueError("clock is monotone")
        self.now += ticks
        return self.now


@dataclass(slots=True)
class Transmission:
    """One logged channel event; ``replayed`` marks an adversary's copy."""

    tick: int
    origin: str
    dest: str
    kind: str
    payload: BitString
    secure: bool = False
    replayed: bool = False

    def to_json(self) -> dict:
        return {"tick": self.tick, "origin": self.origin, "dest": self.dest,
                "kind": self.kind, "secure": self.secure, "hex": self.payload.hex(),
                "events": ["replayed"] if self.replayed else []}


#: Most transmissions a channel log holds; beyond it the oldest are evicted.
#: Above the longest log a scenario report shows and the tamper world of the
#: acceptance suite, so only long runs evict.
LOG_CAPACITY = 4096


class Channel:
    """Record of the latest ``LOG_CAPACITY`` transmissions, in order.

    ``logged`` counts every transmission ever logged, so ``evicted`` is the
    number of the oldest that the bound pushed out.
    """

    def __init__(self, clock: SimClock):
        self.clock = clock
        self.log: deque[Transmission] = deque(maxlen=LOG_CAPACITY)
        self.logged = 0

    @property
    def evicted(self) -> int:
        return self.logged - len(self.log)

    def send(self, origin: str, dest: str, msg, secure: bool = False) -> Transmission:
        """Encode ``msg`` and log it under its own kind."""
        tr = Transmission(tick=self.clock.now, origin=origin, dest=dest,
                          kind=msg.KIND, payload=encode(msg), secure=secure)
        self.logged += 1
        self.log.append(tr)
        return tr

    def public_payloads(self) -> list[BitString]:
        return [tr.payload for tr in self.log if not tr.secure]

    def replay(self, tr: Transmission) -> Transmission:
        """Re-send the logged public ``tr`` now; the copy is logged as replayed."""
        if tr.secure:
            raise DisallowedAction("secure-channel message is out of reach")
        copy = Transmission(tick=self.clock.now, origin=tr.origin, dest=tr.dest,
                            kind=tr.kind, payload=tr.payload, replayed=True)
        self.logged += 1
        self.log.append(copy)
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


def build_world(config: SimConfig | None = None,
                rng: random.Random | None = None) -> World:
    config = config or SimConfig()
    rng = rng or random.Random(config.seed)
    clock = SimClock(config.delta_t)
    channel = Channel(clock)
    gateway = Gateway("gateway-0", BitString.random(SECRET_BITS, rng))
    return World(config=config, rng=rng, clock=clock, channel=channel,
                 gateway=gateway)


def enroll_user(world: World, identity: str, password: str) -> User:
    """Run the full user registration phase over the secure channel.

    Enrolling a registered identity again is card replacement: a new
    ``User`` with a fresh pseudonym, password and biometric.
    """
    user = User(identity)
    bio = BitString.random(BIO_BITS, world.rng)
    request = user.register_begin(password, world.rng)
    world.channel.send(identity, world.gateway.identity, request, secure=True)
    response = world.gateway.register_user(request)
    world.channel.send(world.gateway.identity, identity, response, secure=True)
    user.register_complete(response, bio, world.rng)
    world.users[identity] = user
    world.user_secrets[identity] = {"password": password, "bio": bio}
    return user


def enroll_uav(world: World, identity: str, announce: bool = False) -> Uav:
    """Run the full UAV registration phase; ``announce`` tells every user.
    A name the gateway refuses draws and sends nothing."""
    gwn = world.gateway
    id_j = gwn.check_uav_name(identity)
    puf = PufDevice.generate(world.rng)
    world.channel.send(identity, gwn.identity, wire.UavRegRequest(id_j=id_j.value),
                       secure=True)
    response = gwn.register_uav_begin(identity, world.rng)
    world.channel.send(gwn.identity, identity, response, secure=True)
    uav = Uav(identity, puf, crypto.field(response.c_j), crypto.field(response.tc_id_j))
    submit = uav.register()
    world.channel.send(identity, gwn.identity, submit, secure=True)
    gwn.register_uav_complete(identity, crypto.field(submit.r_j))
    world.uavs[identity] = uav
    if announce:
        for user in world.users.values():
            user.note_uav(identity)
    return uav


#: Interception hook: gets (kind, payload), returns the payload to deliver
#: or None to drop the message.
Intercept = Callable[[str, BitString], BitString | None]


#: The stages of a run, and the check that ends each one: a run stopped
#: at a stage passed exactly the checks of the stages before it.
STAGES = ("login", "MSG1", "MSG2", "MSG3", "complete")
CHECKS = ("credential", "mac1", "mac2", "confirmation")
#: The user's phases of a run, each counted apart in ``phase_counts``.
PHASES = ("login", "initiate", "finalize")


@dataclass(slots=True)
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

    @property
    def checks(self) -> dict:
        reached = STAGES.index(self.stage)
        return {name: i < reached for i, name in enumerate(CHECKS)}

    @property
    def keys_agree(self) -> bool:
        return (self.user_sk is not None and self.uav_sk is not None
                and self.user_sk == self.uav_sk)


def run_aka(world: World, user_identity: str, uav_identity: str,
            intercept: Intercept | None = None,
            password: str | None = None) -> AkaResult:
    """Drive one full key agreement, optionally through an interceptor.

    The interceptor sees the serialized public payloads exactly as the
    receiving party will, so tampering operates on wire bits. The run's
    transcript is the transmissions it sent itself, as delivered, whatever
    else the channel logs meanwhile. Each party's counters are read at the
    start, the user's again after each of its phases, and all at the end;
    the differences feed the operation accounting.
    """
    user = world.users[user_identity]
    uav = world.uavs[uav_identity]
    gwn = world.gateway
    clock, channel = world.clock, world.channel
    secrets = world.user_secrets[user_identity]
    password = secrets["password"] if password is None else password
    user_ops, gwn_ops, uav_ops = user.ops, gwn.ops, uav.ops
    gwn_start, uav_start = gwn_ops.counts(), uav_ops.counts()
    marks = [user_ops.counts()]  # the user's counters at each phase boundary
    transcript: list[Transmission] = []
    user_sk = uav_sk = error = None

    def send(origin: str, dest: str, msg) -> BitString:
        tr = channel.send(origin, dest, msg)
        transcript.append(tr)
        if intercept is not None:
            payload = intercept(tr.kind, tr.payload)
            if payload is None:
                raise ProtocolError("dropped")
            tr.payload = payload
        return tr.payload

    stage = "login"
    try:
        ctx = user.login(password, secrets["bio"])
        marks.append(user_ops.counts())
        stage = "MSG1"

        msg1 = user.aka_initiate(ctx, uav_identity, clock)
        marks.append(user_ops.counts())
        payload = send(user_identity, gwn.identity, msg1)
        clock.advance(1)

        msg2 = gwn.relay_auth(wire.decode_msg1(payload), clock, world.rng)
        stage = "MSG2"
        payload = send(gwn.identity, uav_identity, msg2)
        clock.advance(1)

        msg3, uav_sk = uav.aka_respond(wire.decode_msg2(payload), clock, world.rng)
        stage = "MSG3"
        payload = send(uav_identity, user_identity, msg3)

        user_sk = user.aka_finalize(wire.decode_msg3(payload), clock)
        marks.append(user_ops.counts())
        stage = "complete"
    except ProtocolError as exc:
        error = type(exc).__name__
    return AkaResult(
        ok=error is None, stage=stage, error=error, user_sk=user_sk,
        uav_sk=uav_sk, transcript=transcript,
        op_counts={"user": diff_counts(marks[0], user_ops.counts()),
                   "gwn": diff_counts(gwn_start, gwn_ops.counts()),
                   "uav": diff_counts(uav_start, uav_ops.counts())},
        phase_counts={phase: diff_counts(before, after) for phase, before, after
                      in zip(PHASES, marks, marks[1:])})

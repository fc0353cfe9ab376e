"""Attack scenario catalog.

Each scenario builds a fresh deployment, runs a scripted attack against
it, evaluates its security claim, and returns a report. Claims about
derivability are decided by the bounded knowledge-closure engine; claims
about protocol behavior (forgeries, replays, floods) are decided by
actually attempting the attack against the real state machines.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field, fields, replace
from typing import Callable

from .bits import BitString
from .closure import compute_closure
from .crypto import BIO_BITS, NONCE_BITS, lift, sha1_digest
from .errors import (DuplicateRegistration, IncompleteTranscript, ProtocolError,
                     ReplayDetected, StaleTimestamp, UnknownScenario)
from .metrics import recording
from .simnet import SimConfig, World, build_world, enroll_user, enroll_uav, run_aka
from .wire import (Msg1, Msg2, Msg3, UserRegRequest, decode, encode, protocol_bits,
                   ts_bits)


@dataclass
class ScenarioReport:
    scenario: str
    seed: int
    verdicts: list = field(default_factory=list)
    op_counts: dict = field(default_factory=dict)
    bit_counts: dict = field(default_factory=dict)
    transcript: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(v["passed"] for v in self.verdicts)

    def check(self, claim: str, passed: bool, **details) -> None:
        self.verdicts.append({"claim": claim, "passed": bool(passed),
                              "details": details})

    def to_json(self) -> dict:
        return {"scenario": self.scenario, "seed": self.seed,
                "passed": self.passed, "verdicts": self.verdicts,
                "op_counts": self.op_counts, "bit_counts": self.bit_counts,
                "transcript": self.transcript}


def _world(cfg: SimConfig, name: str, users=("alice",), uavs=("uav-1",)) -> World:
    rng = random.Random(f"{cfg.seed}:{name}")
    world = build_world(cfg, rng=rng)
    for u in users:
        enroll_user(world, u, f"{u}-passphrase")
    for j in uavs:
        enroll_uav(world, j)
    return world


#: The catalog, in registration order: the order the feature matrix reports.
SCENARIOS: dict[str, Callable[[SimConfig], ScenarioReport]] = {}


def _scenario(users=("alice",), uavs=("uav-1",)):
    """Register ``attack(report, world, cfg)`` as the scenario ``(cfg) -> report``.

    The attack's function name is its catalog key, its report's name and
    its world's rng label. It returns the run whose counts the report
    carries, or None; the report's transcript is the channel log, whole:
    a world whose log evicted anything raises IncompleteTranscript.
    """
    def register(attack):
        name = attack.__name__

        @functools.wraps(attack)
        def scenario(cfg: SimConfig) -> ScenarioReport:
            report = ScenarioReport(name, cfg.seed)
            world = _world(cfg, name, users, uavs)
            result = attack(report, world, cfg)
            if result is not None and result.ok:
                report.op_counts = result.op_counts
                report.bit_counts = protocol_bits(result.transcript)
            if world.channel.evicted:
                raise IncompleteTranscript(
                    f"{name}: the channel log evicted {world.channel.evicted} "
                    f"transmissions, so a report cannot show it whole")
            report.transcript = [tr.to_json() for tr in world.channel.log]
            return report

        SCENARIOS[name] = scenario
        return scenario
    return register


def _variants(term: BitString) -> list[BitString]:
    """A secret and, below field width, its lift: a zero-padded derivation leaks too."""
    return [term] if term.width >= 160 else [term, lift(term)]


def _not_derivable(report, knowledge: list[BitString], claims: dict) -> None:
    """Check each claim's named secrets against one closure of ``knowledge``.

    ``claims`` maps a claim to its {label: secret} dict; every claim's
    secrets' variants are declared in a single closure computation. Each
    verdict's ``leaked`` detail marks it as a secrecy claim.
    """
    clo = compute_closure(knowledge, [v for secrets in claims.values()
                                      for term in secrets.values()
                                      for v in _variants(term)])
    for claim, secrets in claims.items():
        leaked = [label for label, term in secrets.items()
                  if any(v in clo for v in _variants(term))]
        report.check(claim, not leaked, leaked=leaked,
                     closure_terms=len(clo.terms), closure_bulk=clo.bulk_count,
                     closure_skipped=clo.skipped_shapes)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

@_scenario()
def stolen_card(report: ScenarioReport, world: World, cfg: SimConfig):
    """Card theft with full power-analysis readout of the card contents."""
    with recording() as hashes:
        result = run_aka(world, "alice", "uav-1")
    report.check("honest session completes", result.ok and result.keys_agree)

    user = world.users["alice"]
    card = user.card
    secrets = world.user_secrets["alice"]
    # the key hashes (v3, TID_i, RID_j, N_k, ts3); TID_i hashes (ID_i, lift(N_i))
    tid_i = hashes[result.user_sk][1]
    n_i = BitString(NONCE_BITS, hashes[tid_i][1].value)
    card_terms = [card.a_i, card.b_i, card.c_i, card.tau_i]
    _not_derivable(report, card_terms + [tr.payload for tr in result.transcript], {
        "identity, password, nonce stay hidden": {
            "id_i": user.id_i,
            "pw_i": BitString.from_text(secrets["password"]),
            "n_i": n_i,
        },
        "session key stays hidden": {"sk": result.user_sk},
    })

    # offline guessing: even the right password plus the card yields no
    # verifiable check value without the biometric key; login's check
    # digest b_i hashes (ID_i, TPW_i, sigma_i)
    _, tpw_i, sigma_i = hashes[card.b_i]
    guess = card_terms + [BitString.from_text(secrets["password"]), user.id_i]
    _not_derivable(report, guess, {
        "offline password guess yields no check value": {
            "tpw_i": tpw_i,
            "sigma_i": sigma_i,
        },
    })
    return result


@_scenario()
def privileged_insider(report: ScenarioReport, world: World, cfg: SimConfig):
    """Insider sees the secure registration request."""
    result = run_aka(world, "alice", "uav-1")
    report.check("honest session completes", result.ok and result.keys_agree)

    secrets = world.user_secrets["alice"]
    _not_derivable(report, [tr.payload for tr in world.channel.log], {
        "password stays hidden from insider": {
            "pw_i": BitString.from_text(secrets["password"]),
            "id_i": world.users["alice"].id_i,
        },
        "session key stays hidden from insider": {"sk": result.user_sk},
    })
    return result


#: Random forgeries tried per message in ``impersonation``.
ATTEMPTS = 48
#: Garbage requests sent to the gateway in ``dos``.
FLOOD = 10_000


@_scenario()
def impersonation(report: ScenarioReport, world: World, cfg: SimConfig):
    """Forged messages from transcript knowledge are always rejected."""
    rng = random.Random(f"{cfg.seed}:impersonation:forge")
    honest = run_aka(world, "alice", "uav-1")
    report.check("honest session completes", honest.ok)
    msg1 = decode(Msg1, honest.transcript[0].payload)
    msg2 = decode(Msg2, honest.transcript[1].payload)
    msg3 = decode(Msg3, honest.transcript[2].payload)

    accepted = {"MSG1": 0, "MSG2": 0, "MSG3": 0}

    def deliver(forged1: Msg1, forged2: Msg2) -> None:
        for msg, receive in ((forged1, world.gateway.relay_auth),
                             (forged2, world.uavs["uav-1"].aka_respond)):
            try:
                receive(msg, world.clock, world.rng)
                accepted[msg.KIND] += 1
            except ProtocolError:
                pass

    for _ in range(ATTEMPTS):
        world.clock.advance(1)
        now = ts_bits(world.clock.now)
        # random forgeries with a fresh, valid timestamp
        deliver(Msg1(*(BitString.random(160, rng) for _ in range(4)), ts1=now),
                Msg2(*(BitString.random(160, rng) for _ in range(4)), ts2=now))

    # structured best effort: observed fields with a fresh timestamp
    world.clock.advance(1)
    now = ts_bits(world.clock.now)
    deliver(Msg1(msg1.mac1, msg1.rid_j, msg1.g_i, msg1.f_i_prime, now),
            Msg2(msg2.mac2, msg2.v1, msg2.h_i, msg2.f_i_dprime, now))

    # MSG3 forgeries against a live pending session
    for _ in range(ATTEMPTS):
        world.clock.advance(1)

        def forge3(kind, payload, _rng=rng):
            if kind != "MSG3":
                return payload
            forged = Msg3(v5=BitString.random(160, _rng),
                          v4=BitString.random(160, _rng),
                          ts3=ts_bits(world.clock.now),
                          v2=BitString.random(160, _rng))
            return encode(forged)

        outcome = run_aka(world, "alice", "uav-1", intercept=forge3)
        if outcome.ok:
            accepted["MSG3"] += 1
    # structured MSG3: old confirmation fields under a fresh timestamp
    world.clock.advance(1)

    def restamp3(kind, payload):
        if kind != "MSG3":
            return payload
        return encode(Msg3(msg3.v5, msg3.v4, ts_bits(world.clock.now), msg3.v2))

    outcome = run_aka(world, "alice", "uav-1", intercept=restamp3)
    if outcome.ok:
        accepted["MSG3"] += 1

    report.check("all forgeries rejected",
                 all(n == 0 for n in accepted.values()), accepted=accepted)
    return honest


@_scenario()
def anonymity_untraceability(report: ScenarioReport, world: World, cfg: SimConfig):
    """Transcripts reveal no identity and no linkable request fields."""
    first = run_aka(world, "alice", "uav-1")
    world.clock.advance(cfg.delta_t + 1)
    second = run_aka(world, "alice", "uav-1")
    report.check("both sessions complete",
                 first.ok and second.ok and first.keys_agree and second.keys_agree)

    public = [tr.payload for tr in first.transcript + second.transcript]
    _not_derivable(report, public, {
        "identity stays hidden": {"id_i": world.users["alice"].id_i},
        "session keys stay hidden": {
            "sk_first": first.user_sk, "sk_second": second.user_sk,
        },
    })

    a = decode(Msg1, first.transcript[0].payload)
    b = decode(Msg1, second.transcript[0].payload)
    identical = [f.name for f in fields(Msg1)
                 if getattr(a, f.name) == getattr(b, f.name)]
    report.check("no request field repeats across sessions",
                 not identical, identical_fields=identical)
    return second


@_scenario(users=("alice", "bob"), uavs=("uav-1", "uav-2"))
def uav_capture(report: ScenarioReport, world: World, cfg: SimConfig):
    """Physical capture of one UAV leaves sessions and peers intact."""
    result = run_aka(world, "alice", "uav-1")
    report.check("honest session completes", result.ok and result.keys_agree)

    memory = world.uavs["uav-1"].capture_memory()
    report.check("memory image is exactly the stored triple",
                 sorted(memory) == ["c_j", "id_j", "tc_id_j"])
    # note: the capture does reveal this session's challenge response
    # (r_j = f_i'' xor rid_j xor id_j once id_j is known); the protocol's
    # claim is only that the session key and other pairs stay safe
    knowledge = list(memory.values()) + [tr.payload for tr in result.transcript]
    _not_derivable(report, knowledge, {
        "session key stays hidden after capture": {"sk": result.user_sk},
    })

    world.clock.advance(cfg.delta_t + 1)
    other = run_aka(world, "bob", "uav-2")
    world.clock.advance(cfg.delta_t + 1)
    same_user = run_aka(world, "alice", "uav-2")
    report.check("uncompromised pairs still agree on keys",
                 other.ok and other.keys_agree
                 and same_user.ok and same_user.keys_agree)
    return result


@_scenario()
def mutual_auth(report: ScenarioReport, world: World, cfg: SimConfig):
    """All verification checks pass and both sides derive the same key."""
    result = run_aka(world, "alice", "uav-1")
    report.check("credential, relay and responder checks pass",
                 all(result.checks.values()), checks=result.checks)
    report.check("session keys agree", result.ok and result.keys_agree,
                 fingerprint=None if result.user_sk is None
                 else sha1_digest(result.user_sk).hex())
    bits = protocol_bits(result.transcript)
    report.check("measured message bits", bits == {
        "MSG1": 672, "MSG2": 672, "MSG3": 512, "total": 1856, "message_count": 3,
    }, measured=bits)
    return result


@_scenario()
def replay(report: ScenarioReport, world: World, cfg: SimConfig):
    """Replays bounce off the MAC cache in-window and freshness out-of-window."""
    user, gwn, uav = world.users["alice"], world.gateway, world.uavs["uav-1"]
    secrets = world.user_secrets["alice"]

    ctx = user.login(secrets["password"], secrets["bio"])
    msg1 = user.aka_initiate(ctx, "uav-1", world.clock)
    tr1 = world.channel.send("alice", gwn.identity, msg1)
    msg2 = gwn.relay_auth(decode(Msg1, tr1.payload), world.clock, world.rng)
    tr2 = world.channel.send(gwn.identity, "uav-1", msg2)
    report.check("original messages accepted", True)

    def replayed(tr, cls, receive, when: str, expected: type) -> None:
        """Replay ``tr`` into ``receive``; the claim holds if it raises ``expected``."""
        claim = f"{tr.kind} {when} rejected"
        copy = world.channel.replay(tr)
        try:
            receive(decode(cls, copy.payload), world.clock, world.rng)
        except ProtocolError as exc:
            report.check(claim, isinstance(exc, expected), rejection=type(exc).__name__)
        else:
            report.check(claim, False, rejection="accepted")

    replayed(tr1, Msg1, gwn.relay_auth, "within window", ReplayDetected)
    uav.aka_respond(decode(Msg2, tr2.payload), world.clock, world.rng)
    replayed(tr2, Msg2, uav.aka_respond, "within window", ReplayDetected)
    world.clock.advance(cfg.delta_t + 1)
    replayed(tr1, Msg1, gwn.relay_auth, "after window", StaleTimestamp)
    replayed(tr2, Msg2, uav.aka_respond, "after window", StaleTimestamp)


@_scenario()
def mitm(report: ScenarioReport, world: World, cfg: SimConfig):
    """Per-field substitutions never end with both sides agreeing on a key."""
    rng = random.Random(f"{cfg.seed}:mitm:fields")
    reference = run_aka(world, "alice", "uav-1")
    report.check("honest session completes", reference.ok)
    observed = {tr.kind: tr.payload for tr in reference.transcript}

    undetected = []
    skipped = []
    for cls in (Msg1, Msg2, Msg3):
        kind = cls.KIND
        for name, width in zip((f.name for f in fields(cls)), cls.WIDTHS):
            for substitute in ("random", "cross-session"):
                world.clock.advance(cfg.delta_t + 1)
                modified = []

                def attack(k, payload, _kind=kind, _cls=cls, _name=name, _width=width,
                           _mode=substitute, _modified=modified):
                    if k != _kind:
                        return payload
                    msg = decode(_cls, payload)
                    if _mode == "random":
                        value = BitString.random(_width, rng)
                    else:
                        value = getattr(decode(_cls, observed[_kind]), _name)
                    forged = replace(msg, **{_name: value})
                    if forged == msg:
                        # stable field, same value: not a modification
                        return payload
                    _modified.append(_name)
                    return encode(forged)

                outcome = run_aka(world, "alice", "uav-1", intercept=attack)
                if not modified:
                    skipped.append(f"{kind}.{name}:{substitute}")
                elif outcome.ok and outcome.keys_agree:
                    undetected.append(f"{kind}.{name}:{substitute}")
    report.check("no substitution yields agreeing keys", not undetected,
                 undetected=undetected, no_op_substitutions=skipped)
    return reference


POSITIVE_CONTROL = "engine positive control derives the key"


@_scenario()
def esl(report: ScenarioReport, world: World, cfg: SimConfig):
    """Leaked per-session randoms never surrender a session key."""
    with recording() as hashes:
        session_a = run_aka(world, "alice", "uav-1")
        world.clock.advance(cfg.delta_t + 1)
        session_b = run_aka(world, "alice", "uav-1")
    report.check("both sessions complete", session_a.ok and session_b.ok)

    pub_a = [tr.payload for tr in session_a.transcript]
    pub_b = [tr.payload for tr in session_b.transcript]
    # each key hashes (v3, TID_i, RID_j, N_k, ts3), N_k lifted
    v3, tid_i, rid_j, n_k_a, _ = hashes[session_a.user_sk]
    n_k_b = hashes[session_b.user_sk][3]
    n_j = lift(world.gateway.registry["uav-1"].n_j)

    _not_derivable(report, pub_a + [n_k_a], {
        "key safe despite responder nonce leak": {"sk": session_a.user_sk},
    })
    _not_derivable(report, pub_a + [n_j], {
        "key safe despite registry nonce leak": {"sk": session_a.user_sk},
    })
    opened = pub_a + pub_b + [n_j, n_k_b, session_b.user_sk]
    _not_derivable(report, opened, {
        "one session fully opened, other keys stay safe": {
            "sk_other": session_a.user_sk,
        },
    })

    # positive control: with the key-derivation inputs the engine does
    # reconstruct the key, so the negative verdicts are not vacuous
    control = compute_closure(pub_a + [n_k_a, tid_i, rid_j, v3], [session_a.user_sk])
    report.check(POSITIVE_CONTROL, session_a.user_sk in control,
                 derivation=control.derivation(session_a.user_sk))
    return session_a


@_scenario()
def dos(report: ScenarioReport, world: World, cfg: SimConfig):
    """Garbage floods are rejected cheaply and emit nothing."""
    rng = random.Random(f"{cfg.seed}:dos:flood")
    gwn = world.gateway
    gwn.ops.reset()
    emitted = 0
    max_hashes = 0
    for i in range(FLOOD):
        payload = BitString.random(672, rng)
        if i % 2 == 0:
            # give half the flood a fresh timestamp so the MAC path runs
            payload = encode(Msg1(*(payload.slice(k * 160, (k + 1) * 160)
                                    for k in range(4)),
                                  ts1=ts_bits(world.clock.now)))
        before = gwn.ops.hash_count
        try:
            gwn.relay_auth(decode(Msg1, payload), world.clock, world.rng)
            emitted += 1
        except ProtocolError:
            pass
        max_hashes = max(max_hashes, gwn.ops.hash_count - before)
    report.check("no relay message emitted", emitted == 0, emitted=emitted)
    report.check("per-message work bounded", max_hashes <= 3,
                 max_hashes_per_message=max_hashes, flood=FLOOD)


@_scenario()
def side_channel(report: ScenarioReport, world: World, cfg: SimConfig):
    """Physical readout exposes no response material: the PUF is not memory."""
    result = run_aka(world, "alice", "uav-1")
    report.check("honest session completes", result.ok)

    memory = world.uavs["uav-1"].capture_memory()
    report.check("readout holds no device seed and no response",
                 sorted(memory) == ["c_j", "id_j", "tc_id_j"])
    rec = world.gateway.registry["uav-1"]
    readout = list(memory.values())
    _not_derivable(report, readout, {
        "response not derivable from readout": {"r_j": rec.r_j},
    })
    _not_derivable(report, readout + [tr.payload for tr in result.transcript], {
        "session key stays hidden": {"sk": result.user_sk},
    })
    return result


@_scenario(uavs=("uav-1", "uav-2"))
def crp_leakage(report: ScenarioReport, world: World, cfg: SimConfig):
    """The challenge response never crosses the public channel."""
    results = []
    for uav_id in ("uav-1", "uav-2"):
        results.append(run_aka(world, "alice", uav_id))
        world.clock.advance(cfg.delta_t + 1)
    report.check("honest sessions complete", all(r.ok for r in results))

    public = world.channel.public_payloads()
    leaks = []
    for uav_id in ("uav-1", "uav-2"):
        r_j = world.gateway.registry[uav_id].r_j
        if any(payload.contains(r_j) for payload in public):
            leaks.append(uav_id)
    report.check("response appears in no public payload", not leaks,
                 leaking_uavs=leaks, payloads_scanned=len(public))

    _not_derivable(report, public, {
        "session key stays hidden": {"sk": results[0].user_sk},
    })
    return results[0]


#: Feature coverage: the twelve scenario verdicts plus the two lifecycle
#: integrations, in the order the comparison matrix reports them.
FEATURES = [(f"FSF_{i}", name) for i, name in enumerate(
    [*SCENARIOS, "lifecycle_update_replace", "dynamic_addition"], start=1)]


def run_scenario(name: str, cfg: SimConfig | None = None) -> ScenarioReport:
    cfg = cfg or SimConfig()
    fn = SCENARIOS.get(name)
    if fn is None:
        raise UnknownScenario(f"{name!r} not in catalog: {', '.join(SCENARIOS)}")
    return fn(cfg)


# ---------------------------------------------------------------------------
# lifecycle integrations (feature rows 13 and 14)
# ---------------------------------------------------------------------------

def run_lifecycle_update(cfg: SimConfig) -> dict:
    """Password/biometric update, then a full session with the new card."""
    world = _world(cfg, "lifecycle_update")
    user = world.users["alice"]
    secrets = world.user_secrets["alice"]
    new_bio = BitString.random(BIO_BITS, world.rng)
    user.update_credentials(secrets["password"], secrets["bio"],
                            "updated-passphrase", new_bio, world.rng)
    old_rejected = False
    try:
        user.login(secrets["password"], secrets["bio"])
    except ProtocolError:
        old_rejected = True
    secrets.update(password="updated-passphrase", bio=new_bio)
    result = run_aka(world, "alice", "uav-1")
    return {"old_password_rejected": old_rejected,
            "aka_after_update": result.ok and result.keys_agree,
            "passed": old_rejected and result.ok and result.keys_agree}


def run_lifecycle_replacement(cfg: SimConfig) -> dict:
    """Card replacement, replayed-pseudonym rejection, and a fresh session."""
    world = _world(cfg, "lifecycle_replacement")
    original = next(tr for tr in world.channel.log if tr.kind == UserRegRequest.KIND)
    enroll_user(world, "alice", "replacement-pw")

    old_refused = False
    try:
        world.gateway.register_user(decode(UserRegRequest, original.payload))
    except DuplicateRegistration:
        old_refused = True

    result = run_aka(world, "alice", "uav-1")
    return {"old_tid_refused": old_refused,
            "aka_after_replacement": result.ok and result.keys_agree,
            "passed": old_refused and result.ok and result.keys_agree}


def run_dynamic_addition(cfg: SimConfig) -> dict:
    """Late UAV enrollment with broadcast, then a session with it."""
    world = _world(cfg, "dynamic_addition", uavs=("uav-1",))
    before = len(world.gateway.registry)
    enroll_uav(world, "uav-late", announce=True)
    announced = "uav-late" in world.users["alice"].known_uavs
    result = run_aka(world, "alice", "uav-late")
    return {"announced": announced,
            "registry_grew_by_one": len(world.gateway.registry) == before + 1,
            "aka_with_new_uav": result.ok and result.keys_agree,
            "passed": announced and result.ok and result.keys_agree
            and len(world.gateway.registry) == before + 1}


def feature_matrix(cfg: SimConfig | None = None) -> dict:
    """One verdict per feature row, computed from fresh runs."""
    cfg = cfg or SimConfig()
    rows = {}
    for feature, name in FEATURES:
        if name in SCENARIOS:
            rows[feature] = {"source": name, "passed": run_scenario(name, cfg).passed}
        elif name == "lifecycle_update_replace":
            update = run_lifecycle_update(cfg)
            replacement = run_lifecycle_replacement(cfg)
            rows[feature] = {"source": name,
                             "passed": update["passed"] and replacement["passed"]}
        else:
            rows[feature] = {"source": name,
                             "passed": run_dynamic_addition(cfg)["passed"]}
    return rows

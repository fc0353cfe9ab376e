"""Attack scenario catalog.

Each scenario builds a fresh deployment, runs a scripted attack against
it, evaluates its security claim, and returns a report. Claims about
derivability are decided by the bounded knowledge-closure engine; claims
about protocol behavior (forgeries, replays, floods) are decided by
actually attempting the attack against the real state machines.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .bits import BitString
from .closure import Closure, compute_closure
from .crypto import fe_rep, hash_parts, lift
from .errors import (DuplicateRegistration, ProtocolError, ReplayDetected,
                     StaleTimestamp, UnknownScenario)
from .simnet import SimConfig, World, build_world, enroll_user, enroll_uav, run_aka
from .wire import (Msg1, Msg2, Msg3, UserRegRequest, decode, decode_msg1,
                   encode, protocol_bits, ts_bits)


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


def _finish(report: ScenarioReport, world: World, result=None) -> ScenarioReport:
    if result is not None and result.ok:
        report.op_counts = result.op_counts
        report.bit_counts = protocol_bits(result.transcript)
    report.transcript = [tr.to_json() for tr in world.channel.log]
    return report


def _variants(term: BitString) -> list[BitString]:
    """A secret and, below field width, its lift: a zero-padded derivation leaks too."""
    return [term] if term.width >= 160 else [term, lift(term)]


def _closure(cfg: SimConfig, knowledge: list[BitString],
             secrets: list[BitString]) -> Closure:
    """Closure of ``knowledge`` that answers for each secret's variants."""
    targets = [v for term in secrets for v in _variants(term)]
    return compute_closure(knowledge, targets, depth=cfg.closure_depth,
                           budget=cfg.closure_budget)


def _not_derivable(report, cfg: SimConfig, knowledge: list[BitString],
                   claims: dict) -> None:
    """Check each claim's named secrets against one closure of ``knowledge``.

    ``claims`` maps a claim to its {label: secret} dict; every claim's
    secrets are declared in a single closure computation.
    """
    clo = _closure(cfg, knowledge, [term for secrets in claims.values()
                                    for term in secrets.values()])
    for claim, secrets in claims.items():
        leaked = [label for label, term in secrets.items()
                  if any(v in clo for v in _variants(term))]
        report.check(claim, not leaked, leaked=leaked,
                     closure_terms=len(clo.terms), closure_bulk=clo.bulk_count,
                     closure_skipped=clo.skipped_shapes)


def _session_ephemerals(world: World, user_id: str, uav_id: str, result) -> dict:
    """Harness-side reconstruction of one session's internal values."""
    n_i = world.user_secrets[user_id]["n_i"]
    user = world.users[user_id]
    tid_i = hash_parts(user.id_i, lift(n_i))
    msg1 = decode_msg1(result.transcript[0].payload)
    msg3 = decode(Msg3, result.transcript[2].payload)
    n_k = msg3.v5 ^ hash_parts(tid_i, msg1.rid_j, msg3.ts3)
    rec = world.gateway.registry[uav_id]
    tid_j = hash_parts(world.uavs[uav_id].id_j, lift(rec.n_j))
    v3 = hash_parts(tid_j, rec.tc_id_j)
    return {"tid_i": tid_i, "rid_j": msg1.rid_j, "ts3": msg3.ts3,
            "n_k": n_k, "n_j": rec.n_j, "v3": v3}


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def stolen_card(cfg: SimConfig) -> ScenarioReport:
    """Card theft with full power-analysis readout of the card contents."""
    report = ScenarioReport("stolen_card", cfg.seed)
    world = _world(cfg, "stolen_card")
    result = run_aka(world, "alice", "uav-1")
    report.check("honest session completes", result.ok and result.keys_agree)

    user = world.users["alice"]
    card = user.card
    secrets = world.user_secrets["alice"]
    card_terms = [card.a_i, card.b_i, card.c_i, card.tau_i]
    _not_derivable(report, cfg, card_terms + [tr.payload for tr in result.transcript], {
        "identity, password, nonce stay hidden": {
            "id_i": user.id_i,
            "pw_i": BitString.from_text(secrets["password"]),
            "n_i": secrets["n_i"],
        },
        "session key stays hidden": {"sk": result.user_sk},
    })

    # offline guessing: even the right password plus the card yields no
    # verifiable check value without the biometric key
    sigma_i = fe_rep(secrets["bio"], card.tau_i, card.fe_params)
    guess = card_terms + [BitString.from_text(secrets["password"]), user.id_i]
    _not_derivable(report, cfg, guess, {
        "offline password guess yields no check value": {
            "tpw_i": secrets["tpw_i"],
            "sigma_i": sigma_i,
        },
    })
    return _finish(report, world, result)


def privileged_insider(cfg: SimConfig) -> ScenarioReport:
    """Insider sees the secure registration request."""
    report = ScenarioReport("privileged_insider", cfg.seed)
    world = _world(cfg, "privileged_insider")
    result = run_aka(world, "alice", "uav-1")
    report.check("honest session completes", result.ok and result.keys_agree)

    insider = world.adversary(insider=True)
    secrets = world.user_secrets["alice"]
    _not_derivable(report, cfg, insider.observe(), {
        "password stays hidden from insider": {
            "pw_i": BitString.from_text(secrets["password"]),
            "id_i": world.users["alice"].id_i,
        },
        "session key stays hidden from insider": {"sk": result.user_sk},
    })
    return _finish(report, world, result)


def impersonation(cfg: SimConfig, attempts: int = 48) -> ScenarioReport:
    """Forged messages from transcript knowledge are always rejected."""
    report = ScenarioReport("impersonation", cfg.seed)
    world = _world(cfg, "impersonation")
    rng = random.Random(f"{cfg.seed}:impersonation:forge")
    honest = run_aka(world, "alice", "uav-1")
    report.check("honest session completes", honest.ok)
    msg1 = decode(Msg1, honest.transcript[0].payload)
    msg2 = decode(Msg2, honest.transcript[1].payload)
    msg3 = decode(Msg3, honest.transcript[2].payload)

    accepted = {"MSG1": 0, "MSG2": 0, "MSG3": 0}
    for _ in range(attempts):
        world.clock.advance(1)
        now = ts_bits(world.clock.now)
        # random forgeries with a fresh, valid timestamp
        forged1 = Msg1(*(BitString.random(160, rng) for _ in range(4)), ts1=now)
        forged2 = Msg2(*(BitString.random(160, rng) for _ in range(4)), ts2=now)
        try:
            world.gateway.relay_auth(forged1, world.clock, world.rng)
            accepted["MSG1"] += 1
        except ProtocolError:
            pass
        try:
            world.uavs["uav-1"].aka_respond(forged2, world.clock, world.rng)
            accepted["MSG2"] += 1
        except ProtocolError:
            pass

    # structured best effort: observed fields with a fresh timestamp
    world.clock.advance(1)
    now = ts_bits(world.clock.now)
    try:
        world.gateway.relay_auth(
            Msg1(msg1.mac1, msg1.rid_j, msg1.g_i, msg1.f_i_prime, now),
            world.clock, world.rng)
        accepted["MSG1"] += 1
    except ProtocolError:
        pass
    try:
        world.uavs["uav-1"].aka_respond(
            Msg2(msg2.mac2, msg2.v1, msg2.h_i, msg2.f_i_dprime, now),
            world.clock, world.rng)
        accepted["MSG2"] += 1
    except ProtocolError:
        pass

    # MSG3 forgeries against a live pending session
    for i in range(attempts):
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
    return _finish(report, world, honest)


def anonymity_untraceability(cfg: SimConfig) -> ScenarioReport:
    """Transcripts reveal no identity and no linkable request fields."""
    report = ScenarioReport("anonymity_untraceability", cfg.seed)
    world = _world(cfg, "anonymity_untraceability")
    first = run_aka(world, "alice", "uav-1")
    world.clock.advance(cfg.delta_t + 1)
    second = run_aka(world, "alice", "uav-1")
    report.check("both sessions complete",
                 first.ok and second.ok and first.keys_agree and second.keys_agree)

    public = [tr.payload for tr in first.transcript + second.transcript]
    _not_derivable(report, cfg, public, {
        "identity stays hidden": {"id_i": world.users["alice"].id_i},
        "session keys stay hidden": {
            "sk_first": first.user_sk, "sk_second": second.user_sk,
        },
    })

    a = decode(Msg1, first.transcript[0].payload)
    b = decode(Msg1, second.transcript[0].payload)
    identical = [name for name in ("mac1", "rid_j", "g_i", "f_i_prime", "ts1")
                 if getattr(a, name) == getattr(b, name)]
    report.check("no request field repeats across sessions",
                 not identical, identical_fields=identical)
    return _finish(report, world, second)


def uav_capture(cfg: SimConfig) -> ScenarioReport:
    """Physical capture of one UAV leaves sessions and peers intact."""
    report = ScenarioReport("uav_capture", cfg.seed)
    world = _world(cfg, "uav_capture", users=("alice", "bob"),
                   uavs=("uav-1", "uav-2"))
    result = run_aka(world, "alice", "uav-1")
    report.check("honest session completes", result.ok and result.keys_agree)

    memory = world.uavs["uav-1"].capture_memory()
    report.check("memory image is exactly the stored triple",
                 sorted(memory) == ["c_j", "id_j", "tc_id_j"])
    # note: the capture does reveal this session's challenge response
    # (r_j = f_i'' xor rid_j xor id_j once id_j is known); the protocol's
    # claim is only that the session key and other pairs stay safe
    knowledge = list(memory.values()) + [tr.payload for tr in result.transcript]
    _not_derivable(report, cfg, knowledge, {
        "session key stays hidden after capture": {"sk": result.user_sk},
    })

    world.clock.advance(cfg.delta_t + 1)
    other = run_aka(world, "bob", "uav-2")
    world.clock.advance(cfg.delta_t + 1)
    same_user = run_aka(world, "alice", "uav-2")
    report.check("uncompromised pairs still agree on keys",
                 other.ok and other.keys_agree
                 and same_user.ok and same_user.keys_agree)
    return _finish(report, world, result)


def mutual_auth(cfg: SimConfig) -> ScenarioReport:
    """All verification checks pass and both sides derive the same key."""
    report = ScenarioReport("mutual_auth", cfg.seed)
    world = _world(cfg, "mutual_auth")
    result = run_aka(world, "alice", "uav-1")
    report.check("credential, relay and responder checks pass",
                 all(result.checks.values()), checks=result.checks)
    report.check("session keys agree", result.ok and result.keys_agree,
                 fingerprint=None if result.user_sk is None
                 else hash_parts(result.user_sk).hex())
    bits = protocol_bits(result.transcript)
    report.check("measured message bits", bits == {
        "MSG1": 672, "MSG2": 672, "MSG3": 512, "total": 1856, "message_count": 3,
    }, measured=bits)
    return _finish(report, world, result)


def replay(cfg: SimConfig) -> ScenarioReport:
    """Replays bounce off the MAC cache in-window and freshness out-of-window."""
    report = ScenarioReport("replay", cfg.seed)
    world = _world(cfg, "replay")
    adversary = world.adversary()
    user, gwn, uav = world.users["alice"], world.gateway, world.uavs["uav-1"]
    secrets = world.user_secrets["alice"]

    ctx = user.login(secrets["password"], secrets["bio"])
    msg1 = user.aka_initiate(ctx, "uav-1", world.clock)
    tr1 = world.channel.send("alice", gwn.identity, "MSG1", encode(msg1))
    msg2 = gwn.relay_auth(decode(Msg1, tr1.payload), world.clock, world.rng)
    tr2 = world.channel.send(gwn.identity, "uav-1", "MSG2", encode(msg2))
    report.check("original messages accepted", True)

    outcomes = {}
    copy1 = adversary.replay(tr1)
    outcomes["MSG1 within window"] = _expect(
        lambda: gwn.relay_auth(decode(Msg1, copy1.payload), world.clock, world.rng),
        ReplayDetected)
    msg3, _ = uav.aka_respond(decode(Msg2, tr2.payload), world.clock, world.rng)
    copy2 = adversary.replay(tr2)
    outcomes["MSG2 within window"] = _expect(
        lambda: uav.aka_respond(decode(Msg2, copy2.payload), world.clock, world.rng),
        ReplayDetected)

    world.clock.advance(cfg.delta_t + 1)
    late1 = adversary.replay(tr1)
    outcomes["MSG1 after window"] = _expect(
        lambda: gwn.relay_auth(decode(Msg1, late1.payload), world.clock, world.rng),
        StaleTimestamp)
    late2 = adversary.replay(tr2)
    outcomes["MSG2 after window"] = _expect(
        lambda: uav.aka_respond(decode(Msg2, late2.payload), world.clock, world.rng),
        StaleTimestamp)

    for claim, outcome in outcomes.items():
        report.check(f"{claim} rejected", outcome[0], rejection=outcome[1])
    return _finish(report, world)


def _expect(action, exc_type) -> tuple[bool, str]:
    try:
        action()
    except exc_type as exc:
        return True, type(exc).__name__
    except ProtocolError as exc:
        return False, type(exc).__name__
    return False, "accepted"


def mitm(cfg: SimConfig) -> ScenarioReport:
    """Per-field substitutions never end with both sides agreeing on a key."""
    report = ScenarioReport("mitm", cfg.seed)
    world = _world(cfg, "mitm")
    rng = random.Random(f"{cfg.seed}:mitm:fields")
    reference = run_aka(world, "alice", "uav-1")
    report.check("honest session completes", reference.ok)
    observed = {tr.kind: tr.payload for tr in reference.transcript}

    layouts = {
        "MSG1": (Msg1, ("mac1", "rid_j", "g_i", "f_i_prime", "ts1")),
        "MSG2": (Msg2, ("mac2", "v1", "h_i", "f_i_dprime", "ts2")),
        "MSG3": (Msg3, ("v5", "v4", "ts3", "v2")),
    }
    undetected = []
    skipped = []
    for kind, (cls, names) in layouts.items():
        for name in names:
            for substitute in ("random", "cross-session"):
                world.clock.advance(cfg.delta_t + 1)
                modified = []

                def attack(k, payload, _kind=kind, _cls=cls, _name=name,
                           _mode=substitute, _modified=modified):
                    if k != _kind:
                        return payload
                    msg = decode(_cls, payload)
                    width = getattr(msg, _name).width
                    if _mode == "random":
                        value = BitString.random(width, rng)
                    else:
                        value = getattr(decode(_cls, observed[_kind]), _name)
                    if value == getattr(msg, _name):
                        # stable field, same value: not a modification
                        return payload
                    _modified.append(_name)
                    return encode(type(msg)(**{**msg.__dict__, _name: value}))

                outcome = run_aka(world, "alice", "uav-1", intercept=attack)
                if not modified:
                    skipped.append(f"{kind}.{name}:{substitute}")
                elif outcome.ok and outcome.keys_agree:
                    undetected.append(f"{kind}.{name}:{substitute}")
    report.check("no substitution yields agreeing keys", not undetected,
                 undetected=undetected, no_op_substitutions=skipped)
    return _finish(report, world, reference)


def esl(cfg: SimConfig) -> ScenarioReport:
    """Leaked per-session randoms never surrender a session key."""
    report = ScenarioReport("esl", cfg.seed)
    world = _world(cfg, "esl")
    session_a = run_aka(world, "alice", "uav-1")
    world.clock.advance(cfg.delta_t + 1)
    session_b = run_aka(world, "alice", "uav-1")
    report.check("both sessions complete", session_a.ok and session_b.ok)

    pub_a = [tr.payload for tr in session_a.transcript]
    pub_b = [tr.payload for tr in session_b.transcript]
    terms_a = _session_ephemerals(world, "alice", "uav-1", session_a)
    terms_b = _session_ephemerals(world, "alice", "uav-1", session_b)

    _not_derivable(report, cfg, pub_a + [terms_a["n_k"]], {
        "key safe despite responder nonce leak": {"sk": session_a.user_sk},
    })
    _not_derivable(report, cfg, pub_a + [lift(terms_a["n_j"])], {
        "key safe despite registry nonce leak": {"sk": session_a.user_sk},
    })
    opened = pub_a + pub_b + [lift(terms_b["n_j"]), terms_b["n_k"], session_b.user_sk]
    _not_derivable(report, cfg, opened, {
        "one session fully opened, other keys stay safe": {
            "sk_other": session_a.user_sk,
        },
    })

    # positive control: with the key-derivation inputs the engine does
    # reconstruct the key, so the negative verdicts are not vacuous
    control = _closure(cfg, pub_a + [terms_a["n_k"], terms_a["tid_i"],
                                     terms_a["rid_j"], terms_a["v3"]],
                       [session_a.user_sk])
    report.check("engine positive control derives the key",
                 session_a.user_sk in control,
                 derivation=control.derivation(session_a.user_sk))
    return _finish(report, world, session_a)


def dos(cfg: SimConfig, flood: int = 10_000) -> ScenarioReport:
    """Garbage floods are rejected cheaply and emit nothing."""
    report = ScenarioReport("dos", cfg.seed)
    world = _world(cfg, "dos")
    rng = random.Random(f"{cfg.seed}:dos:flood")
    gwn = world.gateway
    gwn.ops.reset()
    emitted = 0
    max_hashes = 0
    for i in range(flood):
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
                 max_hashes_per_message=max_hashes, flood=flood)
    return _finish(report, world)


def side_channel(cfg: SimConfig) -> ScenarioReport:
    """Physical readout exposes no response material: the PUF is not memory."""
    report = ScenarioReport("side_channel", cfg.seed)
    world = _world(cfg, "side_channel")
    result = run_aka(world, "alice", "uav-1")
    report.check("honest session completes", result.ok)

    memory = world.uavs["uav-1"].capture_memory()
    report.check("readout holds no device seed and no response",
                 sorted(memory) == ["c_j", "id_j", "tc_id_j"])
    rec = world.gateway.registry["uav-1"]
    readout = list(memory.values())
    _not_derivable(report, cfg, readout, {
        "response not derivable from readout": {"r_j": rec.r_j},
    })
    _not_derivable(report, cfg, readout + [tr.payload for tr in result.transcript], {
        "session key stays hidden": {"sk": result.user_sk},
    })
    return _finish(report, world, result)


def crp_leakage(cfg: SimConfig) -> ScenarioReport:
    """The challenge response never crosses the public channel."""
    report = ScenarioReport("crp_leakage", cfg.seed)
    world = _world(cfg, "crp_leakage", uavs=("uav-1", "uav-2"))
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

    _not_derivable(report, cfg, public, {
        "session key stays hidden": {"sk": results[0].user_sk},
    })
    return _finish(report, world, results[0])


SCENARIOS = {
    "stolen_card": stolen_card,
    "privileged_insider": privileged_insider,
    "impersonation": impersonation,
    "anonymity_untraceability": anonymity_untraceability,
    "uav_capture": uav_capture,
    "mutual_auth": mutual_auth,
    "replay": replay,
    "mitm": mitm,
    "esl": esl,
    "dos": dos,
    "side_channel": side_channel,
    "crp_leakage": crp_leakage,
}

#: Feature coverage: the twelve scenario verdicts plus the two lifecycle
#: integrations, in the order the comparison matrix reports them.
FEATURES = [
    ("FSF_1", "stolen_card"), ("FSF_2", "privileged_insider"),
    ("FSF_3", "impersonation"), ("FSF_4", "anonymity_untraceability"),
    ("FSF_5", "uav_capture"), ("FSF_6", "mutual_auth"),
    ("FSF_7", "replay"), ("FSF_8", "mitm"), ("FSF_9", "esl"),
    ("FSF_10", "dos"), ("FSF_11", "side_channel"), ("FSF_12", "crp_leakage"),
    ("FSF_13", "lifecycle_update_replace"), ("FSF_14", "dynamic_addition"),
]


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
    new_bio = BitString.random(cfg.fe_params.bio_width, world.rng)
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
    user = world.users["alice"]
    old_tid = world.user_secrets["alice"]["tid_i"]
    old_tpw = world.user_secrets["alice"]["tpw_i"]

    request = user.register_begin("replacement-pw", world.rng)
    n_i = user._reg_nonce
    response = world.gateway.register_user(request)
    bio = BitString.random(cfg.fe_params.bio_width, world.rng)
    user.register_complete(response, bio, world.rng)
    world.user_secrets["alice"].update(password="replacement-pw",
                                       bio=bio, n_i=n_i, tid_i=request.tid_i,
                                       tpw_i=request.tpw_i)

    old_refused = False
    try:
        world.gateway.register_user(UserRegRequest(tid_i=old_tid, tpw_i=old_tpw))
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
            replace = run_lifecycle_replacement(cfg)
            rows[feature] = {"source": name,
                             "passed": update["passed"] and replace["passed"]}
        else:
            rows[feature] = {"source": name,
                             "passed": run_dynamic_addition(cfg)["passed"]}
    return rows

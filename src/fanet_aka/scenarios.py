"""Scenario catalog: the attacks and the credential lifecycle flows.

Each scenario builds a fresh deployment, runs a scripted attack or
lifecycle flow against it, evaluates its claims, and returns a report.
Claims about derivability are decided by the bounded knowledge-closure
engine; claims about protocol behavior (forgeries, replays, floods,
credential changes) are decided by actually running it against the real
state machines.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field as dc_field, fields, replace
from typing import Callable

from .bits import contains, hex_of, text_value
from .closure import compute_closure
from .crypto import DIGEST_BITS, PUF_SEED_BITS, TS_BITS, sha1_value
from .errors import (DuplicateRegistration, IncompleteTranscript, ProtocolError,
                     ReplayDetected, StaleTimestamp, UnknownScenario)
from .metrics import recording
from .simnet import (STAGES, AkaResult, SimConfig, World, build_world, enroll_user,
                     enroll_uav, run_aka, update_credentials)
from .wire import (MESSAGE_TYPES, Msg1, Msg2, UserRegRequest, decode, encode, protocol_bits,
                   ts_bits)


@dataclass
class ScenarioReport:
    scenario: str
    seed: int
    verdicts: list = dc_field(default_factory=list)
    op_counts: dict = dc_field(default_factory=dict)
    bit_counts: dict = dc_field(default_factory=dict)
    transcript: list = dc_field(default_factory=list)

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
#: The scenarios whose secrecy claims the closure engine decides.
CLOSURE_SCENARIOS = ("stolen_card", "privileged_insider", "anonymity_untraceability",
                     "uav_capture", "esl", "side_channel", "crp_leakage")


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


#: Each message kind's record, to decode what the adversary saw.
_RECORDS = {cls.KIND: cls for cls in MESSAGE_TYPES}


def _observed(transmissions) -> tuple[list[int], list[int]]:
    """The 160-bit fields and the 32-bit timestamps of ``transmissions``.

    Each payload is decoded with its kind's record: the adversary projects
    a message into its parts (Dolev & Yao), and the closure takes the parts.
    """
    parts = {DIGEST_BITS: [], TS_BITS: []}
    for tr in transmissions:
        msg = decode(_RECORDS[tr.kind], tr.payload)
        for f, width in zip(fields(msg), msg.WIDTHS):
            parts[width].append(getattr(msg, f.name))
    return parts[DIGEST_BITS], parts[TS_BITS]


def _not_derivable(report, seen, held: list[int], claims: dict) -> None:
    """Check each claim's named secrets against one closure of the fields
    of the transmissions ``seen`` and the 160-bit field ``int``s ``held``.

    ``claims`` maps a claim to its {label: secret} dict, each secret the
    ``int`` of its 160-bit field; every claim's secrets are declared in a
    single closure computation. Each verdict's ``leaked`` detail marks it
    as a secrecy claim.
    """
    observed, stamps = _observed(seen)
    clo = compute_closure(observed + held, stamps,
                          [value for secrets in claims.values() for value in secrets.values()])
    for claim, secrets in claims.items():
        leaked = [label for label, value in secrets.items() if value in clo]
        report.check(claim, not leaked, leaked=leaked,
                     closure_terms=len(clo.terms), closure_bulk=clo.bulk_count,
                     closure_skipped=clo.skipped_shapes)


def _stored_triple(world: World, uav_id: str, memory: dict) -> bool:
    """True if ``memory`` is exactly what enrolling ``uav_id`` stored: the
    gateway's registered challenge and certificate, and the name's field."""
    rec = world.gateway.registry[uav_id]
    return memory == {"c_j": rec.c_j, "id_j": text_value(uav_id), "tc_id_j": rec.tc_id_j}


def _raises(expected: type, call, *args) -> bool:
    """True if ``call(*args)`` raises ``expected``."""
    try:
        call(*args)
    except expected:
        return True
    return False


def _swapped(world: World, kind: str, forge) -> AkaResult:
    """Run alice's session with uav-1 through the channel, which delivers
    its ``kind`` message as ``forge(the sender's record)``; the log shows
    the forgery beside the sent bits."""
    def swap(k: str, payload):
        return encode(forge(decode(_RECORDS[k], payload))) if k == kind else payload
    return run_aka(world, "alice", "uav-1", intercept=swap)


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
    # the key hashes (v3, TID_i, RID_j, N_k) and ts3; TID_i hashes (ID_i, N_i)
    tid_i = hashes[result.user_sk][0][1]
    n_i = hashes[tid_i][0][1]
    card_terms = [card.a_i, card.b_i, card.c_i, card.tau_i]
    pw_i = text_value(secrets["password"])
    _not_derivable(report, result.transcript, card_terms, {
        "identity, password, nonce stay hidden": {
            "id_i": user.id_i,
            "pw_i": pw_i,
            "n_i": n_i,
        },
        "session key stays hidden": {"sk": result.user_sk},
    })

    # offline guessing: even the right password plus the card yields no
    # verifiable check value without the biometric key; login's check
    # digest b_i hashes (ID_i, TPW_i, sigma_i)
    (_, tpw_i, sigma_i), _ = hashes[card.b_i]
    _not_derivable(report, [], card_terms + [pw_i, user.id_i], {
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
    _not_derivable(report, world.channel.log, [], {
        "password stays hidden from insider": {
            "pw_i": text_value(secrets["password"]),
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
    report.check("honest session completes", honest.ok and honest.keys_agree)

    accepted = {}
    for tr in honest.transcript:
        cls = _RECORDS[tr.kind]
        ts = next(f.name for f, width in zip(fields(cls), cls.WIDTHS) if width == TS_BITS)
        # random fields, then the observed ones, each under the sender's fresh timestamp
        forgeries = [cls(*map(rng.getrandbits, cls.WIDTHS)) for _ in range(ATTEMPTS)]
        forgeries.append(decode(cls, tr.payload))
        accepted[tr.kind] = 0
        for msg in forgeries:
            run = _swapped(world, tr.kind, lambda sent: replace(msg, **{ts: getattr(sent, ts)}))
            # accepted: the run got past the stage its forged message ends
            accepted[tr.kind] += STAGES.index(run.stage) > STAGES.index(tr.kind)

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

    _not_derivable(report, first.transcript + second.transcript, [], {
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
                 _stored_triple(world, "uav-1", memory))
    # note: the capture does reveal this session's challenge response
    # (r_j = f_i'' xor rid_j xor id_j once id_j is known); the protocol's
    # claim is only that the session key and other pairs stay safe
    _not_derivable(report, result.transcript, list(memory.values()), {
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


#: The session's message bits, as the paper states them.
SESSION_BITS = {"MSG1": 672, "MSG2": 672, "MSG3": 512, "total": 1856, "message_count": 3}


@_scenario()
def mutual_auth(report: ScenarioReport, world: World, cfg: SimConfig):
    """All verification checks pass and both sides derive the same key."""
    result = run_aka(world, "alice", "uav-1")
    report.check("credential, relay and responder checks pass",
                 all(result.checks.values()), checks=result.checks)
    report.check("session keys agree", result.ok and result.keys_agree,
                 fingerprint=None if result.user_sk is None
                 else hex_of(DIGEST_BITS, sha1_value((result.user_sk,))))
    bits = protocol_bits(result.transcript)
    report.check("measured message bits", bits == SESSION_BITS, measured=bits)
    return result


@_scenario()
def replay(report: ScenarioReport, world: World, cfg: SimConfig):
    """Replays bounce off the MAC cache in-window and freshness out-of-window."""
    # the role steps are called directly, not through run_aka: the in-window
    # replays must reach each receiver before the tick run_aka spends per hop
    user, gwn, uav = world.users["alice"], world.gateway, world.uavs["uav-1"]
    secrets = world.user_secrets["alice"]

    ctx = user.login(secrets["password"], secrets["bio"])
    msg1 = user.aka_initiate(ctx, "uav-1", world.clock)
    tr1 = world.channel.send("alice", gwn.identity, msg1)
    try:
        msg2 = gwn.relay_auth(decode(Msg1, tr1.payload), world.clock, world.rng)
        tr2 = world.channel.send(gwn.identity, "uav-1", msg2)
        uav.aka_respond(decode(Msg2, tr2.payload), world.clock, world.rng)
    except ProtocolError as exc:
        report.check("original messages accepted", False, rejection=type(exc).__name__)
        return
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
    replayed(tr2, Msg2, uav.aka_respond, "within window", ReplayDetected)
    world.clock.advance(cfg.delta_t + 1)
    replayed(tr1, Msg1, gwn.relay_auth, "after window", StaleTimestamp)
    replayed(tr2, Msg2, uav.aka_respond, "after window", StaleTimestamp)


@_scenario()
def mitm(report: ScenarioReport, world: World, cfg: SimConfig):
    """Per-field substitutions never end with both sides agreeing on a key."""
    rng = random.Random(f"{cfg.seed}:mitm:fields")
    reference = run_aka(world, "alice", "uav-1")
    report.check("honest session completes", reference.ok and reference.keys_agree)

    undetected = []
    skipped = []
    for tr in reference.transcript:
        cls = _RECORDS[tr.kind]
        observed = decode(cls, tr.payload)
        for name, width in zip((f.name for f in fields(cls)), cls.WIDTHS):
            for substitute in ("random", "cross-session"):
                world.clock.advance(cfg.delta_t + 1)

                def forge(sent):
                    value = (rng.getrandbits(width) if substitute == "random"
                             else getattr(observed, name))
                    return replace(sent, **{name: value})

                outcome = _swapped(world, tr.kind, forge)
                label = f"{tr.kind}.{name}:{substitute}"
                # a stable field given its own value delivers the sent bits
                if all(t.sent is None for t in outcome.transcript):
                    skipped.append(label)
                elif outcome.ok and outcome.keys_agree:
                    undetected.append(label)
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
    report.check("both sessions complete", session_a.ok and session_b.ok
                 and session_a.keys_agree and session_b.keys_agree)

    pub_a = session_a.transcript
    # each key hashes (v3, TID_i, RID_j, N_k) and ts3
    (v3, tid_i, rid_j, n_k_a), _ = hashes[session_a.user_sk]
    n_k_b = hashes[session_b.user_sk][0][3]
    n_j = world.gateway.registry["uav-1"].n_j

    _not_derivable(report, pub_a, [n_k_a], {
        "key safe despite responder nonce leak": {"sk": session_a.user_sk},
    })
    _not_derivable(report, pub_a, [n_j], {
        "key safe despite registry nonce leak": {"sk": session_a.user_sk},
    })
    opened = [n_j, n_k_b, session_b.user_sk]
    _not_derivable(report, pub_a + session_b.transcript, opened, {
        "one session fully opened, other keys stay safe": {
            "sk_other": session_a.user_sk,
        },
    })

    # positive control: with the key-derivation inputs the engine does
    # reconstruct the key, so the negative verdicts are not vacuous
    sk = session_a.user_sk
    observed, stamps = _observed(pub_a)
    control = compute_closure(observed + [n_k_a, tid_i, rid_j, v3], stamps, [sk])
    report.check(POSITIVE_CONTROL, sk in control, derivation=control.derivation(sk))
    return session_a


@_scenario()
def dos(report: ScenarioReport, world: World, cfg: SimConfig):
    """Garbage floods are rejected cheaply and emit nothing."""
    # the flood goes straight to relay_auth, not through the channel: its
    # log holds LOG_CAPACITY transmissions, and the report shows it whole
    rng = random.Random(f"{cfg.seed}:dos:flood")
    gwn = world.gateway
    emitted = 0
    max_hashes = 0
    for i in range(FLOOD):
        msg1 = Msg1(*map(rng.getrandbits, Msg1.WIDTHS))
        if i % 2 == 0:
            # give half the flood a fresh timestamp so the MAC path runs
            msg1 = replace(msg1, ts1=ts_bits(world.clock.now))
        before = gwn.ops.hash_count
        try:
            gwn.relay_auth(msg1, world.clock, world.rng)
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
    report.check("honest session completes", result.ok and result.keys_agree)

    uav = world.uavs["uav-1"]
    memory = uav.capture_memory()
    rec = world.gateway.registry["uav-1"]
    readout = list(memory.values())
    report.check("readout holds no device seed and no response",
                 _stored_triple(world, "uav-1", memory)
                 and rec.r_j not in readout
                 and not any(contains(PUF_SEED_BITS, uav._puf.seed, DIGEST_BITS, v)
                             for v in readout))
    _not_derivable(report, [], readout, {
        "response not derivable from readout": {"r_j": rec.r_j},
    })
    _not_derivable(report, result.transcript, readout, {
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
    report.check("honest sessions complete", all(r.ok and r.keys_agree for r in results))

    public = [tr for tr in world.channel.log if not tr.secure]
    leaks = []
    for uav_id in ("uav-1", "uav-2"):
        r_j = world.gateway.registry[uav_id].r_j
        if any(contains(tr.payload.width, tr.payload.value, DIGEST_BITS, r_j)
               for tr in public):
            leaks.append(uav_id)
    report.check("response appears in no public payload", not leaks,
                 leaking_uavs=leaks, payloads_scanned=len(public))

    _not_derivable(report, public, [], {
        "session key stays hidden": {"sk": results[0].user_sk},
    })
    return results[0]


@_scenario()
def lifecycle_update_replace(report: ScenarioReport, world: World, cfg: SimConfig):
    """Password and biometric update, then card replacement, each followed
    by a full session."""
    old = dict(world.user_secrets["alice"])
    update_credentials(world, "alice", "updated-passphrase")
    report.check("old credentials refused after update", _raises(
        ProtocolError, world.users["alice"].login, old["password"], old["bio"]))
    result = run_aka(world, "alice", "uav-1")
    report.check("session completes after update", result.ok and result.keys_agree)

    original = next(tr for tr in world.channel.log if tr.kind == UserRegRequest.KIND)
    enroll_user(world, "alice", "replacement-pw")
    report.check("old pseudonym's registration refused",
                 _raises(DuplicateRegistration, world.gateway.register_user,
                         decode(UserRegRequest, original.payload)))
    result = run_aka(world, "alice", "uav-1")
    report.check("session completes after replacement", result.ok and result.keys_agree)
    return result


@_scenario()
def dynamic_addition(report: ScenarioReport, world: World, cfg: SimConfig):
    """Late UAV enrollment, then a session with it."""
    before = len(world.gateway.registry)
    enroll_uav(world, "uav-late")
    report.check("registry grew by one", len(world.gateway.registry) == before + 1)
    result = run_aka(world, "alice", "uav-late")
    report.check("session completes with the new UAV", result.ok and result.keys_agree)
    return result


#: Feature coverage: one row per catalog scenario, in the order the
#: comparison matrix reports them.
FEATURES = [(f"FSF_{i}", name) for i, name in enumerate(SCENARIOS, start=1)]


def run_scenario(name: str, cfg: SimConfig | None = None) -> ScenarioReport:
    cfg = cfg or SimConfig()
    fn = SCENARIOS.get(name)
    if fn is None:
        raise UnknownScenario(f"{name!r} not in catalog: {', '.join(SCENARIOS)}")
    return fn(cfg)


def feature_matrix(cfg: SimConfig | None = None) -> dict:
    """One verdict per feature row, computed from fresh runs."""
    cfg = cfg or SimConfig()
    return {feature: {"source": name, "passed": run_scenario(name, cfg).passed}
            for feature, name in FEATURES}

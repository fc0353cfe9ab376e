"""The three benchmark workloads and the checks on every operation.

Each workload is one caller in a closed loop: it waits for each result
before it starts the next operation. Operations are timed from outside,
around calls into the package's public functions, and every outcome is
checked after the clock stops.

Work is measured in passes of a fixed size, so a faster program runs more
passes in the same time but each pass, and each world, holds the same
work. Worlds are rebuilt after a fixed number of passes, which keeps the
channel log, and with it the peak RSS, independent of speed.

Every interval is read twice by the clock of ``speed.py``: scaled to a
reference machine speed, and as wall time. A world is built between every
two passes, so that set-up time is sampled across the whole run, not only
at its start.
"""

from __future__ import annotations

import json
import random
from array import array
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from fanet_aka import scenarios, simnet, wire
from fanet_aka.bits import BitString
from fanet_aka.errors import ProtocolError
from fanet_aka.simnet import SimConfig

EXPECTED_COUNTS = {
    "user": {"hash": 11, "puf": 0, "fe": 1},
    "gwn": {"hash": 6, "puf": 0, "fe": 0},
    "uav": {"hash": 8, "puf": 1, "fe": 0},
}
EXPECTED_BITS = {"MSG1": 672, "MSG2": 672, "MSG3": 512, "total": 1856,
                 "message_count": 3}
#: Most hashes a gateway may spend on a request it rejects.
REJECT_HASH_BOUND = 3
#: Where each of the 1856 tamperable bits sits: (message, first bit, width).
TAMPER_LAYOUT = (("MSG1", 0, 672), ("MSG2", 672, 672), ("MSG3", 1344, 512))
TAMPER_BITS = 1856

AUDITED = ("stolen_card", "privileged_insider", "anonymity_untraceability",
           "uav_capture", "esl", "side_channel", "crp_leakage")
VERDICTS = json.loads((Path(__file__).parent / "verdicts.json").read_text())

#: World builds at the start of a run, before those between passes.
SETUP_REPEATS = 5


class Times:
    """Durations of one kind, each scaled to reference speed and as wall time.

    They are packed, so that their memory barely moves peak RSS.
    """

    def __init__(self):
        self.scaled = array("d")
        self.wall = array("d")

    def add(self, times: tuple[float, float], unit: float = 1.0) -> None:
        self.scaled.append(unit * times[0])
        self.wall.append(unit * times[1])


@dataclass
class Run:
    """Everything one workload run measured and checked."""

    session_us: Times = field(default_factory=Times)  # honest run_aka
    reject_us: Times = field(default_factory=Times)   # adversarial calls
    pass_s: Times = field(default_factory=Times)
    setup_s: Times = field(default_factory=Times)
    busy_s: Times = field(default_factory=Times)      # all timed work, in parts
    honest: int = 0
    attempted: int = 0
    outcomes: Counter = field(default_factory=Counter)
    failures: Counter = field(default_factory=Counter)
    honest_counts: Counter = field(default_factory=Counter)  # traced only
    log_len: int = 0
    reject_hashes_max: int = 0   # most hashes a gateway spent on a reject
    notes: set = field(default_factory=set)


class Harness:
    """Runs, times and checks single operations against a world."""

    def __init__(self, run: Run, clock, tracer=None):
        self.run = run
        self.clock = clock
        self.tracer = tracer

    # -- bookkeeping -------------------------------------------------------

    def _begin(self):
        self.run.attempted += 1
        return self.tracer.begin_op() if self.tracer else None

    def _fail(self, label: str) -> None:
        self.run.failures[label] += 1

    def _reject_hashes(self, label: str, spent: int) -> None:
        """Record the hashes a gateway spent on one reject, and bound them."""
        self.run.reject_hashes_max = max(self.run.reject_hashes_max, spent)
        if spent > REJECT_HASH_BOUND:
            self._fail(f"{label}:hashes_over_bound")

    def _intercept(self, fn):
        """The harness's ``run_aka`` intercept, as a span of its own when traced.

        Its time then counts as child time, not as ``simnet.run_aka`` self time.
        """
        return self.tracer.timed("harness.intercept", fn) if self.tracer else fn

    def _crash(self, label: str, exc: Exception) -> None:
        key = f"crash:{label}:{type(exc).__name__}"
        if not self.run.failures[key]:
            traceback.print_exception(exc, file=sys.stderr)
        self._fail(key)

    def build(self, label: str, users, uavs):
        """World build plus enrollment; one set-up sample."""
        if self.tracer:
            self.tracer.begin_op()
        mark = self.clock.mark()
        world = simnet.build_world(SimConfig(), rng=random.Random(label))
        for name in users:
            simnet.enroll_user(world, name, f"{name}-passphrase")
        for name in uavs:
            simnet.enroll_uav(world, name)
        self.run.setup_s.add(self.clock.elapsed(mark))
        return world

    def retire(self, world) -> None:
        self.run.log_len = max(self.run.log_len, len(world.channel.log))

    # -- honest traffic ------------------------------------------------------

    def honest(self, world, user: str, uav: str, timed: bool = True):
        """One honest session; returns the accepted MSG1 payload or None.

        An untimed session is checked and counted but adds no latency sample.
        """
        ops = self._begin()
        world.clock.advance(world.config.delta_t + 1)
        try:
            mark = self.clock.mark()
            result = simnet.run_aka(world, user, uav)
            elapsed = self.clock.elapsed(mark)
        except Exception as exc:  # a crash is a wrong outcome, not the end
            self._crash("honest", exc)
            return None
        if not (result.ok and result.keys_agree and all(result.checks.values())):
            self._fail(f"honest:{result.stage}:{result.error}")
            return None
        if {role: {op: counts[op] for op in ("hash", "puf", "fe")}
                for role, counts in result.op_counts.items()} != EXPECTED_COUNTS:
            self._fail("honest:op_counts")
            return None
        if wire.protocol_bits(result.transcript) != EXPECTED_BITS:
            self._fail("honest:protocol_bits")
            return None
        if timed:
            self.run.session_us.add(elapsed, 1e6)
        self.run.honest += 1
        self.run.outcomes["honest_ok"] += 1
        if ops is not None:
            self.run.honest_counts.update(ops)
        return result.transcript[0].payload

    # -- adversarial events ----------------------------------------------------

    def _reject(self, world, label: str, msg1, timed: bool = True) -> None:
        """Send MSG1 straight to the gateway.

        It must raise, emit nothing and spend at most ``REJECT_HASH_BOUND``
        hashes.
        """
        gwn = world.gateway
        before = gwn.ops.hash_count
        try:
            mark = self.clock.mark()
            gwn.relay_auth(msg1, world.clock, world.rng)
        except ProtocolError as exc:
            elapsed = self.clock.elapsed(mark)
            if timed:
                self.run.reject_us.add(elapsed, 1e6)
            self.run.outcomes[f"{label}:{type(exc).__name__}"] += 1
            self._reject_hashes(label, gwn.ops.hash_count - before)
            return
        self._fail(f"{label}:gateway_emitted")

    def garbage(self, world, rng: random.Random, timed: bool = True) -> None:
        """Random MSG1 fields under a fresh timestamp."""
        self._begin()
        world.clock.advance(world.config.delta_t + 1)
        msg1 = wire.Msg1(*(BitString.random(160, rng) for _ in range(4)),
                         ts1=wire.ts_bits(world.clock.now))
        try:
            self._reject(world, "garbage", msg1, timed)
        except Exception as exc:
            self._crash("garbage", exc)

    def replay_stale(self, world, payload: BitString) -> None:
        """The last accepted MSG1, replayed after its window closed."""
        self._begin()
        world.clock.advance(world.config.delta_t + 1)
        try:
            self._reject(world, "replay_stale", wire.decode(wire.Msg1, payload))
        except Exception as exc:
            self._crash("replay_stale", exc)

    def replay_fresh(self, world, user: str, uav: str) -> None:
        """An honest session whose MSG1 is replayed while still fresh.

        The replay reaches the gateway just after it accepted the original,
        when the MSG2 it answered is on the wire. The carrier session must
        still complete.
        """
        self._begin()
        world.clock.advance(world.config.delta_t + 1)
        sent = {}

        def intercept(kind, payload):
            if kind == "MSG1":
                sent["msg1"] = wire.decode(wire.Msg1, payload)
            elif kind == "MSG2":
                self._reject(world, "replay_fresh", sent["msg1"])
            return payload

        try:
            result = simnet.run_aka(world, user, uav, intercept=self._intercept(intercept))
        except Exception as exc:
            self._crash("replay_fresh", exc)
            return
        if not (result.ok and result.keys_agree):
            self._fail(f"replay_fresh:carrier:{result.stage}:{result.error}")

    def tamper(self, world, user: str, uav: str, bit: int) -> None:
        """One flipped bit of MSG1, MSG2 or MSG3, through the intercept."""
        self._begin()
        world.clock.advance(world.config.delta_t + 1)
        kind, first, _ = next(entry for entry in TAMPER_LAYOUT
                              if entry[1] <= bit < entry[1] + entry[2])
        index = bit - first

        def flip(k, payload):
            return payload.flip(index) if k == kind else payload

        try:
            mark = self.clock.mark()
            result = simnet.run_aka(world, user, uav, intercept=self._intercept(flip))
            elapsed = self.clock.elapsed(mark)
        except Exception as exc:
            self._crash("tamper", exc)
            return
        self.run.reject_us.add(elapsed, 1e6)
        if result.ok and result.keys_agree:
            self._fail(f"tamper_undetected:{kind}")
        elif result.ok:
            # MSG3's v4 is not covered by v2: the user completes with a key
            # the UAV does not hold. Counted as detected, reported apart.
            self.run.outcomes["tamper_silent_mismatch"] += 1
        else:
            self.run.outcomes[f"tamper:{kind}:{result.error}"] += 1
            if result.stage == "MSG1":
                self._reject_hashes("tamper", result.op_counts["gwn"]["hash"])
                if len(result.transcript) != 1:
                    self._fail("tamper:gateway_emitted")

    # -- scenarios ----------------------------------------------------------------

    def scenario(self, name: str, cfg: SimConfig, call) -> None:
        """Run one closure-backed scenario and check its verdicts.

        Non-secrecy verdicts (honest sessions, the engine's positive control)
        must pass. Secrecy verdicts are compared with ``verdicts.json``; a
        flip is noted, not failed.
        """
        self._begin()
        try:
            report = call(name, cfg)
        except Exception as exc:
            self._crash(f"scenario:{name}", exc)
            return
        expected = VERDICTS[name]
        seen = set()
        for verdict in report.verdicts:
            claim, passed = verdict["claim"], verdict["passed"]
            seen.add(claim)
            if claim in expected["secrecy"]:
                if passed == expected["secrecy"][claim]:
                    self.run.outcomes["secrecy_as_recorded"] += 1
                else:
                    self.run.outcomes["secrecy_flipped"] += 1
                    self.run.notes.add(f"flip {name}: {claim!r} now "
                                       f"{'hidden' if passed else 'derived'}")
            elif "leaked" in verdict["details"]:
                self.run.outcomes["secrecy_new"] += 1
                self.run.notes.add(f"new secrecy claim {name}: {claim!r} = {passed}")
            elif passed:
                self.run.outcomes["check_passed"] += 1
            else:
                self._fail(f"scenario:{name}:{claim}")
        for claim in expected["checks"]:
            if claim not in seen:
                self._fail(f"scenario:{name}:missing:{claim}")
        for claim in expected["secrecy"]:
            if claim not in seen:
                self.run.notes.add(f"secrecy claim gone {name}: {claim!r}")


def _measure(seconds: float, one_pass) -> None:
    """Run passes until the next one would end after ``seconds``; at least one."""
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        one_pass()
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return


def _setup(harness: Harness, label: str, users, uavs):
    for _ in range(SETUP_REPEATS - 1):
        harness.build(label, users, uavs)
    return harness.build(label, users, uavs)


def _session_passes(harness: Harness, seconds: float, label: str, users, uavs,
                    passes_per_world: int, one_pass) -> None:
    """Time ``one_pass(world)`` repeatedly, with a fresh world every few passes.

    Between the other passes a world is built and dropped, as a set-up sample.
    """
    run, clock = harness.run, harness.clock
    world = _setup(harness, label, users, uavs)
    passes_in_world = 0

    def timed_pass():
        nonlocal world, passes_in_world
        if passes_in_world == passes_per_world:
            harness.retire(world)
            world = harness.build(label, users, uavs)
            passes_in_world = 0
        else:
            harness.build(label, users, uavs)
        mark = clock.mark()
        one_pass(world)
        elapsed = clock.elapsed(mark)
        run.pass_s.add(elapsed)
        run.busy_s.add(elapsed)
        passes_in_world += 1

    _measure(seconds, timed_pass)
    harness.retire(world)


# ---------------------------------------------------------------------------
# aka_hot: the per-session hot path on a tiny registry
# ---------------------------------------------------------------------------

HOT_USERS = tuple(f"user-{i}" for i in range(4))
HOT_UAVS = tuple(f"uav-{j}" for j in range(4))
HOT_SESSIONS_PER_PASS = 2048
HOT_PASSES_PER_WORLD = 10
HOT_GARBAGE_EVERY = 16   # one garbage MSG1 after every 16th session


def aka_hot(seed: int, seconds: float, clock, tracer=None) -> Run:
    harness = Harness(Run(), clock, tracer)
    rng = random.Random(f"{seed}:aka_hot:events")

    def one_pass(world):
        for k in range(HOT_SESSIONS_PER_PASS):
            harness.honest(world, HOT_USERS[k % 4], HOT_UAVS[(k // 4) % 4])
            if k % HOT_GARBAGE_EVERY == HOT_GARBAGE_EVERY - 1:
                harness.garbage(world, rng)

    _session_passes(harness, seconds, f"{seed}:aka_hot:world", HOT_USERS,
                    HOT_UAVS, HOT_PASSES_PER_WORLD, one_pass)
    return harness.run


# ---------------------------------------------------------------------------
# fleet_mixed: a large registry under honest and adversarial traffic
# ---------------------------------------------------------------------------

FLEET_USERS = tuple(f"user-{i:02d}" for i in range(64))
FLEET_UAVS = tuple(f"uav-{j:04d}" for j in range(2000))
FLEET_EVENTS_PER_PASS = 512
FLEET_PASSES_PER_WORLD = 8
#: Event mix out of 30: 60% honest; the adversarial 40% split into thirds
#: (tamper, garbage, replay), so the reject median sits inside the garbage
#: mode rather than on a boundary between modes.
FLEET_MIX = (("honest", 18), ("tamper", 4), ("garbage", 4),
             ("replay_fresh", 2), ("replay_stale", 2))


def fleet_mixed(seed: int, seconds: float, clock, tracer=None) -> Run:
    harness = Harness(Run(), clock, tracer)
    rng = random.Random(f"{seed}:fleet_mixed:events")
    kinds = [kind for kind, weight in FLEET_MIX for _ in range(weight)]
    last = {"world": None, "msg1": None}   # the last accepted MSG1, per world

    def one_pass(world):
        for _ in range(FLEET_EVENTS_PER_PASS):
            kind = rng.choice(kinds)
            user, uav = rng.choice(FLEET_USERS), rng.choice(FLEET_UAVS)
            if kind == "replay_stale" and last["world"] is not world:
                kind = "honest"
            if kind == "honest":
                payload = harness.honest(world, user, uav)
                if payload is not None:
                    last.update(world=world, msg1=payload)
            elif kind == "tamper":
                harness.tamper(world, user, uav, rng.randrange(TAMPER_BITS))
            elif kind == "garbage":
                harness.garbage(world, rng)
            elif kind == "replay_fresh":
                harness.replay_fresh(world, user, uav)
            else:
                harness.replay_stale(world, last["msg1"])

    _session_passes(harness, seconds, f"{seed}:fleet_mixed:world", FLEET_USERS,
                    FLEET_UAVS, FLEET_PASSES_PER_WORLD, one_pass)
    return harness.run


# ---------------------------------------------------------------------------
# closure_audit: the seven closure-backed scenarios
# ---------------------------------------------------------------------------

#: After each scenario, a freshly built 4x4 world serves honest sessions
#: and garbage requests, so that the session, reject and set-up metrics
#: have samples, spread over the run, on this workload too. Their tails
#: follow bursts of load from other processes, so the probe spans enough
#: time to average them: together the probes cost about 15% of a pass.
#: The first few of each batch run untimed: they pay for caches and memory
#: the scenario before them left cold.
PROBE_SESSIONS = 256
PROBE_GARBAGE_PER_SESSION = 4
PROBE_WARMUP = 4


def closure_audit(seed: int, seconds: float, clock, tracer=None) -> Run:
    run = Run()
    harness = Harness(run, clock, tracer)
    cfg = SimConfig(seed=seed)
    label = f"{seed}:closure_audit:probe"
    rng = random.Random(f"{seed}:closure_audit:events")
    calls = {name: tracer.timed(f"scenarios.{name}", scenarios.run_scenario)
             if tracer else scenarios.run_scenario for name in AUDITED}
    _setup(harness, label, HOT_USERS, HOT_UAVS)

    def one_pass(timed_pass: bool = True):
        audit = (0.0, 0.0)
        for name in AUDITED:
            mark = clock.mark()
            harness.scenario(name, cfg, calls[name])
            scenario = clock.elapsed(mark)
            world = harness.build(label, HOT_USERS, HOT_UAVS)
            mark = clock.mark()
            for k in range(PROBE_WARMUP + PROBE_SESSIONS):
                timed = timed_pass and k >= PROBE_WARMUP
                harness.honest(world, HOT_USERS[k % 4], HOT_UAVS[(k // 4) % 4], timed)
                for _ in range(PROBE_GARBAGE_PER_SESSION):
                    harness.garbage(world, rng, timed)
            probe = clock.elapsed(mark)
            harness.retire(world)
            audit = (audit[0] + scenario[0], audit[1] + scenario[1])
            if timed_pass:
                run.busy_s.add((scenario[0] + probe[0], scenario[1] + probe[1]))
        if timed_pass:
            run.pass_s.add(audit)

    # The first run of a scenario in a process is up to 40% slower than later
    # ones, so an untraced run starts with one untimed pass. The traced run
    # follows an untraced one in the same process, so it starts warm.
    if tracer is None:
        one_pass(timed_pass=False)
        run.honest = 0   # sessions_per_s counts the timed passes only
    _measure(seconds, one_pass)
    return run


WORKLOADS = {"aka_hot": aka_hot, "fleet_mixed": fleet_mixed,
             "closure_audit": closure_audit}

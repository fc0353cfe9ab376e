"""Interleaved honest, dropped, delayed, tampered and replayed runs over two
users and two UAVs. Whatever the interleaving, a party fails only with
ProtocolError, emits nothing after the check that failed, completes an
untouched run with agreeing keys, and never agrees on a key over a
tampered one.

One schedule is left out of the machine: a user starting a second run in
the tick of an earlier one. Its MSG1 is then the same MAC under the same
timestamp, so a late delivery of the first MSG1 gets the retry refused as
a replay. ``test_same_tick_retry_after_a_late_delivery`` pins that case."""

import pytest
from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from fanet_aka import wire
from fanet_aka.errors import ProtocolError
from fanet_aka.simnet import SimConfig, build_world, enroll_uav, enroll_user, run_aka

USERS = ("alice", "bob")
UAVS = ("uav-1", "uav-2")
KINDS = (wire.Msg1.KIND, wire.Msg2.KIND, wire.Msg3.KIND)
#: transmissions a run has made when it stops at each stage
SENT = {"login": 0, "MSG1": 1, "MSG2": 2, "MSG3": 3, "complete": 3}

users, uavs, kinds = (st.sampled_from(v) for v in (USERS, UAVS, KINDS))


def _world():
    world = build_world(SimConfig(seed=0))
    for name in USERS:
        enroll_user(world, name, f"pw-{name}")
    for name in UAVS:
        enroll_uav(world, name)
    return world


class Sessions(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.world = _world()
        self.started: dict[str, int] = {}
        # mac -> cache expiry of every MAC each receiving party's guard accepted
        self.accepted = {}
        for guard in [self.world.gateway.guard] + [u.guard for u in self.world.uavs.values()]:
            self._watch(guard)

    def _watch(self, guard):
        """Check the guard's replay cache each time it accepts a MAC.

        A party accepts in the tick of the check that purged the cache, so
        at that moment the cache holds exactly the MACs accepted within the
        last ΔT ticks: those whose timestamp plus ΔT, their expiry, is still
        ahead of the clock.
        """
        accepted = self.accepted[guard] = {}
        accept = guard.accept

        def watched(mac, expiry):
            now = self.world.clock.now
            assert guard._cache == {m: e for m, e in accepted.items() if e > now}
            accept(mac, expiry)
            accepted[mac] = expiry
        guard.accept = watched

    @invariant()
    def replay_caches_hold_only_accepted_macs(self):
        for guard, accepted in self.accepted.items():
            assert all(accepted.get(mac) == e for mac, e in guard._cache.items())

    def run(self, user, uav, intercept=None):
        clock = self.world.clock
        if self.started.get(user) == clock.now:
            clock.advance(1)
        self.started[user] = clock.now
        # run_aka turns a ProtocolError into a failed result; anything else escapes
        result = run_aka(self.world, user, uav, intercept)
        assert len(result.transcript) == SENT[result.stage], result
        return result

    @rule(user=users, uav=uavs)
    def honest(self, user, uav):
        result = self.run(user, uav)
        assert result.ok and result.keys_agree, result

    @rule(user=users, uav=uavs, kind=kinds)
    def drop(self, user, uav, kind):
        result = self.run(user, uav, lambda k, payload: None if k == kind else payload)
        assert (result.stage, result.error) == (kind, "ProtocolError")
        assert not result.keys_agree

    @rule(user=users, uav=uavs, kind=kinds)
    def delay(self, user, uav, kind):
        clock = self.world.clock

        def late(k, payload):
            if k == kind:
                clock.advance(clock.delta_t)
            return payload
        result = self.run(user, uav, late)
        assert (result.stage, result.error) == (kind, "StaleTimestamp")
        assert not result.keys_agree

    @rule(user=users, uav=uavs, kind=kinds, bit=st.integers(0, 671))
    def tamper(self, user, uav, kind, bit):
        result = self.run(user, uav, lambda k, payload:
                          payload.flip(bit % payload.width) if k == kind else payload)
        assert not result.keys_agree, result

    @rule(data=st.data(), uav=uavs)
    def replay(self, data, uav):
        logged = [tr for tr in self.world.channel.log if tr.kind in KINDS[:2]]
        if not logged:
            return
        tr = data.draw(st.sampled_from(logged))
        world = self.world
        try:
            if tr.kind == wire.Msg1.KIND:
                world.gateway.relay_auth(wire.decode_msg1(tr.payload), world.clock, world.rng)
            else:
                world.uavs[uav].aka_respond(wire.decode_msg2(tr.payload), world.clock,
                                            world.rng)
        except ProtocolError:
            pass

    @rule(ticks=st.integers(0, 3))
    def wait(self, ticks):
        self.world.clock.advance(ticks)


Sessions.TestCase.settings = settings(
    max_examples=40, stateful_step_count=15, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
test_interleaved_sessions = Sessions.TestCase


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="MSG1 is one MAC per user and tick, so a late delivery "
                          "of a dropped MSG1 refuses the same-tick retry as a replay")
def test_same_tick_retry_after_a_late_delivery():
    world = _world()
    dropped = run_aka(world, "alice", "uav-1", lambda kind, payload:
                      None if kind == wire.Msg1.KIND else payload)
    world.gateway.relay_auth(wire.decode_msg1(dropped.transcript[0].payload),
                             world.clock, world.rng)
    retry = run_aka(world, "alice", "uav-2")
    assert retry.ok and retry.keys_agree, retry.error

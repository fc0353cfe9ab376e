"""fanet-aka benchmark: one workload, one seed, one process.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload aka_hot --seed 0 --seconds 20 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``):

* ``aka_hot``: honest sessions on a 4-user, 4-UAV world, one garbage
  MSG1 after every 16th session.
* ``fleet_mixed``: 64 users and 2,000 UAVs; 60% honest sessions, 40%
  tampering, garbage and replays.
* ``closure_audit``: the seven closure-backed scenarios, each followed by
  a small probe of honest sessions and garbage requests.

Times are scaled to a reference machine speed (see ``speed.py``), which
cancels most of the drift a shared host adds; the wall time of each
end-to-end metric is printed beside it, and on its own line as JSON. With
``--trace 0`` the run measures the end-to-end metrics with no
instrumentation. With ``--trace 1`` it runs the workload twice, first
untraced and then with every layer wrapped, and reports the per-layer
metrics plus the tracing overhead (traced minus untraced). Human-readable
lines come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. Metric names and
units are those declared in ``BENCHMARK.json``.

The benchmark imports the package from ``src/`` of the checkout it sits
in, and exits with code 2 without a result when that is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fanet_aka"

def _span_table():
    """Spans of the traced run: (module or class, attribute, layer name).

    Each function is wrapped at the name its callers look up, so a layer
    reached through two names is wrapped twice under one layer name.
    """
    from fanet_aka import closure, crypto, scenarios, simnet, wire
    from fanet_aka.closure import Closure
    from fanet_aka.gwn import Gateway
    from fanet_aka.metrics import OpCounter
    from fanet_aka.uav import Uav
    from fanet_aka.user import User
    return [
        (simnet, "run_aka", "simnet.run_aka"),
        (scenarios, "run_aka", "simnet.run_aka"),
        (simnet, "enroll_user", "simnet.enroll_user"),
        (scenarios, "enroll_user", "simnet.enroll_user"),
        (simnet, "enroll_uav", "simnet.enroll_uav"),
        (scenarios, "enroll_uav", "simnet.enroll_uav"),
        (User, "login", "user.login"),
        (User, "aka_initiate", "user.aka_initiate"),
        (User, "aka_finalize", "user.aka_finalize"),
        (Uav, "aka_respond", "uav.aka_respond"),
        (Gateway, "relay_auth", "gwn.relay_auth"),
        (simnet, "encode", "wire.encode"),
        (simnet, "decode", "wire.decode"),
        (wire, "decode_msg1", "wire.decode"),
        (wire, "decode_msg2", "wire.decode"),
        (wire, "decode_msg3", "wire.decode"),
        (OpCounter, "h", "metrics.h"),
        (OpCounter, "puf", "metrics.puf"),
        (OpCounter, "fe_gen", "metrics.fe_gen"),
        (OpCounter, "fe_rep", "metrics.fe_rep"),
        (crypto, "sha1_digest", "crypto.sha1_digest"),
        (closure, "compute_closure", "closure.compute_closure"),
        (scenarios, "compute_closure", "closure.compute_closure"),
        (Closure, "__contains__", "closure.contains"),
    ]


def instrument(tracer) -> None:
    from fanet_aka import closure
    from fanet_aka.bits import BitString
    from tracer import CountingHashlib

    for owner, attr, name in _span_table():
        tracer.span(owner, attr, name)
    tracer.count(BitString, "__init__", "bits.construct")
    # the engine looks up ``hashlib.sha1`` in its own module namespace
    tracer.replace(closure, "hashlib", CountingHashlib(tracer))


def _percentile(samples, p: int) -> float:
    if len(samples) < 2:
        return samples[0] if samples else 0.0
    return statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def end_to_end(run, view: str = "scaled") -> dict:
    """The end-to-end metrics, from scaled times or (``view="wall"``) wall times."""
    session_us, reject_us = getattr(run.session_us, view), getattr(run.reject_us, view)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "sessions_per_s": run.honest / sum(getattr(run.busy_s, view)),
        "session_p50_us": _percentile(session_us, 50),
        "session_p99_us": _percentile(session_us, 99),
        "reject_p50_us": _percentile(reject_us, 50),
        "reject_p99_us": _percentile(reject_us, 99),
        "pass_s": statistics.median(getattr(run.pass_s, view)),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(getattr(run.setup_s, view)),
    }


def per_layer(tracer, run, untraced: dict, traced: dict, scale: float) -> dict:
    """Per-layer metrics of the traced run, and the tracing overhead.

    Span times are wall times multiplied by ``scale``, the traced run's
    median speed factor, so that they compare across runs like the scaled
    end-to-end times; the tracing overhead compares scaled times directly.
    """
    from workloads import AUDITED

    def per_session(*names):
        if not run.honest:
            return 0.0
        return sum(run.honest_counts[name] for name in names) / run.honest

    passes = len(run.pass_s.scaled)
    sha1 = tracer.totals["closure.sha1"]
    queries = tracer.calls("closure.contains")
    times = {
        "simnet.run_aka.self_us": tracer.self_us("simnet.run_aka"),
        "user.login.us": tracer.mean_us("user.login"),
        "user.aka_initiate.us": tracer.mean_us("user.aka_initiate"),
        "user.aka_finalize.us": tracer.mean_us("user.aka_finalize"),
        "uav.aka_respond.us": tracer.mean_us("uav.aka_respond"),
        "gwn.relay_auth.us": tracer.mean_us("gwn.relay_auth"),
        "wire.encode.us": tracer.mean_us("wire.encode"),
        "wire.decode.us": tracer.mean_us("wire.decode"),
        "metrics.h.us": tracer.mean_us("metrics.h"),
        "metrics.puf.us": tracer.mean_us("metrics.puf"),
        "metrics.fe_rep.us": tracer.mean_us("metrics.fe_rep"),
        "crypto.sha1_digest.us": tracer.mean_us("crypto.sha1_digest"),
        "simnet.enroll_user.us": tracer.mean_us("simnet.enroll_user"),
        "simnet.enroll_uav.us": tracer.mean_us("simnet.enroll_uav"),
        "closure.compute_closure.s": tracer.total_s("closure.compute_closure") / passes,
        "closure.contains.us": tracer.mean_us("closure.contains"),
    }
    for name in AUDITED:
        times[f"scenarios.{name}.s"] = tracer.total_s(f"scenarios.{name}") / passes
    metrics = {name: value * scale for name, value in times.items()}
    metrics.update({
        "wire.calls_per_session": per_session("wire.encode", "wire.decode"),
        "bits.constructions_per_session": per_session("bits.construct"),
        "metrics.hash_per_session": per_session("metrics.h"),
        "metrics.puf_per_session": per_session("metrics.puf"),
        "metrics.fe_per_session": per_session("metrics.fe_gen", "metrics.fe_rep"),
        "gwn.reject_hashes_max": run.reject_hashes_max,
        "simnet.channel_log_len": run.log_len,
        "closure.sha1_calls": sha1 / passes,
        "closure.sha1_per_query": sha1 / queries if queries else 0.0,
    })
    for name in ("session_p50_us", "reject_p50_us", "pass_s"):
        metrics[f"trace.overhead.{name}"] = traced[name] - untraced[name]
    return metrics


def _report(args, declared: dict, metrics: dict, wall: dict, runs: list,
            factor: float) -> dict:
    attempted = sum(run.attempted for run in runs)
    failed = sum(sum(run.failures.values()) for run in runs)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} python={platform.python_version()} "
          f"nproc={os.cpu_count()}")
    print(f"  times are scaled to reference speed; median factor {factor:.4g} "
          f"(wall time is about scaled time / factor)")
    if wall:
        print(f"  {'':34} {'scaled':>16} {'wall':>16}")
    for name, value in metrics.items():
        beside = f" {wall[name]:>16.6g}" if wall else ""
        print(f"  {name:34} {value:>16.6g}{beside} {declared[name]['unit']}")
    print(f"  {'failure_rate':34} {failed / attempted if attempted else 1.0:>16.6g} "
          f"({failed} of {attempted} operations)")
    if "peak_rss_mb" in metrics:
        print(f"  {'simnet.channel_log_len':34} {runs[0].log_len:>16} entries "
              f"(beside peak_rss_mb)")
    for run in runs:
        print(f"  samples: sessions={len(run.session_us.wall)} "
              f"rejects={len(run.reject_us.wall)} passes={len(run.pass_s.wall)} "
              f"setups={len(run.setup_s.wall)}")
        print("  outcomes: " + ", ".join(f"{k}={v}" for k, v in sorted(run.outcomes.items())))
        for label, count in sorted(run.failures.items()):
            print(f"  FAILED {label}: {count}")
        for note in sorted(run.notes):
            print(f"  note: {note}")
    if wall:
        print("wall " + json.dumps(wall))
    return {"correct": failed == 0 and attempted > 0, "attempted": attempted,
            "failed": failed, "metrics": {
                name: {"value": value, "unit": declared[name]["unit"]}
                for name, value in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (PACKAGE / "__init__.py").is_file():
        print(f"perfbench: {PACKAGE.relative_to(ROOT)} is missing; nothing to "
              f"measure", file=sys.stderr)
        return 2
    sys.path.insert(0, str(PACKAGE.parent))
    import fanet_aka
    if Path(fanet_aka.__file__).resolve().parent != PACKAGE:
        print(f"perfbench: imported {fanet_aka.__file__}, not the checkout's "
              f"package", file=sys.stderr)
        return 2
    from speed import SpeedClock
    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]

    clock = SpeedClock()
    untraced = workload(args.seed, args.seconds, clock)
    if args.trace:
        tracer = Tracer()
        first_sample = len(clock.costs)
        instrument(tracer)
        try:
            traced = workload(args.seed, args.seconds, clock, tracer)
        finally:
            tracer.restore()
        tracer.begin_op()
    if not args.trace:
        declared = {m["name"]: m for m in spec["end_to_end"]}
        metrics = end_to_end(untraced)
        wall = end_to_end(untraced, "wall")
        runs = [untraced]
    else:
        declared = {m["name"]: m for m in spec["per_layer"]}
        metrics = per_layer(tracer, traced, end_to_end(untraced), end_to_end(traced),
                            clock.factor(first_sample))
        wall = {}
        runs = [untraced, traced]
    if set(metrics) != set(declared):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(declared))} differ "
              f"from BENCHMARK.json", file=sys.stderr)
        return 2
    print(json.dumps(_report(args, declared, metrics, wall, runs, clock.factor())))
    return 0


if __name__ == "__main__":
    sys.exit(main())

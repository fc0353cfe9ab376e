"""The traced benchmark wraps program callables by the names callers look
up; a deleted or renamed one would make ``perfbench/run.py --trace 1``
fail with KeyError, so every name it patches must still exist. The
benchmark's workloads also check each session against their own copy of
the session contract, which must equal the package's."""

import importlib.util
import sys
from pathlib import Path

from fanet_aka import closure
from fanet_aka.acceptance import ROLE_OPS
from fanet_aka.bits import BitString
from fanet_aka.crypto import sha1_value
from fanet_aka.scenarios import CLOSURE_SCENARIOS, SESSION_BITS

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # a dataclass looks its module up as it is made
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_expects_the_packages_session_contract():
    workloads = _load("workloads")
    assert workloads.EXPECTED_BITS == SESSION_BITS
    assert workloads.EXPECTED_COUNTS == ROLE_OPS
    assert workloads.AUDITED == CLOSURE_SCENARIOS


def test_every_traced_span_resolves_in_its_owner():
    run = _load("run")
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in run._span_table()
               if attr not in owner.__dict__]
    assert missing == []


def test_traced_run_counts_bit_string_constructions(monkeypatch):
    # an honest session builds no BitString through __init__, so the traced
    # run's per-session count reads 0; this keeps its counter wired
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = _load("run")
    from tracer import Tracer

    tracer = Tracer()
    run.instrument(tracer)
    try:
        BitString(8, 1)
    finally:
        tracer.restore()
    assert tracer.op["bits.construct"] == 1
    BitString(8, 1)
    assert tracer.op["bits.construct"] == 1


def test_traced_run_counts_every_engine_hash(monkeypatch):
    # the engine looks up hashlib.sha1 on its own module when it runs, so
    # the traced run's counter sees each streamed tuple, and the tuples
    # are every hash the engine makes
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = _load("run")
    from tracer import Tracer

    tracer = Tracer()
    run.instrument(tracer)
    try:
        clo = closure.compute_closure([1, 2], [3], [sha1_value((1, 2))])
    finally:
        tracer.restore()
    assert clo.bulk_count > 0
    assert tracer.op["closure.sha1"] == clo.bulk_count
    closure.compute_closure([1, 2], [3], [])
    assert tracer.op["closure.sha1"] == clo.bulk_count

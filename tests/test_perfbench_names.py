"""The traced benchmark wraps program callables by the names callers look
up; a deleted or renamed one would make ``perfbench/run.py --trace 1``
fail with KeyError, so every name it patches must still exist."""

import importlib.util
from pathlib import Path

from fanet_aka import closure
from fanet_aka.bits import BitString
from fanet_aka.crypto import sha1_value

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def test_every_traced_span_resolves_in_its_owner():
    run = _load_run()
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in run._span_table()
               if attr not in owner.__dict__]
    assert missing == []


def test_traced_run_counts_bit_string_constructions(monkeypatch):
    # an honest session builds no BitString through __init__, so the traced
    # run's per-session count reads 0; this keeps its counter wired
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = _load_run()
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
    run = _load_run()
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

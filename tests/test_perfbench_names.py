"""The traced benchmark wraps program callables by the names callers look
up; a deleted or renamed one would make ``perfbench/run.py --trace 1``
fail with KeyError, so every name it patches must still exist."""

import importlib.util
from pathlib import Path

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def test_every_traced_span_resolves_in_its_owner():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in run._span_table()
               if attr not in owner.__dict__]
    assert missing == []

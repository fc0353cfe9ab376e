"""Lightweight PUF-based authentication and key agreement for UAV fleets.

The package implements the three protocol roles (user with smart card,
trusted gateway, PUF-equipped UAV) as deterministic state machines, a
bit-exact wire format, a simulated adversarial network with a bounded
knowledge-closure engine, operation/bit accounting, and a CLI driver.
"""

from .bits import BitString
from .closure import Closure, compute_closure
from .crypto import PufDevice, fe_gen, fe_rep, sha1_digest
from .errors import ProtocolError
from .gwn import Gateway
from .metrics import OpCounter, overhead_report
from .scenarios import SCENARIOS, feature_matrix, run_scenario
from .simnet import SimClock, SimConfig, build_world, enroll_uav, enroll_user, run_aka
from .uav import Uav
from .user import SmartCard, User
from .wire import Msg1, Msg2, Msg3, decode, encode, protocol_bits

__version__ = "0.1.0"

__all__ = [
    "BitString", "Closure", "compute_closure", "PufDevice",
    "fe_gen", "fe_rep", "sha1_digest",
    "ProtocolError", "Gateway", "OpCounter", "overhead_report",
    "SCENARIOS", "feature_matrix", "run_scenario",
    "SimClock", "SimConfig", "build_world", "enroll_uav", "enroll_user",
    "run_aka", "Uav", "SmartCard", "User", "Msg1", "Msg2", "Msg3",
    "decode", "encode", "protocol_bits", "__version__",
]

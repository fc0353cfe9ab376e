"""Command-line driver: run protocol phases against persisted state,
replay attack scenarios, and emit the overhead reports.

State layout (one directory, JSON files of hex fields):
  gwn.json          gateway registry and public parameters
  user_<id>.json    one smart-card record per registered user
  uav_<id>.json     one memory image per registered UAV
  secrets.json      simulation-only secrets (gateway key, PUF seeds,
                    passwords and biometric samples); flagged as material
                    that would never exist as a file in a real deployment
  last_session.json measurements of the most recent run-aka
  meta.json         invocation counter feeding per-command rng streams

Exit codes: 0 success / scenario passed; 1 failure, failed verdict, a
closed standard output or an OS error; 2 usage error; 3 missing state; 4
malformed state or a freshness window out of range.
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import random
import sys
from contextlib import nullcontext
from dataclasses import asdict
from pathlib import Path

from .acceptance import run_all
from .bits import hex_of, int_of_hex, text_value
from .crypto import (BIO_BITS, CHALLENGE_BITS, DIGEST_BITS, NONCE_BITS, PUF_SEED_BITS,
                     PufDevice, sha1_value)
from .errors import ConfigError, ProtocolError, StateError, UnknownScenario, WidthMismatch
from .gwn import SECRET_BITS, Gateway, UavRecord
from .metrics import overhead_report, render_table
from .scenarios import SCENARIOS, feature_matrix, run_scenario
from .simnet import (Channel, SimClock, SimConfig, World, enroll_uav, enroll_user, run_aka,
                     update_credentials)
from .uav import Uav
from .user import SmartCard, User
from .wire import protocol_bits

EXIT_FAIL = 1
EXIT_MISSING_STATE = 3
EXIT_BAD_CONFIG = 4

#: Each stored field's width, which its hex in a state file keeps.
_WIDTHS = {"a_i": DIGEST_BITS, "b_i": DIGEST_BITS, "c_i": DIGEST_BITS, "tau_i": BIO_BITS,
           "tid_i": DIGEST_BITS, "n_j": NONCE_BITS, "tc_id_j": DIGEST_BITS, "r_j": DIGEST_BITS,
           "c_j": CHALLENGE_BITS, "gwn_secret": SECRET_BITS, "bio": BIO_BITS,
           "puf_seed": PUF_SEED_BITS}


def _hex(name: str, value: int) -> str:
    """The stored field ``name``'s ``int`` as hex at its width."""
    return hex_of(_WIDTHS[name], value)


def _int(name: str, text: str) -> int:
    """Inverse of :func:`_hex`; raises on text that is not hex of the field's width."""
    return int_of_hex(text, _WIDTHS[name])


def _party_name(text: str) -> str:
    """A user or UAV name its ``user_<id>.json`` or ``uav_<id>.json`` can hold."""
    if not text or {"/", os.altsep, "\0"} & set(text):
        raise argparse.ArgumentTypeError(f"{text!r} cannot name a state file")
    return text


def _identity(text: str) -> str:
    """A gateway identity: any text but the empty one, whose ``id_g`` is 0."""
    if not text:
        raise argparse.ArgumentTypeError("the gateway identity must be non-empty")
    return text


def _dump(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


class StateDir:
    """Persisted parties between CLI invocations."""

    def __init__(self, root: Path):
        self.root = root

    def path(self, name: str) -> Path:
        return self.root / name

    def read(self, name: str, parse, default: dict | None = None):
        """``parse`` applied to the document in ``name``, or to ``default``
        when there is no such file.

        A missing file without a default is missing state. A file that is
        not JSON, lacks a key, or holds a badly typed value or a field of
        the wrong width is malformed.
        """
        p = self.path(name)
        if not p.exists():
            if default is None:
                raise StateError(f"missing state file {p}; run the registration "
                                 f"subcommands first")
            return parse(default)
        try:
            return parse(json.loads(p.read_text()))
        except (AttributeError, KeyError, TypeError, ValueError, WidthMismatch) as exc:
            raise ConfigError(f"malformed state file {p}") from exc

    def save(self, name: str, doc: dict) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        self.path(name).write_text(_dump(doc))


def _sim_config(args) -> SimConfig:
    cfg = SimConfig(seed=args.seed, delta_t=args.delta_t)
    # run_aka spends a tick per hop, so under a one-tick window MSG1 is stale
    # when the gateway reads it; check_fresh's serial offset never reaches
    # 2**31 ticks, so a window that wide never expires
    if not 2 <= cfg.delta_t < 2**31:
        raise ConfigError(f"delta_t must be at least 2 and below 2**31, got {cfg.delta_t}")
    return cfg


def _parse_secrets(doc: dict) -> dict:
    """``secrets.json``: the gateway secret, each user's password and
    biometric, and each UAV's PUF seed, each value but a password an ``int``."""
    secret = doc.get("gwn_secret")
    users = {}
    for name, entry in doc.get("users", {}).items():
        text_value(entry["password"])  # a string that fits its field
        users[name] = {"password": entry["password"], "bio": _int("bio", entry["bio"])}
    return {
        "gwn_secret": None if secret is None else _int("gwn_secret", secret),
        "users": users,
        "puf_seeds": {name: _int("puf_seed", seed)
                      for name, seed in doc.get("puf_seeds", {}).items()},
    }


def load_world(state: StateDir, cfg: SimConfig, new_gateway: str | None = None) -> World:
    """Restore the gateway, every user, every UAV and their secrets.

    ``new_gateway`` starts a fresh gateway of that name instead of reading
    ``gwn.json``. Every call draws a new deterministic rng stream:
    ``meta.json`` counts the calls, and is written at once, so a command
    that then fails still moves the next command to a new stream. The
    freshness window is not state: the clock takes it from ``cfg``.
    """
    invocations = state.read("meta.json", lambda doc: operator.index(doc["invocations"]),
                             default={"invocations": 0})
    rng = random.Random(f"{cfg.seed}:{invocations}")
    state.save("meta.json", {"invocations": invocations + 1})

    secrets = state.read("secrets.json", _parse_secrets, default={})
    secret = secrets["gwn_secret"]

    def parse_gateway(doc: dict) -> tuple[Gateway, int]:
        if secret is None:
            raise ConfigError("secrets.json lacks the gateway secret")
        # every record on file is complete: register-uav enrolls in one step
        registry = {name: UavRecord(**{k: _int(k, rec[k])
                                       for k in ("n_j", "tc_id_j", "c_j", "r_j")})
                    for name, rec in doc["registry"].items()}
        gateway = Gateway(doc["identity"], secret,
                          {_int("tid_i", tid) for tid in doc["user_tids"]}, registry)
        # a UAV the gateway forgot would fail every session and could be
        # registered anew over its memory image
        lost = set(secrets["puf_seeds"]) - set(registry)
        if lost:
            raise ValueError(f"registry lacks {sorted(lost)}")
        return gateway, operator.index(doc.get("clock", 0))

    def parse_card(doc: dict) -> SmartCard:
        return SmartCard(**{k: _int(k, doc[k]) for k in ("a_i", "b_i", "c_i", "tau_i")})

    def parse_uav(doc: dict, name: str, seed: int) -> Uav:
        if doc["identity"] != name:  # a session would run under the wrong id_j
            raise ValueError(f"memory image of {doc['identity']!r}, not {name!r}")
        return Uav(name, text_value(name), PufDevice(seed),
                   _int("c_j", doc["c_j"]), _int("tc_id_j", doc["tc_id_j"]))

    if new_gateway is not None:
        gateway, now = Gateway(new_gateway, rng.getrandbits(SECRET_BITS)), 0
    else:
        gateway, now = state.read("gwn.json", parse_gateway)
    clock = SimClock(cfg.delta_t, now)
    world = World(config=cfg, rng=rng, clock=clock, channel=Channel(clock), gateway=gateway)
    for name, user_secret in secrets["users"].items():
        world.users[name] = user = User(name)
        user.card = state.read(f"user_{name}.json", parse_card)
        world.user_secrets[name] = user_secret
    for name, seed in secrets["puf_seeds"].items():
        world.uavs[name] = state.read(f"uav_{name}.json", lambda doc: parse_uav(doc, name, seed))
    return world


def save_world(state: StateDir, world: World) -> None:
    """Write back what :func:`load_world` reads."""
    gateway = world.gateway
    state.save("gwn.json", {"identity": gateway.identity, "clock": world.clock.now,
                            "user_tids": sorted(_hex("tid_i", t) for t in gateway.user_tids),
                            "registry": {name: {k: _hex(k, v) for k, v in asdict(rec).items()}
                                         for name, rec in gateway.registry.items()}})
    secrets = {"_comment": "simulation-only secrets; a real deployment never stores these",
               "gwn_secret": _hex("gwn_secret", gateway.export_secret()), "users": {},
               "puf_seeds": {}}
    for name, user in world.users.items():
        state.save(f"user_{name}.json", {k: _hex(k, v) for k, v in asdict(user.card).items()})
        secret = world.user_secrets[name]
        secrets["users"][name] = {"password": secret["password"],
                                  "bio": _hex("bio", secret["bio"])}
    for name, uav in world.uavs.items():
        state.save(f"uav_{name}.json", {"identity": uav.identity, "c_j": _hex("c_j", uav.c_j),
                                        "tc_id_j": _hex("tc_id_j", uav.tc_id_j)})
        secrets["puf_seeds"][name] = _hex("puf_seed", uav._puf.seed)
    state.save("secrets.json", secrets)


def _registered(world: World, user: str, uav: str | None = None) -> None:
    """A party with no entry in the state directory is missing state."""
    if user not in world.users:
        raise StateError(f"no registered user {user}")
    if uav is not None and uav not in world.uavs:
        raise StateError(f"no registered uav {uav}")


# -- subcommands -----------------------------------------------------------

def cmd_init_gwn(args) -> int:
    state = StateDir(Path(args.state_dir))
    if state.path("gwn.json").exists() or state.path("secrets.json").exists():
        # a new gateway secret would orphan every card and UAV image on file
        print(f"error: gateway already initialized in {state.root}", file=sys.stderr)
        return EXIT_FAIL
    save_world(state, load_world(state, _sim_config(args), new_gateway=args.identity))
    print(f"gateway {args.identity} initialized in {state.root}")
    return 0


def cmd_register_user(args) -> int:
    state = StateDir(Path(args.state_dir))
    world = load_world(state, _sim_config(args))
    enroll_user(world, args.user, args.password)
    save_world(state, world)
    print(f"user {args.user} registered; card written")
    return 0


def cmd_register_uav(args, announce: bool = False) -> int:
    state = StateDir(Path(args.state_dir))
    world = load_world(state, _sim_config(args))
    enroll_uav(world, args.uav, announce=announce)
    save_world(state, world)
    verb = "added dynamically" if announce else "registered"
    print(f"uav {args.uav} {verb}; memory image written")
    return 0


def cmd_run_aka(args) -> int:
    state = StateDir(Path(args.state_dir))
    world = load_world(state, _sim_config(args))
    _registered(world, args.user, args.uav)
    result = run_aka(world, args.user, args.uav, password=args.password or None)
    if not result.ok:
        print(f"key agreement failed at {result.stage}: {result.error}")
        return EXIT_FAIL
    bits = protocol_bits(result.transcript)
    session = {
        "user": args.user,
        "uav": args.uav,
        "keys_agree": result.keys_agree,
        "session_key_fingerprint": hex_of(DIGEST_BITS, sha1_value((result.user_sk,))),
        "bit_counts": bits,
        "op_counts": result.op_counts,
    }
    state.save("last_session.json", session)
    save_world(state, world)
    if args.format == "json":
        print(_dump(session), end="")
    else:
        print(f"session key fingerprint: {session['session_key_fingerprint']}")
        print(f"total bits: {bits['total']} ({bits['MSG1']}/{bits['MSG2']}/{bits['MSG3']})")
        for role, counts in session["op_counts"].items():
            shown = {k: v for k, v in counts.items() if v}
            print(f"{role} ops: {shown}")
    return 0


def cmd_update_credentials(args) -> int:
    state = StateDir(Path(args.state_dir))
    world = load_world(state, _sim_config(args))
    _registered(world, args.user)
    update_credentials(world, args.user, args.new_password)
    save_world(state, world)
    print(f"credentials updated for {args.user}")
    return 0


def cmd_replace_card(args) -> int:
    state = StateDir(Path(args.state_dir))
    world = load_world(state, _sim_config(args))
    _registered(world, args.user)
    enroll_user(world, args.user, args.new_password)
    save_world(state, world)
    print(f"replacement card issued for {args.user}")
    return 0


def cmd_attack(args) -> int:
    cfg = _sim_config(args)
    if args.scenario == "all":
        matrix = feature_matrix(cfg)
        if args.format == "json":
            print(_dump(matrix), end="")
        else:
            for feature, row in matrix.items():
                status = "pass" if row["passed"] else "FAIL"
                print(f"{feature:8} {row['source']:28} {status}")
        return 0 if all(r["passed"] for r in matrix.values()) else EXIT_FAIL
    report = run_scenario(args.scenario, cfg)
    if args.format == "json":
        print(_dump(report.to_json()), end="")
    else:
        for verdict in report.verdicts:
            status = "pass" if verdict["passed"] else "FAIL"
            print(f"{status}  {verdict['claim']}")
    return 0 if report.passed else EXIT_FAIL


def cmd_report(args) -> int:
    cfg = _sim_config(args)
    state = StateDir(Path(args.state_dir))
    report = state.read("last_session.json", lambda doc: overhead_report(
        doc["op_counts"], doc["bit_counts"]))
    if args.format == "json":
        print(_dump(report), end="")
    else:
        print(render_table(report))
    return 0


def cmd_selftest(args) -> int:
    cfg = _sim_config(args)
    # opened first, so a report file that cannot be written fails before
    # any criterion runs
    with open(args.report_file, "w") if args.report_file else nullcontext() as out:
        report = run_all(cfg, echo=print)
        payload = _dump(report)
        if out:
            out.write(payload)
    if args.format == "json":
        print(payload, end="")
    return 0 if report["passed"] else EXIT_FAIL


# -- argument parsing ---------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fanet-aka",
        description="PUF-based authentication and key agreement simulator")
    parser.add_argument("--state-dir", default="state",
                        help="directory for persisted party state")
    parser.add_argument("--seed", type=int, default=0,
                        help="deterministic seed (default 0)")
    parser.add_argument("--delta-t", type=int, default=2, dest="delta_t",
                        help="freshness window in clock ticks (default 2)")
    parser.add_argument("--format", choices=("json", "table"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init-gwn", help="initialize the gateway")
    p.add_argument("--identity", default="gateway-0", type=_identity)
    p.set_defaults(fn=cmd_init_gwn)

    p = sub.add_parser("register-user", help="run the user registration phase")
    p.add_argument("--user", required=True, type=_party_name)
    p.add_argument("--password", required=True)
    p.set_defaults(fn=cmd_register_user)

    p = sub.add_parser("register-uav", help="run the UAV registration phase")
    p.add_argument("--uav", required=True, type=_party_name)
    p.set_defaults(fn=cmd_register_uav)

    p = sub.add_parser("add-uav", help="dynamic UAV addition with broadcast")
    p.add_argument("--uav", required=True, type=_party_name)
    p.set_defaults(fn=lambda a: cmd_register_uav(a, announce=True))

    p = sub.add_parser("run-aka", help="full authenticated key agreement")
    p.add_argument("--user", required=True)
    p.add_argument("--uav", required=True)
    p.add_argument("--password", help="override the stored password")
    p.set_defaults(fn=cmd_run_aka)

    p = sub.add_parser("update-credentials",
                       help="local password and biometric update")
    p.add_argument("--user", required=True)
    p.add_argument("--new-password", required=True)
    p.set_defaults(fn=cmd_update_credentials)

    p = sub.add_parser("replace-card", help="revoke and replace a smart card")
    p.add_argument("--user", required=True)
    p.add_argument("--new-password", required=True)
    p.set_defaults(fn=cmd_replace_card)

    p = sub.add_parser("attack", help="run one attack scenario (or 'all')")
    p.add_argument("scenario", choices=sorted(SCENARIOS) + ["all"])
    p.set_defaults(fn=cmd_attack)

    p = sub.add_parser("report", help="overhead comparison for the last session")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("selftest", help="run the full acceptance suite")
    p.add_argument("--report-file", help="also write the JSON report here")
    p.set_defaults(fn=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe raises here, not in the flush at exit
        return code
    except BrokenPipeError:
        # as in the Python docs' note on SIGPIPE: the reader is gone (``| head``),
        # and devnull takes the rest, so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAIL
    except OSError as exc:  # e.g. a report file or state directory that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except StateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_STATE
    except (ConfigError, UnknownScenario) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except ProtocolError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except ValueError as exc:  # input a role refuses, e.g. an empty password
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())

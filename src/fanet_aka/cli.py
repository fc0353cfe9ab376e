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

Exit codes: 0 success / scenario passed; 1 failure or failed verdict;
2 usage error; 3 missing state; 4 malformed state or config.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from .acceptance import run_all
from .bits import BitString
from .crypto import hash_parts
from .errors import ConfigError, ProtocolError, StateError, UnknownScenario
from .gwn import Gateway
from .metrics import count_session, overhead_report, render_table
from .scenarios import SCENARIOS, feature_matrix, run_scenario
from .simnet import SimConfig, SimClock, Channel, World, enroll_user, enroll_uav, run_aka
from .uav import Uav
from .user import SmartCard, User
from .wire import protocol_bits

EXIT_FAIL = 1
EXIT_MISSING_STATE = 3
EXIT_BAD_CONFIG = 4


def _dump(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


class StateDir:
    """Persisted parties between CLI invocations."""

    def __init__(self, root: Path):
        self.root = root

    def path(self, name: str) -> Path:
        return self.root / name

    def load(self, name: str) -> dict:
        p = self.path(name)
        if not p.exists():
            raise StateError(f"missing state file {p}; run the registration "
                             f"subcommands first")
        try:
            return json.loads(p.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed state file {p}: {exc}") from exc

    def save(self, name: str, doc: dict) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        self.path(name).write_text(_dump(doc))

    def secrets(self) -> dict:
        p = self.path("secrets.json")
        if not p.exists():
            return {"_comment": "simulation-only secrets; a real deployment "
                                "never stores these", "puf_seeds": {},
                    "users": {}}
        return self.load("secrets.json")


def _sim_config(args) -> SimConfig:
    cfg = SimConfig()
    if getattr(args, "config", None):
        cfg = _load_config_file(Path(args.config), cfg)
    for name, attr in (("seed", "seed"), ("delta_t", "delta_t"),
                       ("closure_depth", "closure_depth")):
        value = getattr(args, name, None)
        if value is not None:
            cfg = SimConfig(**{**cfg.__dict__, attr: value})
    return cfg


def _load_config_file(path: Path, cfg: SimConfig) -> SimConfig:
    if not path.exists():
        raise ConfigError(f"config file {path} not found")
    text = path.read_text()
    try:
        if path.suffix == ".json" or text.lstrip().startswith("{"):
            doc = json.loads(text)
        else:
            doc = {}
            for line in text.splitlines():
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, _, value = line.partition("=")
                doc[key.strip()] = value.strip()
    except (ValueError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    known = SimConfig().__dict__
    fields = {}
    for key, value in doc.items():
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")
        target = type(known[key])
        try:
            fields[key] = target(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key!r}: {value!r}") from exc
    return SimConfig(**{**known, **fields})


def _invocation_rng(state: StateDir, cfg: SimConfig) -> random.Random:
    """Fresh deterministic stream per state-mutating invocation."""
    meta = {"invocations": 0}
    if state.path("meta.json").exists():
        meta = state.load("meta.json")
    rng = random.Random(f"{cfg.seed}:{meta['invocations']}")
    meta["invocations"] += 1
    state.save("meta.json", meta)
    return rng


def _rebuild_world(state: StateDir, cfg: SimConfig,
                   rng: random.Random) -> tuple[World, dict]:
    secrets = state.secrets()
    gwn_doc = state.load("gwn.json")
    if "gwn_secret" not in secrets:
        raise ConfigError("secrets.json lacks the gateway secret")
    gateway = Gateway.from_json(gwn_doc, secrets["gwn_secret"])
    clock = SimClock(gwn_doc.get("clock", 0))
    world = World(config=cfg, rng=rng, clock=clock, channel=Channel(clock),
                  gateway=gateway)
    return world, secrets


def _persist_gateway(state: StateDir, world: World) -> None:
    doc = world.gateway.to_json()
    doc["clock"] = world.clock.now
    state.save("gwn.json", doc)


# -- subcommands -----------------------------------------------------------

def cmd_init_gwn(args) -> int:
    cfg = _sim_config(args)
    state = StateDir(Path(args.state_dir))
    rng = _invocation_rng(state, cfg)
    gateway = Gateway(args.identity, rng, delta_t=cfg.delta_t)
    doc = gateway.to_json()
    doc["clock"] = 0
    state.save("gwn.json", doc)
    secrets = state.secrets()
    secrets["gwn_secret"] = gateway.export_secret()
    state.save("secrets.json", secrets)
    print(f"gateway {args.identity} initialized in {state.root}")
    return 0


def cmd_register_user(args) -> int:
    cfg = _sim_config(args)
    state = StateDir(Path(args.state_dir))
    rng = _invocation_rng(state, cfg)
    world, secrets = _rebuild_world(state, cfg, rng)
    user = enroll_user(world, args.user, args.password)
    state.save(f"user_{args.user}.json", user.card.to_json())
    user_secrets = world.user_secrets[args.user]
    secrets.setdefault("users", {})[args.user] = {
        "password": args.password,
        "bio": user_secrets["bio"].hex(),
    }
    state.save("secrets.json", secrets)
    _persist_gateway(state, world)
    print(f"user {args.user} registered; card written")
    return 0


def cmd_register_uav(args, announce: bool = False) -> int:
    cfg = _sim_config(args)
    state = StateDir(Path(args.state_dir))
    rng = _invocation_rng(state, cfg)
    world, secrets = _rebuild_world(state, cfg, rng)
    uav = enroll_uav(world, args.uav, announce=announce)
    state.save(f"uav_{args.uav}.json", uav.to_json())
    secrets.setdefault("puf_seeds", {})[args.uav] = uav._puf.seed.hex()
    state.save("secrets.json", secrets)
    _persist_gateway(state, world)
    verb = "added dynamically" if announce else "registered"
    print(f"uav {args.uav} {verb}; memory image written")
    return 0


def cmd_run_aka(args) -> int:
    cfg = _sim_config(args)
    state = StateDir(Path(args.state_dir))
    rng = _invocation_rng(state, cfg)
    world, secrets = _rebuild_world(state, cfg, rng)

    card_doc = state.load(f"user_{args.user}.json")
    uav_doc = state.load(f"uav_{args.uav}.json")
    user_secret = secrets.get("users", {}).get(args.user)
    puf_seed = secrets.get("puf_seeds", {}).get(args.uav)
    if user_secret is None or puf_seed is None:
        raise StateError(f"secrets.json lacks entries for {args.user}/{args.uav}")

    user = User(args.user, fe_params=cfg.fe_params)
    user.card = SmartCard.from_json(card_doc)
    world.users[args.user] = user
    world.user_secrets[args.user] = {
        "password": args.password or user_secret["password"],
        "bio": BitString.from_hex(user_secret["bio"],
                                  width=cfg.fe_params.bio_width),
    }
    world.uavs[args.uav] = Uav.from_json(uav_doc, puf_seed,
                                         noise_rate=cfg.puf_noise)

    result = run_aka(world, args.user, args.uav)
    if not result.ok:
        print(f"key agreement failed at {result.stage}: {result.error}")
        return EXIT_FAIL
    bits = protocol_bits(result.transcript)
    session = {
        "user": args.user,
        "uav": args.uav,
        "keys_agree": result.keys_agree,
        "session_key_fingerprint": hash_parts(result.user_sk).hex(),
        "bit_counts": bits,
        "op_counts": count_session(result),
    }
    state.save("last_session.json", session)
    _persist_gateway(state, world)
    if args.format == "json":
        print(_dump(session), end="")
    else:
        print(f"session key fingerprint: {session['session_key_fingerprint']}")
        print(f"total bits: {bits['total']} "
              f"({bits['MSG1']}/{bits['MSG2']}/{bits['MSG3']})")
        for role, counts in session["op_counts"].items():
            shown = {k: v for k, v in counts.items() if v}
            print(f"{role} ops: {shown}")
    return 0


def cmd_update_credentials(args) -> int:
    cfg = _sim_config(args)
    state = StateDir(Path(args.state_dir))
    rng = _invocation_rng(state, cfg)
    secrets = state.secrets()
    user_secret = secrets.get("users", {}).get(args.user)
    if user_secret is None:
        raise StateError(f"no registered user {args.user}")
    user = User(args.user, fe_params=cfg.fe_params)
    user.card = SmartCard.from_json(state.load(f"user_{args.user}.json"))
    old_bio = BitString.from_hex(user_secret["bio"],
                                 width=cfg.fe_params.bio_width)
    new_bio = BitString.random(cfg.fe_params.bio_width, rng)
    user.update_credentials(user_secret["password"], old_bio,
                            args.new_password, new_bio, rng)
    state.save(f"user_{args.user}.json", user.card.to_json())
    user_secret.update(password=args.new_password, bio=new_bio.hex())
    state.save("secrets.json", secrets)
    print(f"credentials updated for {args.user}")
    return 0


def cmd_replace_card(args) -> int:
    cfg = _sim_config(args)
    state = StateDir(Path(args.state_dir))
    rng = _invocation_rng(state, cfg)
    world, secrets = _rebuild_world(state, cfg, rng)
    user_secret = secrets.get("users", {}).get(args.user)
    if user_secret is None:
        raise StateError(f"no registered user {args.user}")
    user = User(args.user, fe_params=cfg.fe_params)
    request = user.register_begin(args.new_password, rng)
    response = world.gateway.register_user(request)
    bio = BitString.random(cfg.fe_params.bio_width, rng)
    user.register_complete(response, bio, rng)
    state.save(f"user_{args.user}.json", user.card.to_json())
    user_secret.update(password=args.new_password, bio=bio.hex())
    state.save("secrets.json", secrets)
    _persist_gateway(state, world)
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
    session = state.load("last_session.json")
    report = overhead_report(session.get("op_counts"),
                             session.get("bit_counts"), timings="preset")
    if args.format == "json":
        print(_dump(report), end="")
    else:
        print(render_table(report))
    return 0


def cmd_selftest(args) -> int:
    cfg = _sim_config(args)
    report = run_all(cfg, echo=print)
    if args.format == "json" or args.report_file:
        payload = _dump(report)
        if args.report_file:
            Path(args.report_file).write_text(payload)
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
    parser.add_argument("--seed", type=int, default=None,
                        help="deterministic seed (default 0)")
    parser.add_argument("--delta-t", type=int, default=None, dest="delta_t",
                        help="freshness window in clock ticks (default 2)")
    parser.add_argument("--closure-depth", type=int, default=None,
                        help="adversary derivation depth bound (default 4)")
    parser.add_argument("--format", choices=("json", "table"), default="json")
    parser.add_argument("--config", help="JSON or key=value config file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init-gwn", help="initialize the gateway")
    p.add_argument("--identity", default="gateway-0")
    p.set_defaults(fn=cmd_init_gwn)

    p = sub.add_parser("register-user", help="run the user registration phase")
    p.add_argument("--user", required=True)
    p.add_argument("--password", required=True)
    p.set_defaults(fn=cmd_register_user)

    p = sub.add_parser("register-uav", help="run the UAV registration phase")
    p.add_argument("--uav", required=True)
    p.set_defaults(fn=cmd_register_uav)

    p = sub.add_parser("add-uav", help="dynamic UAV addition with broadcast")
    p.add_argument("--uav", required=True)
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
        return args.fn(args)
    except StateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_STATE
    except (ConfigError, UnknownScenario) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except ProtocolError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())

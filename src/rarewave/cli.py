"""Command-line entry points.

    rarewave run <config>                    single run
    rarewave study <kind> <config> [--ladder a,b,...]
    rarewave riemann1d --left v,c --right v,c --gamma g [--k0 k]
    rarewave verify-gronwall <instance.json>

Exit codes: 0 pass, 1 analysis failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .energies import GronwallHypothesisError, GronwallInstance, gronwall_verify
from .gas import PolytropicGas, PrimitiveState
from .geometry import DegenerateFoliationError
from .harness import ConfigError, StudySpec, parse_config, run_single, run_study
from .riemann1d import NumericalError, RiemannProblem1D, solve_riemann


def _load_config(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config(text)


def _cmd_run(args) -> int:
    cfg = _load_config(args.config)
    if args.out:
        report = run_single(cfg, out_dir=Path(args.out))
    else:
        report = run_single(cfg)
    bad = [p for p in report["data_predicates"] if not p[3]]
    print(json.dumps({"config_hash": report["config_hash"],
                      "cached": report["cached"],
                      "x2_variation": report["x2_variation"],
                      "failed_predicates": [p[0] for p in bad]}, indent=1))
    return 1 if bad else 0


def _cmd_study(args) -> int:
    cfg = _load_config(args.config)
    ladder = tuple(float(v) for v in args.ladder.split(",")) if args.ladder else ()
    spec = StudySpec(kind=args.kind, ladder=ladder)
    out = Path(args.out) if args.out else None
    study = run_study(spec, cfg, out_dir=out)
    print(json.dumps({k: v for k, v in study.items() if k != "reports"}, indent=1,
                     default=str))
    return 1 if study["failures"] else 0


def _parse_state(text: str) -> PrimitiveState:
    v, c = (float(x) for x in text.split(","))
    return PrimitiveState(c=c, v1=v)


def _cmd_riemann(args) -> int:
    gas = PolytropicGas(gamma=args.gamma, k0=args.k0)
    problem = RiemannProblem1D(gas, _parse_state(args.left), _parse_state(args.right))
    fan = solve_riemann(problem)
    payload = {
        "gamma": gas.gamma,
        "k0": gas.k0,
        "left": {"v": fan.left.v1, "c": fan.left.c},
        "right": {"v": fan.right.v1, "c": fan.right.c},
        "vacuum": fan.has_vacuum,
        "middle": None if fan.has_vacuum else {"v": fan.middle.v1, "c": fan.middle.c},
        "wave1": dataclasses.asdict(fan.wave1),
        "wave2": dataclasses.asdict(fan.wave2),
    }
    print(json.dumps(payload, indent=1))
    return 0


def _cmd_verify_gronwall(args) -> int:
    try:
        data = json.loads(Path(args.instance).read_text())
        inst = GronwallInstance(A=data["A"], B=data["B"], C=data["C"],
                                t=np.asarray(data["t"]), u=np.asarray(data["u"]),
                                E=np.asarray(data["E"]), F=np.asarray(data["F"]))
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
        print(f"bad instance file: {exc}", file=sys.stderr)
        return 2
    try:
        verdict = gronwall_verify(inst)
    except GronwallHypothesisError as exc:
        print(json.dumps({"passed": False, "stage": "hypothesis", "detail": str(exc)}))
        return 1
    print(json.dumps({"passed": verdict.passed, "stage": "conclusion",
                      "max_ratio": verdict.max_ratio}))
    return 0 if verdict.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rarewave",
                                     description="expansion-wave numerical laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one configured run")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None)
    p_run.set_defaults(fn=_cmd_run)

    p_study = sub.add_parser("study", help="execute a parameter study")
    p_study.add_argument("kind",
                         choices=["single", "convergence", "epsilon_scaling",
                                  "delta_robustness"])
    p_study.add_argument("config")
    p_study.add_argument("--ladder", default="")
    p_study.add_argument("--out", default=None)
    p_study.set_defaults(fn=_cmd_study)

    p_r = sub.add_parser("riemann1d", help="solve a two-state problem, print JSON")
    p_r.add_argument("--left", required=True, help="v,c of the left state")
    p_r.add_argument("--right", required=True, help="v,c of the right state")
    p_r.add_argument("--gamma", type=float, default=2.0)
    p_r.add_argument("--k0", type=float, default=0.5)
    p_r.set_defaults(fn=_cmd_riemann)

    p_g = sub.add_parser("verify-gronwall", help="verify a growth-lemma instance file")
    p_g.add_argument("instance")
    p_g.set_defaults(fn=_cmd_verify_gronwall)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, DegenerateFoliationError) as exc:
        print(f"analysis failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point: run training, compare methods, report costs, gradient check.

Exit codes: 0 on success, 2 on configuration errors, 3 on numerical aborts.
`compare` runs one worker thread per usable CPU, up to one per training; FDGNN_THREADS overrides.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .agents import stack_flat_params, stacked_gradients
from .gcnn import central_gradient, fd_gradient, init_params, save_params
from .graphs import build_shift, generate_er
from .netsim import cost_table, expected_rounds, write_ledger_csv, write_trace_csv
from .optim import CENTRAL_KINDS
from .trainer import (
    CHOICES,
    METRICS_COLUMNS,
    RunConfig,
    TrainingDiverged,
    TrainResult,
    _setup,
    train_centralized,
    train_distributed,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

COMPARE_METHODS = (
    ("central-sgd", "central-sgd", None),
    ("central-adam", "central-adam", None),
    ("d-naive", "d-naive", "naive-per-sample"),
    ("d-naive-piggyback", "d-naive", "piggyback-consensus"),
    ("d-sgd", "d-sgd", "piggyback-do"),
    ("d-adam", "d-adam", "piggyback-do"),
    ("d-amsgrad", "d-amsgrad", "piggyback-do"),
)
# Row -> the row whose training it reuses: every d-naive strategy applies one update.
_REBILLED = {"d-naive-piggyback": "d-naive"}


class ConfigError(ValueError):
    pass


# Run flags are `--` plus the RunConfig field name with dashes, except these.
_RENAMED = {"alpha": "--lr", "decay": "--lr-decay", "track_trace": "--trace"}
_FILE_ONLY = ("beta1", "beta2", "epsilon", "consensus_on_v")
_ARGPARSE_CHOICES = ("graph", "engine")  # validate checks the other CHOICES fields
# Per RunConfig field annotation: its flag's argparse keywords, and the exact
# JSON types a config-file value may have, so a bool is never taken for a number.
_FIELD_TYPES = {
    "int": ({"type": int}, (int,)), "float": ({"type": float}, (int, float)),
    "str": ({}, (str,)), "str | None": ({}, (str, type(None))),
    "bool": ({"action": "store_true"}, (bool,)),
}


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override its values")
    for f in fields(RunConfig):
        if f.name not in _FILE_ONLY:
            parser.add_argument(
                _RENAMED.get(f.name, "--" + f.name.replace("_", "-")), dest=f.name, default=None,
                help=f.metadata.get("help"), **_FIELD_TYPES[f.type][0],
                **({"choices": CHOICES[f.name]} if f.name in _ARGPARSE_CHOICES else {}),
            )
    parser.add_argument("--out", default="out", help="output directory")


def build_config(args: argparse.Namespace) -> tuple[RunConfig, tuple]:
    """Defaults, then config-file values, then explicit flags; returns the
    validated config and the run's set-up (`trainer._setup`)."""
    types = {f.name: f.type for f in fields(RunConfig)}
    values = {}
    if args.config:
        try:
            values = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as err:
            raise ConfigError(f"cannot read config file {args.config}: {err}") from err
        if not isinstance(values, dict):
            raise ConfigError(f"config file must hold a JSON object, got {values!r}")
        unknown = set(values) - set(types)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for name, value in values.items():
            if type(value) not in _FIELD_TYPES[types[name]][1]:
                raise ConfigError(f"config key {name!r} must be {types[name]}, got {value!r}")
    values.update((k, v) for k, v in vars(args).items() if k in types and v is not None)
    cfg = RunConfig(**values)
    if cfg.track_trace and args.command == "compare":
        raise ConfigError("--trace is for train: compare writes no per-method trace")
    try:
        cfg.validate()
        return cfg, _setup(cfg)
    except ValueError as err:
        raise ConfigError(str(err)) from err


def _run_one(cfg: RunConfig, setup: tuple):
    train = train_centralized if cfg.optimizer in CENTRAL_KINDS else train_distributed
    return train(cfg, setup=setup)


def cmd_train(args: argparse.Namespace) -> int:
    cfg, setup = build_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    code = EXIT_OK
    try:
        result = _run_one(cfg, setup)
    except TrainingDiverged as err:  # log every update that ran; checkpoint the last evaluated average
        print(f"aborted: {err} (checkpoint.json holds the last evaluated node average)", file=sys.stderr)
        result, code = TrainResult(None, err.last_params, err.log, err.ledger), EXIT_NUMERIC
    result.log.to_csv(out / "metrics.csv")
    save_params(result.theta_star, out / "checkpoint.json")
    final = result.log.final
    strategy = cfg.strategy if result.ledger is not None else "centralized"
    row = dict(strategy=strategy, L=cfg.layers, B=cfg.batch, K=cfg.K)
    row.update(zip(("rounds", "broadcasts", "scalars"), final.ledger_snapshot))
    if cfg.track_trace:
        write_trace_csv(out / "trace.csv", result.ledger)
    write_ledger_csv(out / "ledger.csv", [row])
    if code != EXIT_OK:
        return code
    print(f"{cfg.optimizer} on {cfg.graph} n={cfg.n}: {final.t} updates, {final.rounds} rounds, "
          f"train_mse={final.train_mse:.6f}, test_mse={final.test_mse:.6f}")
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    cfg, setup = build_config(args)
    trained = [method for method in COMPARE_METHODS if method[0] not in _REBILLED]
    env = os.environ.get("FDGNN_THREADS")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(len(trained), cpus or 1)
    if env:
        try:
            workers = max(1, int(env))
        except ValueError as err:
            raise ConfigError(f"FDGNN_THREADS must be an integer: {env!r}") from err
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    def run(method):
        name, kind, strategy = method
        run_cfg = replace(cfg, optimizer=kind, strategy=strategy or cfg.strategy)
        return name, _run_one(run_cfg, setup).log.records

    with ThreadPoolExecutor(max_workers=workers) as pool:
        records = dict(pool.map(run, trained))
    lines = [f"method,{METRICS_COLUMNS}"]
    for name, _, strategy in COMPARE_METHODS:
        if name in _REBILLED:  # billed on the round axis only, as the centralized runs are
            per_update = expected_rounds(strategy, cfg.layers, cfg.batch, cfg.K)
            records[name] = [replace(r, ledger_snapshot=(r.t * per_update, 0, 0))
                             for r in records[_REBILLED[name]]]
        lines += [f"{name},{r.csv_row()}" for r in records[name]]
        final = records[name][-1]
        print(f"{name:>18}: rounds={final.rounds:>8} "
              f"train_mse={final.train_mse:.6f} test_mse={final.test_mse:.6f}")
    (out / "compare.csv").write_text("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_costs(args: argparse.Namespace) -> int:
    if args.L < 1 or args.B < 1 or args.K < 1:
        raise ConfigError("L, B and K must be positive")
    rows = cost_table(args.L, args.B, args.K)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_ledger_csv(out / "costs.csv", rows)
    header = f"{'strategy':<22}{'formula':>10}{'measured':>10}{'broadcasts':>12}{'scalars':>10}"
    print(header)
    ok = True
    for row in rows:
        match = row["rounds"] == row["expected_rounds"]
        ok = ok and match
        flag = "" if match else "  MISMATCH"
        print(
            f"{row['strategy']:<22}{row['expected_rounds']:>10}{row['rounds']:>10}"
            f"{row['broadcasts']:>12}{row['scalars']:>10}{flag}"
        )
    return EXIT_OK if ok else 1


def cmd_gradcheck(args: argparse.Namespace) -> int:
    if args.n < 2 or args.layers < 1 or args.seed < 0:
        raise ConfigError("need n >= 2, layers >= 1 and seed >= 0")
    rng = np.random.default_rng(args.seed)
    graph = generate_er(args.n, 0.6, args.seed)
    shift = build_shift(graph, "normalized-adjacency")
    try:
        specs = RunConfig(layers=args.layers, hidden=args.hidden).model_specs(args.g0)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    params = init_params(specs, "glorot", args.seed + 1)
    X = rng.normal(size=(graph.n, args.g0))
    y = rng.normal(size=graph.n)
    theta = params.flatten()
    th0, th1 = stack_flat_params(specs, np.tile(theta, (graph.n, 1)))
    local = stacked_gradients(specs, th0, th1, shift, X[None], y[None]).grads
    averaged = local.mean(axis=0)
    dense = central_gradient(params, shift, X, y)
    fd = fd_gradient(specs, theta, shift, X, y)
    mask = np.abs(fd) > 1e-8
    rel_fd = float(np.max(np.abs(averaged[mask] - fd[mask]) / np.abs(fd[mask])))
    rel_dense = float(
        np.max(np.abs(averaged - dense)) / max(np.max(np.abs(dense)), 1e-30)
    )
    print(f"averaged-local vs finite-difference max relative error: {rel_fd:.3e}")
    print(f"averaged-local vs dense backprop   max relative error: {rel_dense:.3e}")
    passed = rel_fd < 1e-4
    print("PASS" if passed else "FAIL")
    return EXIT_OK if passed else 1


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdgnn",
        description="Distributed graph-convolution training simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run one training configuration")
    _add_run_flags(p_train)
    p_train.set_defaults(func=cmd_train)

    p_cmp = sub.add_parser("compare", help="run the seven methods on one shared dataset")
    _add_run_flags(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_costs = sub.add_parser("costs", help="per-strategy communication cost table")
    p_costs.add_argument("--L", type=int, required=True)
    p_costs.add_argument("--B", type=int, required=True)
    p_costs.add_argument("--K", type=int, default=1)
    p_costs.add_argument("--out", default="out")
    p_costs.set_defaults(func=cmd_costs)

    p_gc = sub.add_parser("gradcheck", help="compare local gradients against oracles")
    p_gc.add_argument("--seed", type=int, default=0)
    p_gc.add_argument("--n", type=int, default=10)
    p_gc.add_argument("--layers", type=int, default=2)
    p_gc.add_argument("--g0", type=int, default=3)
    p_gc.add_argument("--hidden", type=int, default=4)
    p_gc.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

"""Command-line surface.

Verbs: ``run`` (experiment), ``admissibility`` (relaxation margins),
``complexity`` (rademacher | offset | cover | fat | dudley | rates |
khinchine), ``minimax`` (game value and optional strategy export), and
``verify`` (the acceptance suite).  Config files are JSON; results print as
JSON on stdout.  Exit codes: 0 success, 1 check failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import losses as losses_mod
from .comparators import family_from_json
from .complexity import (
    PowerLogCover,
    StaircaseLogCover,
    cover_fat_bound,
    dudley_bound,
    fat_shattering,
    khinchine_lower_bound,
    offset_rademacher,
    rate_exponent,
    rate_lower,
    rate_upper,
    seq_cover_number,
    seq_rademacher,
    sparse_cover_bound,
)
from .errors import (
    CapabilityError,
    ConfigError,
    DomainError,
    FamilyLookupError,
    ProtocolError,
    ResourceGuardError,
    ShapeError,
    json_int,
    json_object,
)
from .forecasters import check_admissibility
from .harness import ExperimentConfig, _rng, build_relaxation, read_horizon, run_experiment
from .minimax import GameSpec, SolvedGame
from .trees import LabeledTree
from .verify import format_table, run_suite


def _load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json_object(json.load(fh), f"config file {path!r}")


def _tree(doc) -> LabeledTree:
    return LabeledTree(doc["levels"] if isinstance(doc, dict) else doc)


def _offset_fn(doc):
    if doc is None or json_object(doc, "offset").get("kind") == "zero":
        return lambda x: 0.0
    if doc.get("kind") == "power":
        k, r = float(doc.get("K", 1.0)), float(doc.get("r", 2.0))
        return lambda x: k * abs(x) ** r
    raise ConfigError(f"unknown offset spec {doc!r}")


def _log_cover_fn(doc):
    kind = json_object(doc, "log_cover").get("kind")
    if kind == "constant":
        return PowerLogCover(float(doc["value"]), 0.0)
    if kind == "power":
        return PowerLogCover(float(doc.get("coef", 1.0)), float(doc.get("power", 1.0)))
    if kind == "table":
        deltas = [float(v) for v in doc["deltas"]]
        values = [float(v) for v in doc["values"]]
        if len(deltas) == len(values):  # else the constructor refuses the table
            pairs = sorted(zip(deltas, values))
            deltas, values = [d for d, _ in pairs], [v for _, v in pairs]
        return StaircaseLogCover(deltas, values)
    raise ConfigError(f"unknown log-cover spec {doc!r}")


def _emit(doc: dict, out: str | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True, default=float)
    if out:
        Path(out).mkdir(parents=True, exist_ok=True)
        (Path(out) / "result.json").write_text(text + "\n", encoding="utf-8")
    print(text)


def _cmd_run(args) -> int:
    config = ExperimentConfig.from_file(args.config)
    if args.seed is not None:
        config.seed = args.seed
    if args.format:
        config.output["formats"] = args.format.split(",")
    summary = run_experiment(config, out_dir=args.out)
    print(json.dumps(summary, indent=2, sort_keys=True))
    ok = summary["bound_satisfied"]
    return 0 if ok in (None, True) else 1


def _cmd_admissibility(args) -> int:
    doc = _load(args.config)
    model = losses_mod.from_config(doc["loss"])
    family = family_from_json(doc["family"])
    horizon = read_horizon(doc["horizon"])
    forecaster, covariates, _ = build_relaxation(doc, model, family, horizon)
    if not covariates:
        raise ConfigError("admissibility needs a nonempty covariate_set")
    rng = _rng(int(doc.get("seed", 0)))
    n_hist = json_int(doc.get("histories", 8), "histories")
    if n_hist < 1:
        raise ConfigError(f"admissibility needs at least one history, got histories={n_hist}")
    hists = []
    for _ in range(n_hist):
        xs = [covariates[int(rng.integers(len(covariates)))] for _ in range(horizon)]
        ys = [float(rng.choice(forecaster.outcome_grid)) for _ in range(horizon)]
        hists.append(list(zip(xs, ys)))
    report = check_admissibility(
        forecaster.rel, model, covariates, forecaster.outcome_grid, forecaster.prediction_grid, hists
    )
    _emit(report.to_json_dict(), args.out)
    return 0 if report.passed() else 1


def _cmd_complexity(args) -> int:
    doc = _load(args.config)
    sub = args.subverb
    if sub == "rademacher":
        family = family_from_json(doc["family"])
        value = seq_rademacher(family, _tree(doc["tree"]))
        _emit({"seq_rademacher": value}, args.out)
    elif sub == "offset":
        family = family_from_json(doc["family"])
        value = offset_rademacher(
            family,
            _tree(doc["tree"]),
            _tree(doc["mu_tree"]),
            float(doc.get("C", 1.0)),
            _offset_fn(doc.get("offset")),
        )
        _emit({"offset_rademacher": value}, args.out)
    elif sub == "cover":
        family = family_from_json(doc["family"])
        report = seq_cover_number(
            family, _tree(doc["tree"]), float(doc["beta"]), doc.get("norm", "linf")
        )
        _emit(report.to_json_dict(), args.out)
    elif sub == "fat":
        family = family_from_json(doc["family"])
        dim, cert = fat_shattering(
            family,
            doc.get("covariate_set"),
            float(doc["beta"]),
            int(doc.get("max_depth", 6)),
        )
        _emit(
            {"fat": dim, "certificate": None if cert is None else cert.to_json_dict()},
            args.out,
        )
    elif sub == "dudley":
        value = dudley_bound(
            _log_cover_fn(doc["log_cover"]),
            int(doc["n"]),
            float(doc["rho"]),
            float(doc["gamma"]),
        )
        _emit({"dudley_bound": value}, args.out)
    elif sub == "rates":
        p, r, n = float(doc["p"]), float(doc.get("r", 2.0)), int(doc.get("n", 1024))
        out = {
            "exponent": rate_exponent(p, r),
            "upper": rate_upper(p, r, float(doc.get("G", 1.0)), float(doc.get("K", 1.0)), n),
            "lower": rate_lower(p, r, float(doc.get("R", 1.0)), float(doc.get("K", 1.0)), n),
        }
        if "M" in doc and "s" in doc:
            out["sparse_log_cover"] = sparse_cover_bound(
                int(doc["M"]), int(doc["s"]), float(doc.get("beta", 0.5))
            )
        if "fat" in doc:
            out["cover_fat_bound"] = cover_fat_bound(float(doc["beta"]), n, int(doc["fat"]))
        _emit(out, args.out)
    elif sub == "khinchine":
        value, holds = khinchine_lower_bound(int(doc["k"]))
        _emit({"mean_abs_sum": value, "holds": holds, "threshold": math.sqrt(int(doc["k"]) / 2.0)}, args.out)
        return 0 if holds else 1
    else:  # pragma: no cover - argparse restricts choices
        raise ConfigError(f"unknown complexity sub-verb {sub!r}")
    return 0


def _cmd_minimax(args) -> int:
    doc = _load(args.config)
    solved = SolvedGame(GameSpec.from_json_dict(doc))
    out_doc = json.loads(solved.to_json())
    if args.strategy:
        rounds, regret = solved.replay_optimal()
        out_doc["optimal_replay"] = {
            "rounds": [{"x": x, "yhat": yh, "y": y} for x, yh, y in rounds],
            "regret": regret,
        }
    _emit(out_doc, args.out)
    return 0


def _cmd_verify(args) -> int:
    results, status = run_suite(level=args.level)
    print(format_table(results))
    total = sum(r.seconds for r in results)
    print(f"total time {total:.1f}s")
    if args.level == "full" and total > 600:
        print("warning: full suite exceeded the 10 minute soft budget")
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regretlab",
        description="Online regression forecasters and the sequential-complexity engine.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="run a configured experiment")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--format", default=None, help="comma-separated: jsonl,csv,svg")
    p_run.set_defaults(fn=_cmd_run)

    p_adm = sub.add_parser("admissibility", help="check relaxation margins")
    p_adm.add_argument("--config", required=True)
    p_adm.add_argument("--out", default=None)
    p_adm.set_defaults(fn=_cmd_admissibility)

    p_cx = sub.add_parser("complexity", help="complexity computations")
    p_cx.add_argument(
        "subverb",
        choices=["rademacher", "offset", "cover", "fat", "dudley", "rates", "khinchine"],
    )
    p_cx.add_argument("--config", required=True)
    p_cx.add_argument("--out", default=None)
    p_cx.set_defaults(fn=_cmd_complexity)

    p_mm = sub.add_parser("minimax", help="solve a tiny game")
    p_mm.add_argument("--config", required=True)
    p_mm.add_argument("--out", default=None)
    p_mm.add_argument("--strategy", action="store_true", help="include the optimal replay")
    p_mm.set_defaults(fn=_cmd_minimax)

    p_vf = sub.add_parser("verify", help="run the acceptance suite")
    p_vf.add_argument("--level", choices=["fast", "full"], default="fast")
    p_vf.set_defaults(fn=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (DomainError, ShapeError, CapabilityError, ProtocolError, ResourceGuardError) as exc:
        message = f"{type(exc).__name__}: {exc}"
    # A ConfigError, a json.JSONDecodeError, or a config value that int() or
    # float() cannot read: each a ValueError.
    except (ValueError, FamilyLookupError, FileNotFoundError) as exc:
        message = f"configuration error: {exc}"
    except KeyError as exc:  # a family's unknown covariate is caught above
        message = f"configuration error: missing field {exc}"
    print(message, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())

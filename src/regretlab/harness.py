"""Experiment configs, sequence generators, and artifact emission.

An experiment is fully determined by its config: the seed drives a named
PCG64 generator for every stochastic choice, so replaying a config
reproduces byte-identical logs.  Outputs are JSON-lines round logs, a CSV
regret curve, a JSON summary, and optionally a hand-written (deterministic)
SVG plot.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from . import losses as losses_mod
from .comparators import ComparatorFamily, FiniteTableFamily, LinearFamily, family_from_json
from .errors import ConfigError, DomainError
from .forecasters import (
    ExpertsForecaster,
    FixedComparatorForecaster,
    RelaxationForecaster,
    VAWForecaster,
    conditional_rademacher_oracle,
    experts_relaxation_oracle,
    regret_bound,
    run_online,
    vaw_relaxation_oracle,
)
from .complexity import fat_shattering
from .losses import LossModel
from .minimax import GameSpec, SolvedGame

RNG_ALGORITHM = "PCG64"
# rounds.jsonl and summary.json are always written; csv and svg on request.
OUTPUT_FORMATS = ("jsonl", "csv", "svg")


@dataclass
class ExperimentConfig:
    seed: int
    loss: dict
    family: dict
    forecaster: dict
    generator: dict
    horizon: int
    output: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        try:
            return cls(
                seed=int(doc["seed"]),
                loss=doc["loss"],
                family=doc["family"],
                forecaster=doc["forecaster"],
                generator=doc["generator"],
                horizon=int(doc["horizon"]),
                output=doc.get("output", {}),
            )
        except KeyError as missing:
            raise ConfigError(f"experiment config missing field {missing}") from None

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def build_model(self) -> LossModel:
        return losses_mod.from_config(self.loss)

    def build_family(self) -> ComparatorFamily:
        return family_from_json(self.family)

    def build_forecaster(self, model: LossModel, family: ComparatorFamily):
        cfg = self.forecaster
        kind = cfg.get("kind")
        b = model.outcome_bound
        if kind == "experts":
            if not isinstance(family, FiniteTableFamily):
                raise ConfigError("the experts forecaster needs a finite table family")
            return ExpertsForecaster(family, cfg.get("B", b))
        if kind == "vaw":
            if not isinstance(family, LinearFamily):
                raise ConfigError("the ridge forecaster needs a linear family")
            return VAWForecaster(cfg.get("lambda", 1.0), cfg.get("B", b), family.dimension)
        if kind == "comparator":
            return FixedComparatorForecaster(family, cfg["handle"])
        if kind == "relaxation":
            rel_name = cfg.get("relaxation", "experts")
            if rel_name == "experts":
                rel = experts_relaxation_oracle(family, cfg.get("B", b), self.horizon)
            elif rel_name == "vaw":
                rel = vaw_relaxation_oracle(
                    cfg.get("lambda", 1.0), cfg.get("B", b), self.horizon, family.dimension
                )
            elif rel_name == "conditional_rademacher":
                rel = conditional_rademacher_oracle(
                    family,
                    model,
                    cfg.get("covariate_set", list(getattr(family, "covariate_ids", ()))),
                    cfg.get("mu_grid", [-b, 0.0, b]),
                    self.horizon,
                )
            else:
                raise ConfigError(f"unknown relaxation {rel_name!r}")
            return RelaxationForecaster(
                rel,
                model,
                cfg.get("prediction_grid", list(np.linspace(-b, b, 21))),
                cfg.get("outcome_grid", [-b, b]),
            )
        raise ConfigError(f"unknown forecaster kind {kind!r}")


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def generate_sequence(config: ExperimentConfig) -> list[tuple[Any, float]]:
    """Deterministic (seeded) covariate/outcome sequence for the config."""
    gen = config.generator
    kind = gen.get("kind")
    model = config.build_model()
    family = config.build_family()
    rng = _rng(config.seed)
    n = config.horizon
    b = model.outcome_bound

    if kind == "replay":
        path = Path(gen["path"])
        seq = []
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                doc = json.loads(line)
                x = doc["x"]
                seq.append((tuple(x) if isinstance(x, list) else x, float(doc["y"])))
        return seq[:n] if n else seq

    if kind == "iid_noise":
        if not isinstance(family, FiniteTableFamily):
            raise ConfigError("iid_noise draws covariates from a finite table family")
        expert = gen["expert"]
        noise = float(gen.get("noise", 0.0))
        seq = []
        for _ in range(n):
            x = family.covariate_ids[int(rng.integers(len(family.covariate_ids)))]
            y = family.evaluate(expert, x)
            if noise:
                y += noise * float(rng.standard_normal())
            seq.append((x, float(min(b, max(-b, y)))))
        return seq

    if kind == "adversarial_oracle":
        spec = GameSpec.from_json_dict(gen["game"])
        solved = SolvedGame(spec)
        rounds, _ = solved.replay_optimal()
        trace = [(x, y) for x, _, y in rounds]
        if not trace:
            raise ConfigError("adversarial oracle game has a zero horizon")
        return [trace[t % len(trace)] for t in range(n)]

    if kind == "shattering_adversary":
        if not isinstance(family, FiniteTableFamily):
            raise ConfigError("shattering adversary needs a finite table family")
        beta = float(gen["beta"])
        depth, cert = fat_shattering(
            family, beta=beta, max_depth=int(gen.get("max_depth", 4))
        )
        if cert is None:
            raise ConfigError(
                f"family shatters no tree at scale {beta}; no certificate to walk"
            )
        seq: list[tuple[Any, float]] = []
        while len(seq) < n:
            prefix: tuple[int, ...] = ()
            for t in range(1, depth + 1):
                if len(seq) == n:
                    break
                x = cert.covariate_tree.label_at(t, prefix)
                s = cert.witness.label_at(t, prefix)
                y_plus, y_minus, _ = model.two_point_witness(s)
                sign = 1 if rng.integers(2) else -1
                y = y_plus if sign > 0 else y_minus
                seq.append((x, float(y)))
                prefix = prefix + (sign,)
        return seq

    raise ConfigError(f"unknown generator kind {kind!r}")


def _theoretical_bound(config: ExperimentConfig, model, family) -> float | None:
    kind = config.forecaster.get("kind")
    if kind == "relaxation" and config.forecaster.get("relaxation", "experts") == "experts":
        # The experts relaxation certifies Rel(empty), the experts bound.  The
        # vaw relaxation bounds ridge-modified regret, which only vaw runs
        # compute; the conditional one's Rel(empty) is a full-horizon supremum.
        kind = "experts"
    b = model.outcome_bound
    try:
        if kind == "experts" and isinstance(family, FiniteTableFamily):
            return regret_bound(
                "experts", B=config.forecaster.get("B", b), size=family.n_predictors
            )
        if kind == "vaw" and isinstance(family, LinearFamily):
            return regret_bound(
                "vaw",
                n=config.horizon,
                d=family.dimension,
                B=config.forecaster.get("B", b),
                lam=config.forecaster.get("lambda", 1.0),
            )
    except DomainError:
        return None
    return None


def _write_svg(path: Path, curve: Sequence[float], bound: float | None) -> None:
    """Minimal deterministic SVG line plot of regret (and bound) vs round."""
    w, h, pad = 640, 360, 40
    n = max(len(curve), 1)
    top = max([abs(v) for v in curve] + [abs(bound) if bound is not None else 0.0, 1e-9])
    lo = min([0.0] + [v for v in curve])
    span = top - lo if top > lo else 1.0

    def sx(t: float) -> float:
        return pad + (w - 2 * pad) * (t / max(n - 1, 1))

    def sy(v: float) -> float:
        return h - pad - (h - 2 * pad) * ((v - lo) / span)

    pts = " ".join(f"{sx(i):.2f},{sy(v):.2f}" for i, v in enumerate(curve))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<polyline points="{pts}" fill="none" stroke="black" stroke-width="1.5"/>',
    ]
    if bound is not None:
        y = sy(bound)
        parts.append(
            f'<line x1="{pad}" y1="{y:.2f}" x2="{w - pad}" y2="{y:.2f}" '
            'stroke="gray" stroke-dasharray="6,4"/>'
        )
    parts.append(
        f'<text x="{pad}" y="{h - 10}" font-family="monospace" font-size="12">'
        f"cumulative regret over {len(curve)} rounds</text>"
    )
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n", encoding="utf-8")


def run_experiment(config: ExperimentConfig, out_dir: str | Path | None = None) -> dict:
    """Run the configured experiment and write the artifact bundle.

    Returns the summary document (also written to ``summary.json``).
    """
    formats = config.output.get("formats", ["jsonl", "csv"])
    unknown = sorted(set(formats) - set(OUTPUT_FORMATS))
    if unknown:
        raise ConfigError(
            f"unknown output format(s) {', '.join(unknown)}; known: {', '.join(OUTPUT_FORMATS)}"
        )
    sequence = generate_sequence(config)
    if config.horizon == 0:
        # Horizon 0 replays a whole file; forecaster, bound and summary use its length.
        config = replace(config, horizon=len(sequence))
    model = config.build_model()
    family = config.build_family()
    forecaster = config.build_forecaster(model, family)
    ridge = (
        float(config.forecaster.get("lambda", 1.0))
        if config.forecaster.get("kind") == "vaw"
        else 0.0
    )
    records, final_regret = run_online(forecaster, sequence, model, family, ridge=ridge)
    bound = _theoretical_bound(config, model, family)

    out = Path(out_dir) if out_dir is not None else Path(config.output.get("directory", "."))
    out.mkdir(parents=True, exist_ok=True)

    log_path = out / "rounds.jsonl"
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    lines = [encode(r.to_dict()) for r in records]
    log_text = "".join(line + "\n" for line in lines)
    log_path.write_text(log_text, encoding="utf-8")
    log_sha = hashlib.sha256(log_text.encode("utf-8")).hexdigest()

    if "csv" in formats:
        rows = ["t,cumulative_regret,bound"]
        for r in records:
            rows.append(f"{r.t},{r.cumulative_regret!r},{'' if bound is None else repr(bound)}")
        (out / "regret.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")

    if "svg" in formats:
        _write_svg(out / "regret.svg", [r.cumulative_regret for r in records], bound)

    summary = {
        "final_regret": final_regret,
        "bound": bound,
        "bound_satisfied": None if bound is None else bool(final_regret <= bound + 1e-9),
        "horizon": config.horizon,
        "rounds_logged": len(records),
        "forecaster": config.forecaster.get("kind"),
        "rng": {"algorithm": RNG_ALGORITHM, "seed": config.seed},
        "log_sha256": log_sha,
    }
    (out / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return summary

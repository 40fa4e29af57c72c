"""Experiment configs, sequence generators, and artifact emission.

An experiment is fully determined by its config: the seed drives a named
PCG64 generator for every stochastic choice, so replaying a config
reproduces byte-identical logs.  Outputs are JSON-lines round logs, a CSV
regret curve, a JSON summary, and optionally a hand-written (deterministic)
SVG plot.

The bundle is written from a run's columns (a :class:`RunLog`) in blocks of
:data:`WRITE_BLOCK_ROUNDS` rounds.  Each line of ``rounds.jsonl`` is the bytes
``json`` gives for the record's ``to_dict()`` (sorted keys, compact separators,
ASCII), filled into one fixed template: a finite float is its ``repr``, and
the cumulative-regret texts serve the CSV too, as the int round numbers' do;
each distinct covariate is encoded once a block and a vector is joined from
its elements' reprs; any other value (an int in a float column, a bool, a
non-finite float, a nested list) goes through the ``json`` encoder.  The
SVG's coordinates come from numpy, in the order of a per-point computation.

A ``replay`` generator reads ``{"x": ..., "y": ...}`` lines, skipping blank
ones; a list ``x`` becomes a tuple.  Each stripped line is one ``raw_decode``;
a line it rejects or leaves a tail of goes through ``json.loads`` to word the
error, so every UTF-8 file reads as with ``json.loads`` per line.  With a
horizon n > 0 it stops after n rounds and reads no further line, and a file
with fewer rounds raises :class:`ConfigError`; with horizon 0 it reads the
whole file.  A line that is not UTF-8 or not JSON (an int of over 4,300
digits included), lacks ``x`` or ``y``, or whose ``y`` is not a number or
too large for a float raises :class:`ConfigError` naming the file and the
1-based line.  A horizon that is not an integer or is negative, read from
a file or given to an :class:`ExperimentConfig`, is a :class:`ConfigError`
too.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from . import losses as losses_mod
from .comparators import ComparatorFamily, FiniteTableFamily, LinearFamily, family_from_json
from .errors import ConfigError, DomainError, json_int, json_object
from .forecasters import (
    ExpertsForecaster,
    FixedComparatorForecaster,
    RelaxationForecaster,
    RunLog,
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
# Rounds per block of the bundle writers: their texts do not grow with a run.
WRITE_BLOCK_ROUNDS = 2**10


@dataclass
class ExperimentConfig:
    seed: int
    loss: dict
    family: dict
    forecaster: dict
    generator: dict
    horizon: int
    output: dict = field(default_factory=dict)
    # The loss model and family, built on first use, so that a run's
    # generator and forecaster share one of each.
    _built: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.horizon = read_horizon(self.horizon)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        json_object(doc, "experiment config")
        try:
            return cls(
                seed=int(doc["seed"]),
                loss=doc["loss"],
                family=doc["family"],
                forecaster=doc["forecaster"],
                generator=doc["generator"],
                horizon=doc["horizon"],
                output=json_object(doc.get("output", {}), "output"),
            )
        except KeyError as missing:
            raise ConfigError(f"experiment config missing field {missing}") from None

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def build_model(self) -> LossModel:
        if "loss" not in self._built:
            self._built["loss"] = losses_mod.from_config(self.loss)
        return self._built["loss"]

    def build_family(self) -> ComparatorFamily:
        if "family" not in self._built:
            self._built["family"] = family_from_json(self.family)
        return self._built["family"]

    def build_forecaster(self, model: LossModel, family: ComparatorFamily):
        """``(forecaster, ridge, bound)``: the comparator loss's ridge is
        ``lambda`` for ``vaw`` and 0.0 otherwise, and the regret bound is None
        outside ``regret_bound``'s domain (``vaw`` with n < λd)."""
        cfg = json_object(self.forecaster, "forecaster")
        kind = cfg.get("kind")
        if kind == "experts":
            if not isinstance(family, FiniteTableFamily):
                raise ConfigError("the experts forecaster needs a finite table family")
            scale = _forecaster_scale(cfg, model)
            return ExpertsForecaster(family, scale), 0.0, _bound("experts", B=scale, size=family.n_predictors)
        if kind == "vaw":
            if not isinstance(family, LinearFamily):
                raise ConfigError("the ridge forecaster needs a linear family")
            lam, scale = cfg.get("lambda", 1.0), _forecaster_scale(cfg, model)
            # Built before the bound, so lambda <= 0 raises the forecaster's DomainError.
            forecaster = VAWForecaster(lam, scale, family.dimension)
            return forecaster, float(lam), _bound("vaw", n=self.horizon, d=family.dimension, B=scale, lam=lam)
        if kind == "comparator":
            return FixedComparatorForecaster(family, cfg["handle"]), 0.0, None
        if kind == "relaxation":
            forecaster, _, bound = build_relaxation(cfg, model, family, self.horizon)
            return forecaster, 0.0, bound
        raise ConfigError(f"unknown forecaster kind {kind!r}")


def read_horizon(horizon: Any) -> int:
    """A config's ``horizon``, a number of rounds: a :class:`ConfigError` unless
    a nonnegative integer, here and in every :class:`ExperimentConfig`."""
    horizon = json_int(horizon, "horizon")
    if horizon < 0:
        raise ConfigError(f"horizon {horizon} is negative; it counts rounds")
    return horizon


def _forecaster_scale(cfg: dict, model: LossModel) -> float:
    """The ``B`` of an experts or ridge forecaster or relaxation config
    (default: the loss's outcome bound).  A smaller ``B`` is a
    :class:`ConfigError`: outcomes range over the loss's whole interval, where
    the potentials and the regret bound at that ``B`` do not hold."""
    b = model.outcome_bound
    scale = float(cfg.get("B", b))
    if scale < b:
        raise ConfigError(f"forecaster B={scale} is below the loss's outcome bound B={b}")
    return scale


def _bound(kind: str, **params) -> float | None:
    """``regret_bound(kind, **params)``, or None outside its domain."""
    try:
        return regret_bound(kind, **params)
    except DomainError:
        return None


def build_relaxation(
    cfg: dict, model: LossModel, family: ComparatorFamily, horizon: int
) -> tuple[RelaxationForecaster, tuple, float | None]:
    """The relaxation forecaster a config names, the covariates it ranges
    over, and the regret bound a run of it reports.  The one reader of the
    relaxation keys, for ``regretlab run`` (a ``relaxation`` forecaster) and
    ``regretlab admissibility`` alike.

    With ``B`` the loss's outcome bound: ``relaxation`` is ``experts``
    (default), ``vaw`` or ``conditional_rademacher``; ``B`` (default B, at
    least B, see :func:`_forecaster_scale`) and ``lambda`` (1.0) set the
    experts and ridge potentials; the ridge
    dimension is the linear family's; ``mu_grid`` ([-B, 0, B]) is the
    conditional relaxation's mean grid; ``covariate_set`` (the family's
    covariates) has each list covariate read as a tuple; ``prediction_grid``
    (21 evenly spaced points on [-B, B]) and ``outcome_grid`` ([-B, B]) are
    the forecaster's grids.  A relaxation paired with a family of another
    kind is a :class:`ConfigError`.

    The bound is the experts bound, Rel(empty) of the experts relaxation, or
    None: the vaw relaxation bounds ridge-modified regret, which only vaw runs
    compute, and the conditional one's Rel(empty) is a full-horizon supremum.
    """
    b = model.outcome_bound
    name = cfg.get("relaxation", "experts")
    covariates = tuple(
        tuple(x) if isinstance(x, list) else x
        for x in cfg.get("covariate_set", getattr(family, "covariate_ids", ()))
    )
    if name in ("experts", "conditional_rademacher") and not isinstance(family, FiniteTableFamily):
        raise ConfigError(f"the {name} relaxation needs a finite table family")
    if name == "vaw" and not isinstance(family, LinearFamily):
        raise ConfigError("the vaw relaxation needs a linear family")
    bound = None
    if name == "experts":
        scale = _forecaster_scale(cfg, model)
        rel = experts_relaxation_oracle(family, scale, horizon)
        bound = _bound("experts", B=scale, size=family.n_predictors)
    elif name == "vaw":
        rel = vaw_relaxation_oracle(cfg.get("lambda", 1.0), _forecaster_scale(cfg, model), horizon, family.dimension)
    elif name == "conditional_rademacher":
        rel = conditional_rademacher_oracle(family, model, covariates, cfg.get("mu_grid", [-b, 0.0, b]), horizon)
    else:
        raise ConfigError(f"unknown relaxation {name!r}")
    forecaster = RelaxationForecaster(
        rel,
        model,
        cfg.get("prediction_grid", list(np.linspace(-b, b, 21))),
        cfg.get("outcome_grid", [-b, b]),
    )
    return forecaster, covariates, bound


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def generate_sequence(config: ExperimentConfig) -> list[tuple[Any, float]]:
    """Deterministic (seeded) covariate/outcome sequence for the config."""
    gen = json_object(config.generator, "generator")
    kind = gen.get("kind")
    model = config.build_model()
    family = config.build_family()
    rng = _rng(config.seed)
    n = config.horizon
    b = model.outcome_bound

    if kind == "replay":
        return _replay(Path(gen["path"]), n)

    if kind == "iid_noise":
        if not isinstance(family, FiniteTableFamily):
            raise ConfigError("iid_noise draws covariates from a finite table family")
        expert = gen["expert"]
        if (
            isinstance(expert, bool)
            or not isinstance(expert, (int, np.integer))
            or not 0 <= expert < family.n_predictors
        ):
            raise ConfigError(
                f"iid_noise expert {expert!r} is not a predictor index below {family.n_predictors}"
            )
        return iid_noise_rounds(family, expert, float(gen.get("noise", 0.0)), n, b, rng)

    if kind == "adversarial_oracle":
        return tiled_game_rounds(GameSpec.from_json_dict(gen["game"]), n)

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
        # One sign per round and no other draw: one batch gives the same stream.
        signs = rng.integers(2, size=n).tolist()
        seq: list[tuple[Any, float]] = []
        while len(seq) < n:
            prefix: tuple[int, ...] = ()
            for t in range(1, depth + 1):
                if len(seq) == n:
                    break
                x = cert.covariate_tree.label_at(t, prefix)
                s = cert.witness.label_at(t, prefix)
                y_plus, y_minus, _ = model.two_point_witness(s)
                sign = 1 if signs[len(seq)] else -1
                y = y_plus if sign > 0 else y_minus
                seq.append((x, float(y)))
                prefix = prefix + (sign,)
        return seq

    raise ConfigError(f"unknown generator kind {kind!r}")


def iid_noise_rounds(
    family: FiniteTableFamily, expert: int, noise: float, n: int, B: float, rng: np.random.Generator
) -> list[tuple[Any, float]]:
    """``n`` rounds, each a covariate drawn uniformly from the family's and
    the expert's value there plus ``noise`` times a standard normal, clipped
    to [-B, B].  Each round draws its covariate, then its noise when
    ``noise`` is nonzero, so the stream is that of one scalar draw each."""
    ids = family.covariate_ids
    row = [family.evaluate(expert, x) for x in ids]
    seq = []
    for _ in range(n):
        j = int(rng.integers(len(ids)))
        y = row[j]
        if noise:
            y += noise * float(rng.standard_normal())
        seq.append((ids[j], float(min(B, max(-B, y)))))
    return seq


def tiled_game_rounds(spec: GameSpec, n: int) -> list[tuple[Any, float]]:
    """``n`` rounds of the solved game's optimal self-play, its ``(x, y)``
    trace repeated from the start.  A zero-horizon game has no trace: a
    :class:`ConfigError`."""
    rounds, _ = SolvedGame(spec).replay_optimal()
    if not rounds:
        raise ConfigError("adversarial oracle game has a zero horizon")
    trace = [(x, y) for x, _, y in rounds]
    return [trace[t % len(trace)] for t in range(n)]


_raw_decode = json.JSONDecoder().raw_decode


def _replay(path: Path, n: int) -> list[tuple[Any, float]]:
    """The first ``n`` rounds of a JSON-lines file of ``{"x": ..., "y": ...}``
    objects (every round when ``n`` is 0); blank lines are skipped and no
    line after round ``n`` is read.  A file with fewer than ``n > 0`` rounds
    is a :class:`ConfigError`."""
    seq: list[tuple[Any, float]] = []

    def bad(lineno: int, what: str) -> ConfigError:
        return ConfigError(f"replay file {str(path)!r}, line {lineno}: {what}")

    # Bytes that are not UTF-8 decode to lone surrogates, which no UTF-8
    # text holds, so that the line they are on can be named.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise bad(lineno, "not UTF-8") from None
            # A stripped line starts with no JSON whitespace, so json.loads is
            # raw_decode plus a check that nothing follows the value.
            try:
                doc, end = _raw_decode(line)
            except ValueError:
                end = -1
            if end != len(line):
                try:
                    doc = json.loads(line)
                except ValueError as exc:  # JSONDecodeError, or an int of over 4,300 digits
                    raise bad(lineno, f"not JSON ({getattr(exc, 'msg', exc)})") from None
            if not isinstance(doc, dict) or "x" not in doc or "y" not in doc:
                raise bad(lineno, "not an object with keys 'x' and 'y'")
            x = doc["x"]
            try:
                y = float(doc["y"])
            except (TypeError, ValueError):
                raise bad(lineno, f"y={doc['y']!r} is not a number") from None
            except OverflowError:  # an int beyond the float range
                raise bad(lineno, "y is too large for a float") from None
            seq.append((tuple(x) if isinstance(x, list) else x, y))
            if len(seq) == n:
                break
    if len(seq) < n:
        raise ConfigError(f"replay file {str(path)!r} ends after {len(seq)} of the horizon's {n} rounds")
    return seq


def _write_svg(path: Path, curve: Sequence[float], bound: float | None) -> None:
    """Minimal deterministic SVG line plot of regret (and bound) vs round."""
    w, h, pad = 640, 360, 40
    n = max(len(curve), 1)
    # Python's max and min over the column as over one list, in its order.
    top = max(itertools.chain(map(abs, curve), (abs(bound) if bound is not None else 0.0, 1e-9)))
    lo = min(itertools.chain((0.0,), curve))
    span = top - lo if top > lo else 1.0

    # Scalars or arrays: numpy applies the same operations in the same order.
    def sx(t):
        return pad + (w - 2 * pad) * (t / max(n - 1, 1))

    def sy(v):
        return h - pad - (h - 2 * pad) * ((v - lo) / span)

    # The polyline's points are written between head and tail, in blocks.
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">\n'
        f'<rect width="{w}" height="{h}" fill="white"/>\n'
        '<polyline points="'
    )
    tail = ['" fill="none" stroke="black" stroke-width="1.5"/>']
    if bound is not None:
        y = sy(bound)
        tail.append(
            f'<line x1="{pad}" y1="{y:.2f}" x2="{w - pad}" y2="{y:.2f}" '
            'stroke="gray" stroke-dasharray="6,4"/>'
        )
    tail.append(
        f'<text x="{pad}" y="{h - 10}" font-family="monospace" font-size="12">'
        f"cumulative regret over {len(curve)} rounds</text>"
    )
    tail.append("</svg>")
    # np.errstate: as Python floats, which warn of no inf or nan.
    with open(path, "w", encoding="utf-8") as fh, np.errstate(all="ignore"):
        fh.write(head)
        for start in range(0, len(curve), WRITE_BLOCK_ROUNDS):
            xs = sx(np.arange(start, min(start + WRITE_BLOCK_ROUNDS, len(curve)))).tolist()
            ys = sy(np.asarray(curve[start : start + WRITE_BLOCK_ROUNDS], dtype=float)).tolist()
            fh.write(" " * (start > 0) + " ".join(map("%.2f,%.2f".__mod__, zip(xs, ys))))
        fh.write("\n".join(tail) + "\n")


# One RoundRecord.to_dict() as compact JSON with sorted keys.
_ROUND_LINE = '{"cumulative_regret":%s,"loss":%s,"t":%s,"x":%s,"y":%s,"yhat":%s}\n'


def _reprs(values: Sequence[Any], kind: type) -> list[str] | None:
    """``repr`` of each value when every value is exactly a ``kind`` (int or
    float) and finite, where ``repr`` is the text ``json`` writes; else None."""
    if set(map(type, values)) - {kind}:
        return None
    texts = list(map(kind.__repr__, values))
    # Of all float reprs only nan, inf and -inf contain an "n".
    return None if "n" in "".join(texts) else texts


def _json_texts(values: Sequence[Any], kind: type, encode: Callable[[Any], str]) -> list[str]:
    texts = _reprs(values, kind)
    return texts if texts is not None else list(map(encode, values))


def _covariate_texts(xs: Sequence[Any], encode: Callable[[Any], str]) -> list[str]:
    """JSON text of each covariate as ``RoundRecord.to_dict`` holds it: a
    vector joined from its element reprs, any other covariate encoded once
    per distinct value."""
    if set(map(type, xs)) == {str}:
        text_of = {x: encode(x) for x in set(xs)}
        return list(map(text_of.__getitem__, xs))
    texts = []
    encoded: dict = {}
    for x in xs:
        if isinstance(x, (tuple, list, np.ndarray)):
            texts.append(_vector_text(x.tolist() if isinstance(x, np.ndarray) else x, encode))
        elif isinstance(x, float):  # -0.0 == 0.0, but their texts differ
            texts.append(encode(x))
        else:
            key = (type(x), x)
            try:
                texts.append(encoded[key])
            except KeyError:
                texts.append(encoded.setdefault(key, encode(x)))
            except TypeError:  # unhashable
                texts.append(encode(x))
    return texts


def _vector_text(values: Any, encode: Callable[[Any], str]) -> str:
    try:
        # float.__repr__ is json's text for a finite float or float subclass.
        text = "[" + ",".join(map(float.__repr__, values)) + "]"
    except TypeError:  # an int, a bool, a nested list or a 0-d array's scalar
        return encode(values)
    return encode(values) if "n" in text else text


def _write_rounds(out: Path, log: RunLog, bound: float | None, csv: bool) -> str:
    """Write ``rounds.jsonl`` (and ``regret.csv`` when ``csv``) from the
    log's columns, byte for byte as ``json`` would encode each record's
    ``to_dict()``; returns the log's SHA-256.  The regret texts serve both
    files, and so do the round numbers' when each is an int."""
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    row = "%s,%s," + ("" if bound is None else repr(bound)).replace("%", "%%") + "\n"
    digest = hashlib.sha256()
    with open(out / "rounds.jsonl", "wb") as fh, (
        open(out / "regret.csv", "w", encoding="utf-8") if csv else contextlib.nullcontext()
    ) as csv_file:
        if csv:
            csv_file.write("t,cumulative_regret,bound\n")
        for start in range(0, len(log.t), WRITE_BLOCK_ROUNDS):
            ts, xs, yhats, ys, losses, regrets = (c[start : start + WRITE_BLOCK_ROUNDS] for c in log)
            t_texts = _reprs(ts, int)
            regret_texts = _reprs(regrets, float)
            lines = zip(
                regret_texts if regret_texts is not None else list(map(encode, regrets)),
                _json_texts(losses, float, encode),
                t_texts if t_texts is not None else list(map(encode, ts)),
                _covariate_texts(xs, encode),
                _json_texts(ys, float, encode),
                _json_texts(yhats, float, encode),
            )
            chunk = "".join(map(_ROUND_LINE.__mod__, lines)).encode("utf-8")
            digest.update(chunk)
            fh.write(chunk)
            if csv:
                rows = zip(
                    t_texts if t_texts is not None else map(format, ts),  # a bool t is True here, true in the log
                    regret_texts if regret_texts is not None else map(repr, regrets),
                )
                csv_file.write("".join(map(row.__mod__, rows)))
    return digest.hexdigest()


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
    model = config.build_model()
    family = config.build_family()
    if config.horizon == 0:
        # Horizon 0 replays a whole file; forecaster, bound and summary use its length.
        config = replace(config, horizon=len(sequence))
    forecaster, ridge, bound = config.build_forecaster(model, family)
    log = run_online(forecaster, sequence, model, family, ridge=ridge)
    del sequence

    out = Path(out_dir) if out_dir is not None else Path(config.output.get("directory", "."))
    out.mkdir(parents=True, exist_ok=True)

    log_sha = _write_rounds(out, log, bound, "csv" in formats)

    if "svg" in formats:
        _write_svg(out / "regret.svg", log.cumulative_regret, bound)

    summary = {
        "final_regret": log.final_regret,
        "bound": bound,
        "bound_satisfied": None if bound is None else bool(log.final_regret <= bound + 1e-9),
        "horizon": config.horizon,
        "rounds_logged": len(log.t),
        "forecaster": config.forecaster.get("kind"),
        "rng": {"algorithm": RNG_ALGORITHM, "seed": config.seed},
        "log_sha256": log_sha,
    }
    (out / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return summary

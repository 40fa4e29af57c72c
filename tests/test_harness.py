"""Experiment configs, generators, artifact bundles, and the CLI."""

import hashlib
import json
import math
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from regretlab import cli, harness, verify
from regretlab.cli import main as cli_main
from regretlab.complexity import fat_shattering
from regretlab.errors import ConfigError, ProtocolError
from regretlab.forecasters import RoundRecord, RunLog, regret_bound
from regretlab.harness import ExperimentConfig, generate_sequence, run_experiment
from regretlab.minimax import GameSpec, SolvedGame
from regretlab.verify import CheckResult, run_suite

# The bundle writers' block of rounds.
BLOCK = harness.WRITE_BLOCK_ROUNDS

EXPERTS_FAMILY = {
    "variant": "finite_table",
    "covariate_ids": ["a", "b"],
    "values": [[0.5, -0.5], [-0.25, 0.75], [0.0, 0.0]],
}


# The two-round square-loss game of criterion 01's tiled trace, without its
# family.
ORACLE_GAME = {
    "loss": {"name": "square", "B": 1.0},
    "horizon": 2,
    "covariate_set": ["a", "b"],
    "outcome_grid": [-1.0, 1.0],
    "prediction_grid": [-1.0, -0.5, 0.0, 0.5, 1.0],
}


def experts_config(tmp_path, horizon=50, seed=7, generator=None, formats=None):
    return ExperimentConfig.from_dict(
        {
            "seed": seed,
            "loss": {"name": "square", "B": 1.0},
            "family": EXPERTS_FAMILY,
            "forecaster": {"kind": "experts", "B": 1.0},
            "generator": generator or {"kind": "iid_noise", "expert": 0, "noise": 0.2},
            "horizon": horizon,
            "output": {"directory": str(tmp_path), "formats": formats or ["jsonl", "csv", "svg"]},
        }
    )


def reference_replay(path, n):
    """The replay reader with one ``json.loads`` per line, as it was before
    the harness parsed with ``raw_decode``; it does not check the horizon."""
    seq = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            where = f"replay file {str(path)!r}, line {lineno}"
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{where}: not JSON ({exc.msg})") from None
            if not isinstance(doc, dict) or "x" not in doc or "y" not in doc:
                raise ConfigError(f"{where}: not an object with keys 'x' and 'y'")
            x = doc["x"]
            try:
                y = float(doc["y"])
            except (TypeError, ValueError):
                raise ConfigError(f"{where}: y={doc['y']!r} is not a number") from None
            seq.append((tuple(x) if isinstance(x, list) else x, y))
            if len(seq) == n:
                break
    return seq


# Replay files whose first line is the case and whose second is a good round,
# so that horizon 1 reads the case alone and horizon 0 reads on.
GOOD = '{"x": "b", "y": -0.25}\n'
REPLAY_CASES = {
    name: case + "\n" + GOOD
    for name, case in {
        "plain": '{"x": "a", "y": 0.5}',
        "extra-object": '{"x": "a", "y": 0.5} {"x": "b", "y": 1}',
        "extra-brace": '{"x": "a", "y": 0.5}}',
        "extra-word": '{"x": "a", "y": 0.5}x',
        "extra-nul": '{"x": "a", "y": 0.5}\x00',
        "trailing-comma": '{"x": "a", "y": 0.5,}',
        "trailing-comma-in-x": '{"x": [0.5,], "y": 0.5}',
        "bom": '\ufeff{"x": "a", "y": 0.5}',
        "nan-and-infinity": '{"x": [NaN, -Infinity, Infinity], "y": NaN}',
        "infinite-y": '{"x": "a", "y": -Infinity}',
        "duplicate-keys": '{"x": "a", "y": 0.5, "x": "b", "y": -0.0}',
        "bad-escape": '{"x": "\\q", "y": 0.5}',
        "escaped-lone-surrogate": '{"x": "\\ud800", "y": 0.5}',
        "raw-lone-surrogate": '{"x": "\ud800", "y": 0.5}',
        "escaped-nul": '{"x": "a\\u0000", "y": 0.5}',
        "raw-nul": '{"x": "a\x00", "y": 0.5}',
        "crlf": '{"x": "a", "y": 0.5}\r',
        "padded": ' \t\x0c{"x": "a", "y": 0.5}\xa0  ',
        "nested-x": '{"x": [[0.5, {"k": [1, true]}], "s", null], "y": 1}',
        "object-x": '{"x": {"b": 1, "a": [0.5]}, "y": 1}',
        "long-int-y": '{"x": "a", "y": ' + "1" * 5000 + "}",
        "list-line": "[0.5, 1]",
        "scalar-line": "0.5",
        "string-line": '"a"',
        "empty-object": "{}",
        "missing-y": '{"x": "a"}',
        "y-numeric-string": '{"x": "a", "y": "0.5"}',
        "y-string": '{"x": "a", "y": "high"}',
        "y-null": '{"x": "a", "y": null}',
        "y-bool": '{"x": "a", "y": true}',
        "y-list": '{"x": "a", "y": [0.5]}',
        "truncated": '{"x": "a", "y": ',
    }.items()
}
# A good round, then a bad line that horizon 1 never reads.
REPLAY_CASES["bad-line-after-the-horizon"] = GOOD + "\n\nnot json\n"
# Cases the per-line reader lets through as bare ValueErrors (a
# UnicodeDecodeError, and json's int conversion), and the ConfigError that
# names their line instead.
NAMED_ERRORS = {
    "raw-lone-surrogate": "line 1: not UTF-8",
    "long-int-y": "line 1: not JSON (Exceeds the limit (4300 digits) for integer string conversion",
}


class TestGenerators:
    def test_iid_noise_zero_reproduces_expert(self, tmp_path):
        cfg = experts_config(tmp_path, generator={"kind": "iid_noise", "expert": 1, "noise": 0.0})
        seq = generate_sequence(cfg)
        fam = cfg.build_family()
        assert all(y == fam.evaluate(1, x) for x, y in seq)

    def test_iid_outputs_clipped_to_outcome_range(self, tmp_path):
        cfg = experts_config(tmp_path, generator={"kind": "iid_noise", "expert": 0, "noise": 3.0})
        assert all(-1.0 <= y <= 1.0 for _, y in generate_sequence(cfg))

    def test_replay_round_trips(self, tmp_path):
        path = tmp_path / "seq.jsonl"
        rows = [{"x": "a", "y": 0.5}, {"x": "b", "y": -1.0}]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        cfg = experts_config(tmp_path, horizon=2, generator={"kind": "replay", "path": str(path)})
        assert generate_sequence(cfg) == [("a", 0.5), ("b", -1.0)]

    def test_adversarial_oracle_tiles_the_trace(self, tmp_path):
        game = {
            "family": {
                "variant": "finite_table",
                "covariate_ids": ["a"],
                "values": [[1.0], [-1.0]],
            },
            "loss": {"name": "square", "B": 1.0},
            "horizon": 2,
            "covariate_set": ["a"],
            "outcome_grid": [-1.0, 1.0],
            "prediction_grid": [-1.0, 0.0, 1.0],
        }
        cfg = experts_config(
            tmp_path, horizon=7, generator={"kind": "adversarial_oracle", "game": game}
        )
        seq = generate_sequence(cfg)
        assert len(seq) == 7
        assert seq[:2] == seq[2:4]  # period two

    def test_adversarial_oracle_plays_the_solved_game_s_trace(self, tmp_path):
        game = dict(ORACLE_GAME, family=EXPERTS_FAMILY)
        spec = GameSpec.from_json_dict(game)
        rounds, _ = SolvedGame(spec).replay_optimal()
        trace = [(x, y) for x, _, y in rounds]
        cfg = experts_config(tmp_path, horizon=5, generator={"kind": "adversarial_oracle", "game": game})
        assert generate_sequence(cfg) == harness.tiled_game_rounds(spec, 5) == trace * 2 + trace[:1]
        assert harness.tiled_game_rounds(spec, 0) == []

    def test_adversarial_oracle_with_a_zero_horizon_game_is_a_config_error(self, tmp_path):
        game = dict(ORACLE_GAME, family=EXPERTS_FAMILY, horizon=0)
        for horizon in (0, 5):
            generator = {"kind": "adversarial_oracle", "game": game}
            cfg = experts_config(tmp_path, horizon=horizon, generator=generator)
            with pytest.raises(ConfigError, match="^adversarial oracle game has a zero horizon$"):
                generate_sequence(cfg)

    def test_adversarial_oracle_run_keeps_its_round_log(self, tmp_path):
        """The run of the CI workflow's oracle step: experts against the
        two-round game's trace tiled to 200 rounds."""
        generator = {"kind": "adversarial_oracle", "game": dict(ORACLE_GAME, family=EXPERTS_FAMILY)}
        summary = run_experiment(experts_config(tmp_path, horizon=200, generator=generator), tmp_path / "out")
        assert summary["log_sha256"] == "68045bb7969d8e8e55700245fcae295ac6c9c7f4b6a36624d363ead20c1e396f"

    def test_shattering_adversary_emits_witness_outcomes(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            {
                "seed": 3,
                "loss": {"name": "square", "B": 2.0},
                "family": {
                    "variant": "finite_table",
                    "covariate_ids": ["a"],
                    "values": [[1.0], [-1.0]],
                },
                "forecaster": {"kind": "experts", "B": 2.0},
                "generator": {"kind": "shattering_adversary", "beta": 2.0},
                "horizon": 9,
                "output": {"directory": str(tmp_path)},
            }
        )
        seq = generate_sequence(cfg)
        assert len(seq) == 9
        assert all(x == "a" for x, _ in seq)
        assert set(y for _, y in seq) <= {-2.0, 2.0}

    def test_shattering_adversary_requires_certificate(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            {
                "seed": 3,
                "loss": {"name": "square", "B": 1.0},
                "family": {
                    "variant": "finite_table",
                    "covariate_ids": ["a"],
                    "values": [[0.5]],
                },
                "forecaster": {"kind": "experts", "B": 1.0},
                "generator": {"kind": "shattering_adversary", "beta": 0.5},
                "horizon": 4,
                "output": {"directory": str(tmp_path)},
            }
        )
        with pytest.raises(ConfigError):
            generate_sequence(cfg)

    def test_replay_stops_reading_at_the_horizon(self, tmp_path):
        path = tmp_path / "seq.jsonl"
        path.write_text('{"x": "a", "y": 0.5}\n\n{"x": "b", "y": -1.0}\nnot json\n')
        cfg = experts_config(tmp_path, horizon=2, generator={"kind": "replay", "path": str(path)})
        assert generate_sequence(cfg) == [("a", 0.5), ("b", -1.0)]

    @pytest.mark.parametrize(
        "line, message",
        [
            ('{"x": "a", "y": ', "line 3: not JSON"),
            ('{"y": 0.5}', "line 3: not an object with keys 'x' and 'y'"),
            ('{"x": "a"}', "line 3: not an object with keys 'x' and 'y'"),
            ("[0.5]", "line 3: not an object with keys 'x' and 'y'"),
            ('{"x": "a", "y": "high"}', "line 3: y='high' is not a number"),
            ('{"x": "a", "y": null}', "line 3: y=None is not a number"),
        ],
    )
    def test_replay_errors_name_the_file_and_line(self, tmp_path, line, message):
        path = tmp_path / "seq.jsonl"
        path.write_text('{"x": "a", "y": 0.5}\n\n' + line + "\n")
        cfg = experts_config(tmp_path, horizon=0, generator={"kind": "replay", "path": str(path)})
        with pytest.raises(ConfigError) as info:
            generate_sequence(cfg)
        assert str(info.value).startswith(f"replay file {str(path)!r}, {message}")

    @pytest.mark.parametrize("n", [0, 1])
    @pytest.mark.parametrize("name", REPLAY_CASES)
    def test_replay_matches_the_per_line_reader(self, tmp_path, name, n):
        """The same rounds as one ``json.loads`` per line, or the same error;
        where that reader raises a bare ValueError, a ConfigError naming the
        file and the line."""
        path = tmp_path / "seq.jsonl"
        path.write_bytes(REPLAY_CASES[name].encode("utf-8", "surrogatepass"))

        def outcome(read):
            try:
                return repr(read(path, n))  # repr: nan == nan, and -0.0 != 0.0
            except (ValueError, ConfigError) as exc:
                return type(exc), str(exc)

        got, want = outcome(harness._replay), outcome(reference_replay)
        if name not in NAMED_ERRORS:
            assert got == want
            return
        assert issubclass(want[0], ValueError) and not issubclass(want[0], ConfigError)
        assert got[0] is ConfigError
        assert got[1].startswith(f"replay file {str(path)!r}, {NAMED_ERRORS[name]}")

    @pytest.mark.parametrize(
        "lines, n, message",
        [
            # Bytes that are not UTF-8 on line 3, in x and outside any string.
            ([b'{"x": "a", "y": 0.5}', b"", b'{"x": "a\xff", "y": 0.5}'], 0, "line 3: not UTF-8"),
            ([b'{"x": "a", "y": 0.5}', b"", b'{"x": "a", "y": 0.5}\xed\xa0'], 0, "line 3: not UTF-8"),
            # A valid line of non-ASCII text before a bad one.
            (['{"x": "\u00e9\u4e2d", "y": 0.5}'.encode(), b'\xc3{"x": "a", "y": 0.5}'], 0, "line 2: not UTF-8"),
            # An int y beyond the float range.
            ([b'{"x": "a", "y": 1' + b"0" * 400 + b"}"], 1, "line 1: y is too large for a float"),
        ],
    )
    def test_replay_errors_name_the_line_of_bad_bytes_and_huge_ys(self, tmp_path, lines, n, message):
        path = tmp_path / "seq.jsonl"
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(ConfigError) as info:
            harness._replay(path, n)
        assert str(info.value) == f"replay file {str(path)!r}, {message}"

    def test_replay_reads_no_bytes_after_the_horizon(self, tmp_path):
        path = tmp_path / "seq.jsonl"
        path.write_bytes('{"x": "\u00e9", "y": 0.5}\n'.encode() + b"\xff\xfe\n")
        assert harness._replay(path, 1) == [("\u00e9", 0.5)]
        with pytest.raises(ConfigError, match="line 2: not UTF-8"):
            harness._replay(path, 0)

    def test_replay_shorter_than_the_horizon(self, tmp_path):
        path = tmp_path / "seq.jsonl"
        path.write_text('{"x": "a", "y": 0.5}\n\n')
        cfg = experts_config(tmp_path, horizon=5, generator={"kind": "replay", "path": str(path)})
        with pytest.raises(ConfigError) as info:
            run_experiment(cfg, tmp_path / "out")
        assert str(info.value) == f"replay file {str(path)!r} ends after 1 of the horizon's 5 rounds"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("expert", [3, -1, 1.0, "1", True, None])
    def test_iid_noise_refuses_an_expert_that_is_not_a_row(self, tmp_path, expert):
        cfg = experts_config(tmp_path, generator={"kind": "iid_noise", "expert": expert, "noise": 0.2})
        with pytest.raises(ConfigError, match="is not a predictor index below 3"):
            generate_sequence(cfg)

    def test_iid_noise_reads_the_expert_at_each_covariate(self, tmp_path):
        # A repeated covariate id names the last column that carries it.
        family = {"variant": "finite_table", "covariate_ids": ["a", "a", "b"], "values": [[0.5, -0.5, 0.25]]}
        cfg = experts_config(tmp_path, horizon=30, generator={"kind": "iid_noise", "expert": 0, "noise": 0.0})
        cfg.family = family
        fam = cfg.build_family()
        seq = generate_sequence(cfg)
        assert {x for x, _ in seq} == {"a", "b"}
        assert all(y == fam.evaluate(0, x) for x, y in seq)

    def test_unknown_generator(self, tmp_path):
        cfg = experts_config(tmp_path, generator={"kind": "mystery"})
        with pytest.raises(ConfigError):
            generate_sequence(cfg)


def reference_generate_sequence(config):
    """The iid_noise and shattering adversary generators with one scalar
    draw per covariate, noise and sign, round by round."""
    gen = config.generator
    model, family = config.build_model(), config.build_family()
    rng = harness._rng(config.seed)
    n, b = config.horizon, model.outcome_bound
    seq = []
    if gen["kind"] == "iid_noise":
        noise = float(gen.get("noise", 0.0))
        ids = family.covariate_ids
        row = [family.evaluate(gen["expert"], x) for x in ids]
        for _ in range(n):
            j = int(rng.integers(len(ids)))
            y = row[j]
            if noise:
                y += noise * float(rng.standard_normal())
            seq.append((ids[j], float(min(b, max(-b, y)))))
        return seq
    depth, cert = fat_shattering(family, beta=float(gen["beta"]), max_depth=int(gen.get("max_depth", 4)))
    while len(seq) < n:
        prefix = ()
        for t in range(1, depth + 1):
            if len(seq) == n:
                break
            y_plus, y_minus, _ = model.two_point_witness(cert.witness.label_at(t, prefix))
            sign = 1 if rng.integers(2) else -1
            seq.append((cert.covariate_tree.label_at(t, prefix), float(y_plus if sign > 0 else y_minus)))
            prefix = prefix + (sign,)
    return seq


def shattering_config(tmp_path, horizon, seed):
    # Four sign patterns on two covariates shatter a depth-2 tree at scale 2.
    return ExperimentConfig.from_dict(
        {
            "seed": seed,
            "loss": {"name": "square", "B": 2.0},
            "family": {
                "variant": "finite_table",
                "covariate_ids": ["a", "b"],
                "values": [[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]],
            },
            "forecaster": {"kind": "experts", "B": 2.0},
            "generator": {"kind": "shattering_adversary", "beta": 2.0},
            "horizon": horizon,
            "output": {"directory": str(tmp_path), "formats": ["jsonl"]},
        }
    )


class TestBatchedDraws:
    """The shattering adversary draws its signs in one batch, iid_noise
    round by round; the round logs are those of one scalar draw per round."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda tmp, n, seed: experts_config(tmp, n, seed, {"kind": "iid_noise", "expert": 1, "noise": 0.0}),
            lambda tmp, n, seed: experts_config(tmp, n, seed, {"kind": "iid_noise", "expert": 2}),
            lambda tmp, n, seed: experts_config(tmp, n, seed, {"kind": "iid_noise", "expert": 0, "noise": 0.3}),
            shattering_config,
        ],
        ids=["iid-noise-0", "iid-noise-default", "iid-noise-0.3", "shattering"],
    )
    @pytest.mark.parametrize("n, seed", [(0, 1), (1, 2), (9, 3), (400, 4)])
    def test_round_log_bytes_match_per_round_draws(self, tmp_path, monkeypatch, make, n, seed):
        cfg = make(tmp_path, n, seed)
        want = reference_generate_sequence(cfg)
        got = generate_sequence(cfg)
        assert got == want
        assert [type(y) for _, y in got] == [float] * n
        run_experiment(cfg, tmp_path / "batched")
        monkeypatch.setattr(harness, "generate_sequence", reference_generate_sequence)
        run_experiment(cfg, tmp_path / "per_round")
        logs = [(tmp_path / side / "rounds.jsonl").read_bytes() for side in ("batched", "per_round")]
        assert logs[0] == logs[1]
        assert logs[0].count(b"\n") == n


class TestRunExperiment:
    def test_builds_model_and_family_once(self, tmp_path, monkeypatch):
        built = []
        for owner, name in ((harness.losses_mod, "from_config"), (harness, "family_from_json")):
            original = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda doc, original=original, name=name: built.append(name) or original(doc))
        run_experiment(experts_config(tmp_path))
        assert sorted(built) == ["family_from_json", "from_config"]

    def test_bundle_contents_and_consistency(self, tmp_path):
        cfg = experts_config(tmp_path)
        summary = run_experiment(cfg)
        assert (tmp_path / "rounds.jsonl").exists()
        assert (tmp_path / "regret.csv").exists()
        assert (tmp_path / "regret.svg").exists()
        assert (tmp_path / "summary.json").exists()
        lines = (tmp_path / "rounds.jsonl").read_text().splitlines()
        assert len(lines) == 50
        last = json.loads(lines[-1])
        assert summary["final_regret"] == pytest.approx(last["cumulative_regret"])
        assert summary["bound"] == pytest.approx(2.0 * math.log(3))
        assert summary["bound_satisfied"] is True
        assert summary["rng"] == {"algorithm": "PCG64", "seed": 7}

    def test_determinism_byte_identical_logs(self, tmp_path):
        s1 = run_experiment(experts_config(tmp_path / "one"), out_dir=tmp_path / "one")
        s2 = run_experiment(experts_config(tmp_path / "two"), out_dir=tmp_path / "two")
        h1 = hashlib.sha256((tmp_path / "one" / "rounds.jsonl").read_bytes()).hexdigest()
        h2 = hashlib.sha256((tmp_path / "two" / "rounds.jsonl").read_bytes()).hexdigest()
        assert h1 == h2 == s1["log_sha256"] == s2["log_sha256"]

    def test_log_lines_are_sorted_compact_json(self, tmp_path):
        run_experiment(experts_config(tmp_path))
        for line in (tmp_path / "rounds.jsonl").read_text().splitlines():
            assert line == json.dumps(json.loads(line), sort_keys=True, separators=(",", ":"))

    def test_zero_horizon(self, tmp_path):
        cfg = experts_config(tmp_path, horizon=0)
        summary = run_experiment(cfg)
        assert summary["final_regret"] == 0.0
        assert (tmp_path / "rounds.jsonl").read_text() == ""

    def test_vaw_experiment(self, tmp_path):
        path = tmp_path / "seq.jsonl"
        rng = np.random.default_rng(0)
        with path.open("w") as fh:
            for _ in range(30):
                x = rng.uniform(-1, 1, size=2) / math.sqrt(2)
                y = float(np.clip(x[0], -1, 1))
                fh.write(json.dumps({"x": list(x), "y": y}) + "\n")
        cfg = ExperimentConfig.from_dict(
            {
                "seed": 1,
                "loss": {"name": "square", "B": 1.0},
                "family": {"variant": "linear", "dimension": 2},
                "forecaster": {"kind": "vaw", "lambda": 1.0, "B": 1.0},
                "generator": {"kind": "replay", "path": str(path)},
                "horizon": 30,
                "output": {"directory": str(tmp_path)},
            }
        )
        summary = run_experiment(cfg)
        assert summary["bound_satisfied"] is True

    def test_zero_horizon_replays_the_whole_file(self, tmp_path):
        path = tmp_path / "seq.jsonl"
        rows = [{"x": [0.5, 0.0], "y": 0.5}, {"x": [0.0, 0.5], "y": -0.25}, {"x": [0.5, 0.5], "y": 1.0}]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        cfg = ExperimentConfig.from_dict(
            {
                "seed": 1,
                "loss": {"name": "square", "B": 1.0},
                "family": {"variant": "linear", "dimension": 2},
                "forecaster": {"kind": "vaw", "lambda": 1.0, "B": 1.0},
                "generator": {"kind": "replay", "path": str(path)},
                "horizon": 0,
                "output": {"directory": str(tmp_path)},
            }
        )
        summary = run_experiment(cfg)
        assert summary["horizon"] == summary["rounds_logged"] == 3
        assert summary["bound"] == regret_bound("vaw", n=3, d=2, B=1.0, lam=1.0)
        saved = json.loads((tmp_path / "summary.json").read_text())
        assert saved["horizon"] == 3 and saved["bound"] == summary["bound"]

    def test_relaxation_runs_report_the_experts_bound_only(self, tmp_path):
        cfg = experts_config(tmp_path, horizon=20)
        cfg.forecaster = {"kind": "relaxation", "relaxation": "experts", "B": 1.0}
        summary = run_experiment(cfg, out_dir=tmp_path / "experts")
        # Rel(empty) of the experts relaxation, the bound an experts run reports
        assert summary["bound"] == regret_bound("experts", B=1.0, size=3)
        assert summary["bound_satisfied"] is True
        cfg.forecaster = {"kind": "relaxation", "relaxation": "conditional_rademacher"}
        cfg.horizon = 2
        assert run_experiment(cfg, out_dir=tmp_path / "conditional")["bound"] is None

    def test_bound_errors_other_than_domain_propagate(self, tmp_path, monkeypatch):
        def broken(kind, **params):
            raise RuntimeError("bound formula failed")

        monkeypatch.setattr(harness, "regret_bound", broken)
        with pytest.raises(RuntimeError, match="bound formula failed"):
            run_experiment(experts_config(tmp_path, horizon=5))

    def test_missing_field_raises_config_error(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"seed": 0})


README_CONFIG = {
    "seed": 7,
    "loss": {"name": "square", "B": 1.0},
    "family": {"variant": "finite_table", "covariate_ids": ["a", "b"], "values": [[0.5, -0.5], [-0.25, 0.75]]},
    "forecaster": {"kind": "experts", "B": 1.0},
    "generator": {"kind": "iid_noise", "expert": 0, "noise": 0.2},
    "horizon": 1000,
    "output": {"formats": ["jsonl", "csv", "svg"]},
}


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    """Every fenced python block of README.md runs, in order, in one
    namespace per block, so a removed public name cannot leave it broken."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)
    assert len(blocks) >= 2
    monkeypatch.chdir(tmp_path)
    for block in blocks:
        namespace: dict = {}
        exec(compile(block, "README.md", "exec"), namespace)
        if "dudley" in namespace:
            assert namespace["dudley"] == pytest.approx(220.0, rel=1e-12)


def reference_bundle(records, bound):
    """rounds.jsonl and regret.csv as one ``to_dict()`` encoding and one
    f-string row per record."""
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    log = "".join(encode(r.to_dict()) + "\n" for r in records)
    rows = ["t,cumulative_regret,bound"]
    rows += [f"{r.t},{r.cumulative_regret!r},{'' if bound is None else repr(bound)}" for r in records]
    return log.encode("utf-8"), ("\n".join(rows) + "\n").encode("utf-8")


def reference_svg(curve, bound):
    """regret.svg with one pair of scalar coordinates per point."""
    w, h, pad = 640, 360, 40
    n = max(len(curve), 1)
    top = max([abs(v) for v in curve] + [abs(bound) if bound is not None else 0.0, 1e-9])
    lo = min([0.0] + [v for v in curve])
    span = top - lo if top > lo else 1.0

    def sx(t):
        return pad + (w - 2 * pad) * (t / max(n - 1, 1))

    def sy(v):
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
    return ("\n".join(parts) + "\n").encode("utf-8")


def capture_logs(monkeypatch):
    """The log of every run_online call that run_experiment makes."""
    runs = []
    real = harness.run_online

    def run(*args, **kwargs):
        runs.append(real(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(harness, "run_online", run)
    return runs


def records_of(log):
    return [RoundRecord(*row) for row in zip(*log)]


def inject_rows(monkeypatch, rows):
    """Make run_experiment write ``rows`` as its run's log; returns them as records."""
    log = RunLog(*map(list, zip(*rows)))
    monkeypatch.setattr(harness, "run_online", lambda *a, **k: log)
    return records_of(log)


class TestArtifactBytes:
    """The bundle is byte for byte one ``json`` encoding of each record's
    ``to_dict()``, one ``repr`` per CSV value and one formatted pair per
    SVG point."""

    def assert_bundle(self, out, records, summary):
        log, csv = reference_bundle(records, summary["bound"])
        assert (out / "rounds.jsonl").read_bytes() == log
        assert (out / "regret.csv").read_bytes() == csv
        curve = [r.cumulative_regret for r in records]
        assert (out / "regret.svg").read_bytes() == reference_svg(curve, summary["bound"])
        assert summary["log_sha256"] == hashlib.sha256(log).hexdigest()

    def run(self, tmp_path, monkeypatch, cfg):
        runs = capture_logs(monkeypatch)
        summary = run_experiment(cfg, out_dir=tmp_path)
        self.assert_bundle(tmp_path, records_of(runs[0]), summary)
        return summary

    @pytest.mark.parametrize(
        "horizon",
        [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1],
        ids=["block-1", "block", "block+1", "2blocks+1"],
    )
    def test_horizons_around_the_block_size(self, tmp_path, monkeypatch, horizon):
        summary = self.run(tmp_path, monkeypatch, experts_config(tmp_path, horizon=horizon))
        assert summary["rounds_logged"] == horizon

    @pytest.mark.parametrize(
        "loss",
        [
            {"name": "square", "B": 1.0},
            {"name": "absolute", "B": 1.0},
            {"name": "q_loss", "B": 1.0, "q": 1.5},
            {"name": "logistic", "B": 1.0},
        ],
    )
    def test_every_loss(self, tmp_path, monkeypatch, loss):
        cfg = experts_config(tmp_path, horizon=80)
        cfg.loss = loss
        self.run(tmp_path, monkeypatch, cfg)

    @pytest.mark.parametrize("ids", [["a", "b"], ["é", "日本"], [0, 1]])
    def test_covariate_ids(self, tmp_path, monkeypatch, ids):
        cfg = experts_config(tmp_path, horizon=80)
        cfg.family = dict(EXPERTS_FAMILY, covariate_ids=ids)
        self.run(tmp_path, monkeypatch, cfg)

    @pytest.mark.parametrize("ints", [False, True])
    def test_vector_covariates(self, tmp_path, monkeypatch, ints):
        path = tmp_path / "seq.jsonl"
        rng = np.random.default_rng(3)
        with path.open("w") as fh:
            for t in range(40):
                x = (rng.uniform(-1, 1, size=2) / 2).tolist()
                if ints and t % 3 == 0:
                    x[t % 2] = t % 2  # a JSON integer, read as a Python int
                fh.write(json.dumps({"x": x, "y": float(rng.uniform(-1, 1))}) + "\n")
        cfg = ExperimentConfig.from_dict(
            {
                "seed": 1,
                "loss": {"name": "square", "B": 1.0},
                "family": {"variant": "linear", "dimension": 2},
                "forecaster": {"kind": "vaw", "lambda": 1.0, "B": 1.0},
                "generator": {"kind": "replay", "path": str(path)},
                "horizon": 40,
                "output": {"formats": ["jsonl", "csv", "svg"]},
            }
        )
        self.run(tmp_path, monkeypatch, cfg)

    def test_with_and_without_a_bound(self, tmp_path, monkeypatch):
        cfg = experts_config(tmp_path, horizon=40)
        assert self.run(tmp_path / "experts", monkeypatch, cfg)["bound"] is not None
        cfg.forecaster = {"kind": "comparator", "handle": 1}
        assert self.run(tmp_path / "comparator", monkeypatch, cfg)["bound"] is None

    # The reference's numpy-scalar inf / inf warns; the harness's does not.
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_values_the_template_leaves_to_json(self, tmp_path, monkeypatch):
        """Ints, bools, numpy scalars, non-finite floats, nested lists, arrays,
        -0.0, None, a dict and non-ASCII text, in every column."""
        nan, inf = math.nan, math.inf
        rows = [
            (1, np.array([0.5, -0.25]), 0.1, 0.2, 0.01, -0.0),
            (2, np.array([[1.0], [2.0]]), np.float64(0.3), -inf, 2, 1e300),
            (3, np.array(0.5), 1, True, nan, inf),
            (4, (1, 0.5), 0.5, 0.5, 0.0, nan),
            (5, tuple(np.array([0.125, 0.5])), -0.0, 0.0, 5e-324, np.float64(-0.5)),
            (6, (0.5, nan), 0.25, -1.0, 0.0, 0.0),
            (7, [[0.5], "a"], 0.25, 1, 0.0, 0.0),
            (8, (), 0.25, 0.0, 0.0, 0.0),
            (True, -0.0, 0.25, 0.0, 0.0, 0.0),
            (10, 0.0, 0.25, 0.0, 0.0, 0.0),
            (11, 1, 0.25, 0.0, 0.0, 0.0),
            (12, True, 0.25, 0.0, 0.0, 0.0),
            (13, None, 0.25, 0.0, 0.0, 0.0),
            (14, {"b": 1, "a": [0.5]}, 0.25, 0.0, 0.0, 0.0),
            (15, "é", 0.25, 0.0, 0.0, 0.0),
            (16, "é", 0.25, 0.0, 0.0, 0.0),
            (17, np.float64(0.5), 0.25, 0.0, 0.0, 0.5),
        ]
        records = inject_rows(monkeypatch, rows)
        summary = run_experiment(experts_config(tmp_path, horizon=len(records)), out_dir=tmp_path)
        self.assert_bundle(tmp_path, records, summary)

    def test_non_finite_floats_among_floats(self, tmp_path, monkeypatch):
        nan, inf = math.nan, math.inf
        rows = [(1, "a", 0.5, nan, inf, -inf), (2, "b", -inf, 0.5, nan, nan), (3, "a", inf, -inf, -0.0, 0.25)]
        records = inject_rows(monkeypatch, rows)
        summary = run_experiment(experts_config(tmp_path, horizon=len(records)), out_dir=tmp_path)
        self.assert_bundle(tmp_path, records, summary)

    def test_values_the_template_leaves_to_json_in_later_blocks_only(self, tmp_path, monkeypatch):
        """Two blocks and one round of int round numbers, string ids and
        plain floats, but for a NaN and an int in each float column, a bool
        round number and an int and a NaN covariate in the second block, and
        a NaN regret in the last round."""
        rng = np.random.default_rng(5)
        rows = [[t, "ab"[t % 2], *rng.uniform(-1, 1, size=4).tolist()] for t in range(1, 2 * BLOCK + 2)]
        for column in range(2, 6):  # yhat, y, loss, cumulative_regret
            rows[BLOCK + 2 * column][column] = math.nan
            rows[BLOCK + 2 * column + 1][column] = 3
        rows[BLOCK + 20][0] = True
        rows[BLOCK + 21][1] = 7
        rows[BLOCK + 22][1] = math.nan
        rows[-1][5] = math.nan
        records = inject_rows(monkeypatch, rows)
        summary = run_experiment(experts_config(tmp_path, horizon=len(records)), out_dir=tmp_path)
        self.assert_bundle(tmp_path, records, summary)

    def test_readme_run_is_pinned(self, tmp_path):
        summary = run_experiment(ExperimentConfig.from_dict(README_CONFIG), out_dir=tmp_path)
        assert summary["log_sha256"] == "536a3423149e6deb030aa7d4a6586c921250543ba4cff6f061d6ad35732424ad"
        digests = {
            "rounds.jsonl": "536a3423149e6deb030aa7d4a6586c921250543ba4cff6f061d6ad35732424ad",
            "regret.csv": "5f4e2b3452d99d39cf87fdcc9445ed4b3df653df6e55d1f455b2abe08df53871",
            "regret.svg": "4223523822ccdfa95199f476e80b10bb66645f85efff3940cbf99545e4bee535",
        }
        for name, digest in digests.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def test_a_long_run_holds_at_most_300_bytes_a_round(tmp_path):
    """The tracemalloc peak of an experts run of 20,000 rounds with csv and
    svg, over what was allocated before it, after a short run has paid the
    one-time costs.  The columns take about 140 bytes a round and the
    sequence played about 90; the writers' blocks take a fixed amount."""
    n = 20_000
    run_experiment(experts_config(tmp_path, horizon=100), out_dir=tmp_path)
    cfg = experts_config(tmp_path, horizon=n)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert run_experiment(cfg, out_dir=tmp_path)["rounds_logged"] == n
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 300 * n, f"{peak / n:.0f} bytes a round"


class Tag(str):
    """A ``str`` subclass, which ``json`` encodes as its text."""


FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 5e-324, 1e16, 1e-05])
FLOAT_ELEMENTS = FINITE | FINITE.map(np.float64)
OTHER_ELEMENTS = st.integers() | st.booleans() | st.sampled_from([math.nan, math.inf, -math.inf])
IDS = st.text() | st.builds(Tag, st.text())
FLOAT_VECTORS = st.lists(FLOAT_ELEMENTS, max_size=6).map(tuple)
MIXED_VECTORS = st.lists(FLOAT_ELEMENTS | OTHER_ELEMENTS, max_size=6).map(tuple)
ANY_COVARIATE = IDS | FLOAT_VECTORS | MIXED_VECTORS | FINITE | OTHER_ELEMENTS | st.none()


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.lists(st.text(max_size=2), max_size=30),
        st.lists(IDS, max_size=30),
        st.lists(FLOAT_VECTORS, max_size=30),
        st.lists(MIXED_VECTORS, max_size=30),
        st.lists(ANY_COVARIATE, max_size=30),
    )
)
@example(["é", "日本", "é", "a"])
@example(["a", Tag("a"), "a"])
@example([(-0.0, 5e-324, 1e16, 1e-05, np.float64(0.5)), ()])
@example([(0.5, 1), (0.5, True)])
@example([(0.5,), (0.5, math.nan)])
@example([(0.5,), (math.inf,)])
@example(["a", (0.5,), 0.5, -0.0, 0.0, None, 1, True])
def test_covariate_texts_are_json_encodings(xs):
    """Each covariate's text is ``json``'s, sorted and compact, whatever the
    column's mix of types."""
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    assert harness._covariate_texts(xs, encode) == list(map(encode, xs))


class TestSuitePlumbing:
    def test_passing_subset_exits_zero(self):
        results, status = run_suite(level="fast", names=["khinchine_inequality"])
        assert status == 0 and results[0].passed

    def test_injected_broken_check_fails_the_suite(self, monkeypatch):
        def broken(level: str) -> CheckResult:
            return CheckResult("injected_broken_relaxation", False, -1.0, "", 0.0)

        monkeypatch.setitem(verify.ALL_CHECKS, "injected_broken_relaxation", broken)
        results, status = run_suite(
            level="fast", names=["khinchine_inequality", "injected_broken_relaxation"]
        )
        assert status == 1
        assert [r.name for r in results if not r.passed] == ["injected_broken_relaxation"]


class TestCLI:
    def test_khinchine_verb(self, tmp_path, capsys):
        cfg = tmp_path / "k.json"
        cfg.write_text(json.dumps({"k": 4}))
        assert cli_main(["complexity", "khinchine", "--config", str(cfg)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["mean_abs_sum"] == 1.5 and out["holds"]

    def test_minimax_verb(self, tmp_path, capsys):
        cfg = tmp_path / "game.json"
        cfg.write_text(
            json.dumps(
                {
                    "family": {
                        "variant": "finite_table",
                        "covariate_ids": ["x0"],
                        "values": [[1.0], [-1.0]],
                    },
                    "loss": {"name": "absolute", "B": 1.0},
                    "horizon": 1,
                    "covariate_set": ["x0"],
                    "outcome_grid": [-1.0, 1.0],
                    "prediction_grid": [-1.0, 0.0, 1.0],
                }
            )
        )
        assert cli_main(["minimax", "--config", str(cfg), "--strategy"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["value"] == pytest.approx(1.0)
        assert out["optimal_replay"]["regret"] == pytest.approx(1.0)

    def test_run_verb(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "seed": 5,
                    "loss": {"name": "square", "B": 1.0},
                    "family": EXPERTS_FAMILY,
                    "forecaster": {"kind": "experts", "B": 1.0},
                    "generator": {"kind": "iid_noise", "expert": 0, "noise": 0.1},
                    "horizon": 20,
                }
            )
        )
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["bound_satisfied"] is True

    def test_cover_verb(self, tmp_path, capsys):
        cfg = tmp_path / "cover.json"
        cfg.write_text(
            json.dumps(
                {
                    "family": {
                        "variant": "finite_table",
                        "covariate_ids": ["x0"],
                        "values": [[1.0], [-1.0]],
                    },
                    "tree": {"levels": [["x0"], ["x0", "x0"]]},
                    "beta": 0.5,
                    "norm": "linf",
                }
            )
        )
        assert cli_main(["complexity", "cover", "--config", str(cfg)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["size"] == 2

    def test_cover_verb_l2_scale_whose_square_overflows(self, tmp_path, capsys):
        # 1e200**2 overflows a float; the cover is the one tree of beta = inf.
        cfg = tmp_path / "cover.json"
        cfg.write_text(
            json.dumps(
                {
                    "family": {
                        "variant": "finite_table",
                        "covariate_ids": ["x0"],
                        "values": [[1.0], [-1.0]],
                    },
                    "tree": {"levels": [["x0"], ["x0", "x0"]]},
                    "beta": 1e200,
                    "norm": "l2",
                }
            )
        )
        assert cli_main(["complexity", "cover", "--config", str(cfg)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["size"] == 1 and out["beta"] == 1e200 and len(out["cover"]) == 1

    def test_fat_verb_emits_certificate(self, tmp_path, capsys):
        cfg = tmp_path / "fat.json"
        cfg.write_text(
            json.dumps(
                {
                    "family": {
                        "variant": "finite_table",
                        "covariate_ids": ["x0"],
                        "values": [[1.0], [-1.0]],
                    },
                    "beta": 2.0,
                    "max_depth": 3,
                }
            )
        )
        assert cli_main(["complexity", "fat", "--config", str(cfg)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["fat"] == 1
        assert out["certificate"]["witness"] == [[0.0]]

    def test_offset_verb(self, tmp_path, capsys):
        cfg = tmp_path / "off.json"
        cfg.write_text(
            json.dumps(
                {
                    "family": {
                        "variant": "finite_table",
                        "covariate_ids": ["x0"],
                        "values": [[1.0], [-1.0]],
                    },
                    "tree": {"levels": [["x0"], ["x0", "x0"]]},
                    "mu_tree": {"levels": [[0.0], [0.0, 0.0]]},
                    "C": 0.5,
                    "offset": {"kind": "power", "K": 1.0, "r": 2.0},
                }
            )
        )
        assert cli_main(["complexity", "offset", "--config", str(cfg)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["offset_rademacher"] == pytest.approx(-1.0)

    def test_dudley_verb(self, tmp_path, capsys):
        cfg = tmp_path / "d.json"
        cfg.write_text(
            json.dumps(
                {"log_cover": {"kind": "power", "coef": 1.0, "power": 1.0},
                 "n": 100, "rho": 0.01, "gamma": 1.0}
            )
        )
        assert cli_main(["complexity", "dudley", "--config", str(cfg)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["dudley_bound"] == pytest.approx(220.0, abs=1e-4)

    def test_admissibility_verb(self, tmp_path, capsys):
        cfg = tmp_path / "adm.json"
        cfg.write_text(
            json.dumps(
                {
                    "relaxation": "experts",
                    "loss": {"name": "square", "B": 1.0},
                    "family": EXPERTS_FAMILY,
                    "horizon": 3,
                    "histories": 4,
                    "seed": 0,
                }
            )
        )
        assert cli_main(["admissibility", "--config", str(cfg)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["passed"] is True

    def test_admissibility_verb_at_horizon_zero(self, tmp_path, capsys):
        """At horizon 0 only the initial condition is checked, at the empty
        history: Rel = 2 B^2 log 3 over the three predictors, best loss 0.
        The legs with no rows print null, as JSON has no infinity."""
        cfg = tmp_path / "adm.json"
        doc = {"relaxation": "experts", "loss": {"name": "square", "B": 1.0}, "family": EXPERTS_FAMILY, "horizon": 0}
        cfg.write_text(json.dumps(doc))
        assert cli_main(["admissibility", "--config", str(cfg)]) == 0
        text = capsys.readouterr().out
        assert json.loads(text) == {
            "horizon": 0,
            "passed": True,
            "worst_distributional": None,
            "worst_initial": 2.0 * math.log(3.0),
            "worst_per_round": {},
            "worst_recursive": None,
        }
        assert "Infinity" not in text

    def test_run_format_names(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.json"
        doc = {k: v for k, v in vars(experts_config(tmp_path, horizon=10)).items() if k != "output"}
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        argv = ["run", "--config", str(cfg_path), "--out", str(out), "--format"]
        assert cli_main(argv + ["json,csv"]) == 2
        assert "unknown output format(s) json" in capsys.readouterr().err
        assert not out.exists()
        assert cli_main(argv + ["jsonl,svg"]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["regret.svg", "rounds.jsonl", "summary.json"]

    def test_usage_error_exit_code(self, tmp_path):
        assert cli_main(["run", "--config", str(tmp_path / "missing.json")]) == 2

    def test_bad_verb_exits_two(self, capsys):
        assert cli_main(["frobnicate"]) == 2


ONE_PREDICTOR_GAME = {
    "family": {"variant": "finite_table", "covariate_ids": ["x0"], "values": [[1.0], [-1.0]]},
    "loss": {"name": "absolute", "B": 1.0},
    "horizon": 1,
    "covariate_set": ["x0"],
    "outcome_grid": [-1.0, 1.0],
    "prediction_grid": [-1.0, 0.0, 1.0],
}


class TestCLIErrorContract:
    """Typed library errors exit with code 2 and one line on stderr."""

    def run(self, tmp_path, capsys, argv, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code = cli_main(argv + ["--config", str(cfg)])
        captured = capsys.readouterr()
        return code, captured.err.splitlines()

    def test_domain_error(self, tmp_path, capsys):
        doc = dict(ONE_PREDICTOR_GAME, loss={"name": "absolute", "B": -1.0})
        code, err = self.run(tmp_path, capsys, ["minimax"], doc)
        assert code == 2 and len(err) == 1 and err[0].startswith("DomainError: ")

    def test_resource_guard_error(self, tmp_path, capsys):
        code, err = self.run(tmp_path, capsys, ["complexity", "khinchine"], {"k": 5000})
        assert code == 2 and len(err) == 1 and err[0].startswith("ResourceGuardError: ")

    def test_resource_guard_error_in_minimax(self, tmp_path, capsys):
        # 100 covariates x 3 outcomes of distinct losses: the second layer's
        # states times 300 moves times 3 predictors exceed the solver's guard.
        values = np.random.default_rng(0).uniform(-1, 1, size=(3, 100)).tolist()
        ids = [f"x{i}" for i in range(100)]
        family = {"variant": "finite_table", "covariate_ids": ids, "values": values}
        doc = dict(ONE_PREDICTOR_GAME, family=family, horizon=3, covariate_set=ids, outcome_grid=[-1.0, 0.0, 1.0])
        code, err = self.run(tmp_path, capsys, ["minimax"], doc)
        assert code == 2 and len(err) == 1 and err[0].startswith("ResourceGuardError: ")

    def test_resource_guard_error_on_a_long_horizon(self, tmp_path, capsys):
        # Few states per round, but too many over 1e5 rounds.
        code, err = self.run(tmp_path, capsys, ["minimax"], dict(ONE_PREDICTOR_GAME, horizon=10**5))
        assert code == 2 and len(err) == 1 and err[0].startswith("ResourceGuardError: ")

    def test_capability_error(self, tmp_path, capsys):
        doc = {"family": {"variant": "spline"}, "tree": {"levels": [["x0"]]}}
        code, err = self.run(tmp_path, capsys, ["complexity", "rademacher"], doc)
        assert code == 2 and len(err) == 1 and err[0].startswith("CapabilityError: ")

    def test_shape_error(self, tmp_path, capsys):
        doc = {
            "family": ONE_PREDICTOR_GAME["family"],
            "tree": {"levels": [["x0"], ["x0", "x0"]]},
            "mu_tree": {"levels": [[0.0]]},
        }
        code, err = self.run(tmp_path, capsys, ["complexity", "offset"], doc)
        assert code == 2 and len(err) == 1 and err[0].startswith("ShapeError: ")

    @pytest.mark.parametrize("scales", [{"rho": "nan"}, {"gamma": "nan"}, {"gamma": "inf"}])
    def test_non_finite_dudley_scale(self, tmp_path, capsys, scales):
        # The entropy integral has no value on a NaN or infinite interval.
        doc = {"log_cover": {"kind": "constant", "value": 1.0}, "n": 4, "rho": 0.1, "gamma": 1.0, **scales}
        code, err = self.run(tmp_path, capsys, ["complexity", "dudley"], doc)
        assert code == 2 and len(err) == 1 and err[0].startswith("DomainError: ")

    @pytest.mark.parametrize(
        "log_cover, prefix",
        [
            ({"kind": "table", "deltas": [], "values": []}, "DomainError: "),
            ({"kind": "table", "deltas": [0.1, 0.5], "values": [2.0]}, "DomainError: "),
            ({"kind": "table", "deltas": [0.5, 0.1, 0.5], "values": [1.0, 2.0, 3.0]}, "DomainError: "),
            ({"kind": "power", "coef": "nan", "power": 1.0}, "DomainError: "),
            ({"kind": "power", "coef": 1.0, "power": 2000}, "DomainError: entropy integral of"),
            ({"kind": "spline"}, "configuration error: unknown log-cover spec"),
            ({"kind": "table", "deltas": ["abc"], "values": [1.0]}, "configuration error: could not convert"),
        ],
        ids=[
            "empty-table", "mismatched-lengths", "duplicate-deltas", "non-finite-coef", "overflowing-power",
            "unknown-kind", "non-numeric-delta",
        ],
    )
    def test_malformed_dudley_log_cover(self, tmp_path, capsys, log_cover, prefix):
        doc = {"log_cover": log_cover, "n": 4, "rho": 0.1, "gamma": 1.0}
        code, err = self.run(tmp_path, capsys, ["complexity", "dudley"], doc)
        assert code == 2 and len(err) == 1 and err[0].startswith(prefix)

    @pytest.mark.parametrize(
        "argv, doc",
        [
            (["complexity", "dudley"], {"log_cover": {"kind": "constant", "value": 1.0}, "n": 4, "rho": "abc", "gamma": 1.0}),
            (["complexity", "khinchine"], {"k": "ten"}),
        ],
        ids=["dudley-rho", "khinchine-k"],
    )
    def test_config_value_that_does_not_convert(self, tmp_path, capsys, argv, doc):
        code, err = self.run(tmp_path, capsys, argv, doc)
        assert code == 2 and len(err) == 1 and err[0].startswith("configuration error: ")

    def test_nan_fat_scale(self, tmp_path, capsys):
        doc = {"family": ONE_PREDICTOR_GAME["family"], "beta": "nan"}
        code, err = self.run(tmp_path, capsys, ["complexity", "fat"], doc)
        assert code == 2 and len(err) == 1 and err[0].startswith("DomainError: shattering scale")

    def test_nan_cover_scale(self, tmp_path, capsys):
        doc = {"family": ONE_PREDICTOR_GAME["family"], "tree": {"levels": [["x0"]]}, "beta": "nan"}
        code, err = self.run(tmp_path, capsys, ["complexity", "cover"], doc)
        assert code == 2 and len(err) == 1 and err[0].startswith("DomainError: cover scale")

    @pytest.mark.parametrize("line", ["not json", '{"x": "a"}', '{"x": "a", "y": "high"}'])
    def test_bad_replay_line(self, tmp_path, capsys, line):
        path = tmp_path / "seq.jsonl"
        path.write_text('{"x": "a", "y": 0.5}\n' + line + "\n")
        doc = vars(experts_config(tmp_path, horizon=0, generator={"kind": "replay", "path": str(path)}))
        code, err = self.run(tmp_path, capsys, ["run", "--out", str(tmp_path / "out")], doc)
        assert code == 2 and len(err) == 1
        assert err[0].startswith(f"configuration error: replay file {str(path)!r}, line 2: ")

    @pytest.mark.parametrize(
        "argv",
        [["run"], ["admissibility"], ["minimax"]]
        + [["complexity", sub] for sub in ("rademacher", "offset", "cover", "fat", "dudley", "rates", "khinchine")],
        ids=lambda argv: "-".join(argv),
    )
    def test_a_document_that_is_not_an_object(self, tmp_path, capsys, argv):
        code, err = self.run(tmp_path, capsys, argv, [])
        cfg = str(tmp_path / "cfg.json")
        if argv == ["run"]:
            assert err == ["configuration error: experiment config must be a JSON object, not list"]
        else:
            assert err == [f"configuration error: config file {cfg!r} must be a JSON object, not list"]
        assert code == 2

    @pytest.mark.parametrize("argv", [["minimax"], ["complexity", "cover"]], ids=["minimax", "cover"])
    def test_a_family_that_is_not_an_object(self, tmp_path, capsys, argv):
        code, err = self.run(tmp_path, capsys, argv, {"family": 3})
        assert code == 2 and err == ["configuration error: family must be a JSON object, not int"]

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"loss": 3}, "loss must be a JSON object, not int"),
            ({"generator": 3}, "generator must be a JSON object, not int"),
            ({"forecaster": []}, "forecaster must be a JSON object, not list"),
            ({"output": "csv"}, "output must be a JSON object, not str"),
            ({"generator": {"kind": "adversarial_oracle", "game": 3}}, "game must be a JSON object, not int"),
        ],
        ids=["loss", "generator", "forecaster", "output", "oracle-game"],
    )
    def test_a_run_section_that_is_not_an_object_is_named(self, tmp_path, capsys, fields, message):
        doc = {**vars(experts_config(tmp_path)), **fields}
        code, err = self.run(tmp_path, capsys, ["run", "--out", str(tmp_path / "out")], doc)
        assert code == 2 and err == [f"configuration error: {message}"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv, doc, message",
        [
            (
                ["admissibility"],
                {"loss": 3, "family": EXPERTS_FAMILY, "horizon": 2},
                "loss must be a JSON object, not int",
            ),
            (["minimax"], {**ONE_PREDICTOR_GAME, "loss": 3}, "loss must be a JSON object, not int"),
            (
                ["complexity", "offset"],
                {"family": EXPERTS_FAMILY, "tree": [["a"]], "mu_tree": [[0.0]], "offset": 3},
                "offset must be a JSON object, not int",
            ),
            (
                ["complexity", "dudley"],
                {"log_cover": [1], "n": 4, "rho": 0.1, "gamma": 1.0},
                "log_cover must be a JSON object, not list",
            ),
        ],
        ids=["admissibility-loss", "minimax-loss", "offset", "log-cover"],
    )
    def test_a_section_that_is_not_an_object_is_named(self, tmp_path, capsys, argv, doc, message):
        code, err = self.run(tmp_path, capsys, argv, doc)
        assert code == 2 and err == [f"configuration error: {message}"]

    def test_an_unknown_covariate_is_no_missing_field(self, tmp_path, capsys):
        doc = {"family": EXPERTS_FAMILY, "tree": [["z"]]}
        code, err = self.run(tmp_path, capsys, ["complexity", "rademacher"], doc)
        assert code == 2 and err == ["configuration error: unknown covariate 'z'"]
        path = tmp_path / "seq.jsonl"
        path.write_text('{"x": "a", "y": 0.5}\n{"x": "zz", "y": 0.1}\n')
        doc = {**vars(experts_config(tmp_path)), "generator": {"kind": "replay", "path": str(path)}, "horizon": 2}
        code, err = self.run(tmp_path, capsys, ["run", "--out", str(tmp_path / "out")], doc)
        assert code == 2 and err == ["configuration error: unknown covariate 'zz'"]

    def test_a_comparator_handle_out_of_range_is_a_config_error(self, tmp_path, capsys):
        family = {"variant": "finite_table", "covariate_ids": ["a"], "values": [[0.5], [0.1]]}
        forecaster = {"kind": "comparator", "handle": 5}
        doc = {**vars(experts_config(tmp_path)), "family": family, "forecaster": forecaster}
        code, err = self.run(tmp_path, capsys, ["run", "--out", str(tmp_path / "out")], doc)
        assert code == 2 and err == ["configuration error: predictor index 5 out of range"]

    @pytest.mark.parametrize("tree", [3, [3], {"levels": 3}], ids=["int", "int-level", "int-levels"])
    def test_a_tree_that_is_not_a_list_of_levels(self, tmp_path, capsys, tree):
        doc = {"family": EXPERTS_FAMILY, "tree": tree}
        code, err = self.run(tmp_path, capsys, ["complexity", "rademacher"], doc)
        assert code == 2 and err == ["ShapeError: a tree is a sequence of levels, each a sequence of labels"]

    def test_a_comparator_handle_that_is_not_an_integer(self, tmp_path, capsys):
        doc = {**vars(experts_config(tmp_path)), "forecaster": {"kind": "comparator", "handle": None}}
        code, err = self.run(tmp_path, capsys, ["run", "--out", str(tmp_path / "out")], doc)
        assert code == 2 and err == ["configuration error: predictor index None is not an integer"]

    @pytest.mark.parametrize("handle", [1.9, True, "2", 2.0], ids=["float", "bool", "string", "integral-float"])
    def test_a_comparator_handle_that_int_would_read(self, tmp_path, capsys, handle):
        doc = {**vars(experts_config(tmp_path)), "forecaster": {"kind": "comparator", "handle": handle}}
        code, err = self.run(tmp_path, capsys, ["run", "--out", str(tmp_path / "out")], doc)
        assert code == 2 and err == [f"configuration error: predictor index {handle!r} is not an integer"]

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"beta": 0, "fat": 2}, "cover scale must be positive, got 0.0"),
            ({"beta": -0.5, "fat": 3}, "cover scale must be positive, got -0.5"),
            (
                {"beta": 0.001, "fat": 1000},
                "cover bound (2 e n / beta) ** fat at n=1024, beta=0.001, fat=1000 overflows a float",
            ),
        ],
        ids=["zero-scale", "negative-scale", "overflow"],
    )
    def test_a_cover_fat_bound_outside_its_domain(self, tmp_path, capsys, fields, message):
        code, err = self.run(tmp_path, capsys, ["complexity", "rates"], {"p": 2.0, **fields})
        assert code == 2 and err == [f"DomainError: {message}"]

    def test_an_admissibility_check_of_no_histories(self, tmp_path, capsys):
        doc = {"relaxation": "experts", "loss": {"name": "square", "B": 1.0}, "family": EXPERTS_FAMILY}
        code, err = self.run(tmp_path, capsys, ["admissibility"], {**doc, "horizon": 3, "histories": 0})
        assert code == 2 and err == ["configuration error: admissibility needs at least one history, got histories=0"]

    def test_a_vaw_admissibility_check_at_horizon_zero(self, tmp_path, capsys):
        doc = {"relaxation": "vaw", "loss": {"name": "square", "B": 1.0}, "family": {"variant": "linear", "dimension": 2}}
        code, err = self.run(tmp_path, capsys, ["admissibility"], {**doc, "covariate_set": [[1.0, 0.0]], "horizon": 0})
        assert code == 2 and err == ["DomainError: the ridge potential needs a horizon of at least one round, got 0"]

    def test_a_missing_field_is_named_as_one(self, tmp_path, capsys):
        code, err = self.run(tmp_path, capsys, ["admissibility"], {})
        assert code == 2 and err == ["configuration error: missing field 'loss'"]

    def test_negative_horizon_of_a_config_built_directly(self, tmp_path):
        cfg = experts_config(tmp_path)
        fields = {k: v for k, v in vars(cfg).items() if not k.startswith("_")}
        with pytest.raises(ConfigError) as info:
            ExperimentConfig(**{**fields, "horizon": -3})
        assert str(info.value) == "horizon -3 is negative; it counts rounds"
        with pytest.raises(ConfigError, match="horizon -1 is negative"):
            replace(cfg, horizon=-1)
        assert ExperimentConfig(**{**fields, "horizon": 0}).horizon == 0

    def test_negative_horizon(self, tmp_path, capsys):
        message = "configuration error: horizon -3 is negative; it counts rounds"
        doc = {**vars(experts_config(tmp_path)), "horizon": -3}
        code, err = self.run(tmp_path, capsys, ["run", "--out", str(tmp_path / "out")], doc)
        assert code == 2 and err == [message]
        assert not (tmp_path / "out").exists()
        doc = {"relaxation": "experts", "loss": {"name": "square", "B": 1.0}, "family": EXPERTS_FAMILY, "horizon": -3}
        code, err = self.run(tmp_path, capsys, ["admissibility"], doc)
        assert code == 2 and err == [message]

    @pytest.mark.parametrize("value", [2.9, 2.0, "3", True, None], ids=["fraction", "float", "string", "bool", "null"])
    def test_a_count_that_is_not_an_integer(self, tmp_path, capsys, value):
        """A horizon, a game's horizon and a number of histories are each an
        int and not a bool, or a ConfigError that names the field."""
        relaxation = {"relaxation": "experts", "loss": {"name": "square", "B": 1.0}, "family": EXPERTS_FAMILY}
        oracle = {"kind": "adversarial_oracle", "game": dict(ORACLE_GAME, family=EXPERTS_FAMILY, horizon=value)}
        cases = [
            (["run", "--out", str(tmp_path / "out")], {**vars(experts_config(tmp_path)), "horizon": value}, "horizon"),
            (["run", "--out", str(tmp_path / "out")], vars(experts_config(tmp_path, generator=oracle)), "game horizon"),
            (["admissibility"], {**relaxation, "horizon": value}, "horizon"),
            (["admissibility"], {**relaxation, "horizon": 2, "histories": value}, "histories"),
            (["minimax"], dict(ONE_PREDICTOR_GAME, horizon=value), "game horizon"),
        ]
        for argv, doc, field in cases:
            code, err = self.run(tmp_path, capsys, argv, doc)
            assert code == 2 and err == [f"configuration error: {field} {value!r} is not an integer"], argv
        assert not (tmp_path / "out").exists()

    def test_a_horizon_that_is_not_an_integer_in_a_config_built_directly(self, tmp_path):
        cfg = experts_config(tmp_path)
        fields = {k: v for k, v in vars(cfg).items() if not k.startswith("_")}
        with pytest.raises(ConfigError, match=r"^horizon 2\.9 is not an integer$"):
            ExperimentConfig(**{**fields, "horizon": 2.9})
        with pytest.raises(ConfigError, match=r"^horizon True is not an integer$"):
            replace(cfg, horizon=True)
        numpy_horizon = ExperimentConfig(**{**fields, "horizon": np.int64(3)})
        assert type(numpy_horizon.horizon) is int and numpy_horizon.horizon == 3
        assert type(harness.read_horizon(np.int64(3))) is int
        summary = run_experiment(numpy_horizon, out_dir=tmp_path / "out")
        assert type(summary["horizon"]) is int and summary["horizon"] == 3
        assert json.loads((tmp_path / "out" / "summary.json").read_text())["horizon"] == 3

    def test_iid_noise_expert_out_of_range(self, tmp_path, capsys):
        doc = vars(experts_config(tmp_path, generator={"kind": "iid_noise", "expert": 3}))
        code, err = self.run(tmp_path, capsys, ["run", "--out", str(tmp_path / "out")], doc)
        assert code == 2 and err == ["configuration error: iid_noise expert 3 is not a predictor index below 3"]

    def test_protocol_error(self, tmp_path, capsys, monkeypatch):
        def refuse(spec):
            raise ProtocolError("history longer than the game horizon")

        monkeypatch.setattr(cli, "SolvedGame", refuse)
        code, err = self.run(tmp_path, capsys, ["minimax"], ONE_PREDICTOR_GAME)
        assert code == 2 and err == ["ProtocolError: history longer than the game horizon"]


LINEAR_FAMILY = {"variant": "linear", "dimension": 2}
RELAXATION_CONFIGS = {
    "experts-defaults": {"relaxation": "experts", "family": EXPERTS_FAMILY},
    "experts": {
        "relaxation": "experts",
        "family": EXPERTS_FAMILY,
        "B": 1.25,
        "prediction_grid": [-1.0, -0.5, 0.0, 0.5, 1.0],
        "covariate_set": ["b"],
    },
    "vaw": {
        "relaxation": "vaw",
        "family": LINEAR_FAMILY,
        "lambda": 0.5,
        "covariate_set": [[0.5, 0.0], [0.0, -0.5]],
    },
    "conditional_rademacher": {"relaxation": "conditional_rademacher", "family": EXPERTS_FAMILY},
}


class TestRelaxationConfig:
    """``regretlab run`` and ``regretlab admissibility`` decode a relaxation
    config through ``harness.build_relaxation`` alike."""

    def admissibility(self, tmp_path, capsys, rel_cfg):
        doc = {"loss": {"name": "square", "B": 1.0}, "horizon": 3, "histories": 4, "seed": 0, **rel_cfg}
        cfg = tmp_path / "adm.json"
        cfg.write_text(json.dumps(doc))
        code = cli_main(["admissibility", "--config", str(cfg)])
        captured = capsys.readouterr()
        return code, captured.out, captured.err.splitlines()

    def run_doc(self, tmp_path, rel_cfg):
        path = tmp_path / "seq.jsonl"
        path.write_text('{"x": "a", "y": 0.5}\n{"x": "b", "y": -0.5}\n{"x": "a", "y": 1.0}\n')
        forecaster = {k: v for k, v in rel_cfg.items() if k != "family"}
        return {
            "seed": 0,
            "loss": {"name": "square", "B": 1.0},
            "family": rel_cfg["family"],
            "forecaster": {"kind": "relaxation", **forecaster},
            "generator": {"kind": "replay", "path": str(path)},
            "horizon": 3,
        }

    def test_vaw_with_list_covariates_runs(self, tmp_path, capsys):
        code, out, err = self.admissibility(tmp_path, capsys, RELAXATION_CONFIGS["vaw"])
        assert code == 0 and err == [] and json.loads(out)["passed"] is True

    def test_conditional_rademacher_defaults_to_the_family_covariates(self, tmp_path, capsys):
        code, out, err = self.admissibility(tmp_path, capsys, RELAXATION_CONFIGS["conditional_rademacher"])
        assert code == 0 and err == [] and json.loads(out)["passed"] is True

    @pytest.mark.parametrize(
        "relaxation, family, needs",
        [
            ("experts", LINEAR_FAMILY, "a finite table family"),
            ("conditional_rademacher", LINEAR_FAMILY, "a finite table family"),
            ("vaw", EXPERTS_FAMILY, "a linear family"),
        ],
        ids=["experts-linear", "conditional_rademacher-linear", "vaw-finite_table"],
    )
    def test_relaxation_and_family_of_different_kinds(self, tmp_path, capsys, relaxation, family, needs):
        rel_cfg = {"relaxation": relaxation, "family": family, "covariate_set": ["a"]}
        message = f"configuration error: the {relaxation} relaxation needs {needs}"
        code, _, err = self.admissibility(tmp_path, capsys, rel_cfg)
        assert code == 2 and err == [message]
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(self.run_doc(tmp_path, rel_cfg)))
        assert cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.splitlines() == [message]

    @pytest.mark.parametrize(
        "relaxation, family, covariates",
        [("experts", EXPERTS_FAMILY, ["a"]), ("vaw", LINEAR_FAMILY, [[0.5, 0.0]])],
        ids=["experts", "vaw"],
    )
    def test_scale_below_the_loss_bound(self, tmp_path, capsys, relaxation, family, covariates):
        """A ``B`` below the loss's outcome bound is one configuration error
        naming both, for the relaxation on both verbs and for the closed-form
        forecaster of the same name on ``run``."""
        rel_cfg = {"relaxation": relaxation, "family": family, "B": 0.75, "covariate_set": covariates}
        message = "configuration error: forecaster B=0.75 is below the loss's outcome bound B=1.0"
        code, _, err = self.admissibility(tmp_path, capsys, rel_cfg)
        assert code == 2 and err == [message]
        doc = self.run_doc(tmp_path, rel_cfg)
        for forecaster in (doc["forecaster"], {"kind": relaxation, "B": 0.75}):
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps({**doc, "forecaster": forecaster}))
            assert cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
            assert capsys.readouterr().err.splitlines() == [message]

    def test_admissibility_needs_covariates(self, tmp_path, capsys):
        rel_cfg = {k: v for k, v in RELAXATION_CONFIGS["vaw"].items() if k != "covariate_set"}
        code, _, err = self.admissibility(tmp_path, capsys, rel_cfg)
        assert code == 2 and err == ["configuration error: admissibility needs a nonempty covariate_set"]

    @pytest.mark.parametrize("name", sorted(RELAXATION_CONFIGS))
    def test_run_and_admissibility_decode_alike(self, tmp_path, capsys, monkeypatch, name):
        rel_cfg = RELAXATION_CONFIGS[name]
        config = ExperimentConfig.from_dict(self.run_doc(tmp_path, rel_cfg))
        forecaster, _, _ = config.build_forecaster(config.build_model(), config.build_family())
        seen = {}
        check = cli.check_admissibility

        def spy(rel, model, covariates, outcome_grid, prediction_grid, hists):
            seen.update(rel=rel, outcome_grid=outcome_grid, prediction_grid=prediction_grid)
            return check(rel, model, covariates, outcome_grid, prediction_grid, hists)

        monkeypatch.setattr(cli, "check_admissibility", spy)
        assert self.admissibility(tmp_path, capsys, rel_cfg)[0] == 0
        assert seen["rel"].state.potential() == forecaster.rel.state.potential()
        assert seen["outcome_grid"] == forecaster.outcome_grid
        assert seen["prediction_grid"] == forecaster.prediction_grid


@pytest.mark.parametrize(
    "family, forecaster, horizon, ridge, bound",
    [
        (EXPERTS_FAMILY, {"kind": "experts", "B": 1.5}, 2, 0.0, ("experts", {"B": 1.5, "size": 3})),
        (LINEAR_FAMILY, {"kind": "vaw", "lambda": 0.5}, 8, 0.5, ("vaw", {"n": 8, "d": 2, "B": 1.0, "lam": 0.5})),
        (LINEAR_FAMILY, {"kind": "vaw", "lambda": 2.0}, 3, 2.0, None),
        (EXPERTS_FAMILY, {"kind": "comparator", "handle": 1}, 2, 0.0, None),
        (EXPERTS_FAMILY, {"kind": "relaxation", "B": 1.25}, 2, 0.0, ("experts", {"B": 1.25, "size": 3})),
        (LINEAR_FAMILY, {"kind": "relaxation", "relaxation": "vaw"}, 2, 0.0, None),
        (EXPERTS_FAMILY, {"kind": "relaxation", "relaxation": "conditional_rademacher"}, 2, 0.0, None),
    ],
    ids=["experts", "vaw", "vaw-n-below-lambda-d", "comparator", "experts-relaxation", "vaw-relaxation",
         "conditional-relaxation"],
)
def test_forecaster_decoder_ridge_and_bound(family, forecaster, horizon, ridge, bound):
    """``build_forecaster``'s ridge and bound for each forecaster kind: the
    bound is ``regret_bound``'s value bit for bit, or None where the run has
    none (vaw at n = 3 < λd = 4 is outside the bound's domain)."""
    config = ExperimentConfig.from_dict(
        {
            "seed": 0,
            "loss": {"name": "square", "B": 1.0},
            "family": family,
            "forecaster": forecaster,
            "generator": {"kind": "replay", "path": "unused.jsonl"},
            "horizon": horizon,
        }
    )
    _, got_ridge, got_bound = config.build_forecaster(config.build_model(), config.build_family())
    assert type(got_ridge) is float and got_ridge == ridge
    if bound is None:
        assert got_bound is None
    else:
        assert got_bound.hex() == regret_bound(bound[0], **bound[1]).hex()

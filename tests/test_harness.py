"""Experiment configs, generators, artifact bundles, and the CLI."""

import hashlib
import json
import math

import numpy as np
import pytest

from regretlab import cli, harness
from regretlab.cli import main as cli_main
from regretlab.errors import ConfigError, ProtocolError
from regretlab.forecasters import RoundRecord, regret_bound
from regretlab.harness import ExperimentConfig, generate_sequence, run_experiment
from regretlab.verify import CheckResult, run_suite

EXPERTS_FAMILY = {
    "variant": "finite_table",
    "covariate_ids": ["a", "b"],
    "values": [[0.5, -0.5], [-0.25, 0.75], [0.0, 0.0]],
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


class TestRunExperiment:
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


def capture_records(monkeypatch):
    """The records of every run_online call that run_experiment makes."""
    runs = []
    real = harness.run_online

    def run(*args, **kwargs):
        records, final = real(*args, **kwargs)
        runs.append(records)
        return records, final

    monkeypatch.setattr(harness, "run_online", run)
    return runs


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
        runs = capture_records(monkeypatch)
        summary = run_experiment(cfg, out_dir=tmp_path)
        self.assert_bundle(tmp_path, runs[0], summary)
        return summary

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
        records = [RoundRecord(*row) for row in rows]
        monkeypatch.setattr(harness, "run_online", lambda *a, **k: (records, records[-1].cumulative_regret))
        summary = run_experiment(experts_config(tmp_path, horizon=len(records)), out_dir=tmp_path)
        self.assert_bundle(tmp_path, records, summary)

    def test_non_finite_floats_among_floats(self, tmp_path, monkeypatch):
        nan, inf = math.nan, math.inf
        rows = [(1, "a", 0.5, nan, inf, -inf), (2, "b", -inf, 0.5, nan, nan), (3, "a", inf, -inf, -0.0, 0.25)]
        records = [RoundRecord(*row) for row in rows]
        monkeypatch.setattr(harness, "run_online", lambda *a, **k: (records, records[-1].cumulative_regret))
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


class TestSuitePlumbing:
    def test_passing_subset_exits_zero(self):
        results, status = run_suite(level="fast", names=["khinchine_inequality"])
        assert status == 0 and results[0].passed

    def test_injected_broken_check_fails_the_suite(self):
        def broken() -> CheckResult:
            return CheckResult("injected_broken_relaxation", False, -1.0, "", 0.0)

        results, status = run_suite(
            level="fast", names=["khinchine_inequality"], extra_checks=[broken]
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
        # Adaptive Simpson never converges on a NaN or infinite interval.
        doc = {"log_cover": {"kind": "constant", "value": 1.0}, "n": 4, "rho": 0.1, "gamma": 1.0, **scales}
        code, err = self.run(tmp_path, capsys, ["complexity", "dudley"], doc)
        assert code == 2 and len(err) == 1 and err[0].startswith("DomainError: ")

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

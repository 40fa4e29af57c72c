"""The benchmark's three workloads: seeded inputs, one iteration, and the
correctness gate on every operation.

A workload object is built once per process (its set-up, which generates
every input from the seed) and then runs iterations.  Each iteration runs a
fixed list of operations; an operation is one check, one engine call or one
experiment run.  It fails when it raises or when its output fails the gate.
The library only ever receives the generated inputs.

Every call into regretlab goes through the module attribute
(``complexity.seq_rademacher``, not a bound name), so that the traced run
can wrap the callable in place.
"""

from __future__ import annotations

import itertools
import json
import math
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import speed
from regretlab import comparators, complexity, forecasters, harness, losses, minimax, verify
from regretlab.trees import LabeledTree

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"
DEFAULT_SEED = 1

# Stored reference values are compared at the default seed: integers
# exactly, floats to this tolerance, relative to max(1, |reference|).  It
# admits a changed summation order but no change in any result.
FLOAT_TOL = 1e-9
# Slack for the closed-form bounds used as certificates (float accumulation).
BOUND_SLACK = 1e-9

# The searches (covers, shattering, the game) take time that depends
# strongly on the instance, with a heavy tail.  Their instances are drawn
# once from BASE_SEED; the run's seed relabels each one (see relabel), which
# gives new inputs for the same search, so its work hardly moves with the seed.
BASE_SEED = 0

# Engine guards that refuse sizes this workload needs, although both finish
# in well under a second.  They are work limits, not correctness checks.
# offset_rademacher_sup estimates (|X||M|)^(2^n - 1) = 6^15 ~ 4.7e11
# labelings at n=4, but its recursion makes (2|X||M|)^n ~ 2e4 calls.
SUP_GUARD = 1e12
# GameSpec estimates n * (|X||Y||P|)^n = 6 * 45^6 ~ 5e10 states at n=6, but
# the memo keeps about 1.6e3.
GAME_GUARD = 1e11

# Criterion 07 runs its searches over 300 of the 3991 tiny families at the
# fast level, about 20 s per pass: too long for a run to time ten passes.
# certify runs the check as shipped on an evenly spaced slice of the families
# instead (check07_families of them), a fixed input that --seed does not
# reach, split into check07_parts operations so that each stays short (see
# speed.py).  Every other operation is sized to take well under a second.
SIZES = {
    "full": dict(
        check07_families=20, check07_parts=4,
        rad_n=13, off_n=11, collapse_n=10, tree_max_n=10, tree_max_w=16,
        sup_n=4, game_n=6, fat_count=12, fat_size=12, fat_depth=4,
        cover_count=24, adm_experts_n=6, adm_vaw_n=6,
        experts_n=5_000, vaw_n=4_000, relax_n=300,
    ),
    # Seconds-long smoke size for the benchmark's own tests.
    "tiny": dict(
        check07_families=2, check07_parts=2,
        rad_n=6, off_n=5, collapse_n=4, tree_max_n=4, tree_max_w=4,
        sup_n=2, game_n=2, fat_count=2, fat_size=6, fat_depth=3,
        cover_count=2, adm_experts_n=3, adm_vaw_n=4,
        experts_n=2_000, vaw_n=500, relax_n=30,
    ),
}


@dataclass
class OpResult:
    """``seconds`` is wall time, ``scaled_s`` the same at the reference speed
    (see speed.py); neither counts the gate."""

    name: str
    seconds: float
    ok: bool
    detail: str = ""
    scaled_s: float = 0.0


@dataclass
class Op:
    """One operation: ``run`` computes, ``gate`` returns an error or None."""

    name: str
    run: Callable[[], Any]
    gate: Callable[[Any], str | None]


@dataclass
class Iteration:
    ops: list[OpResult] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return math.fsum(r.seconds for r in self.ops)

    @property
    def scaled_s(self) -> float:
        return self.scaled_of(lambda name: True)

    def scaled_of(self, names: Callable[[str], bool]) -> float:
        return math.fsum(r.scaled_s for r in self.ops if names(r.name))


def median_seconds(its: list[Iteration], names: Callable[[str], bool]) -> float:
    """Median scaled seconds per iteration of the named operations."""
    return float(np.median([it.scaled_of(names) for it in its]))


def rng_for(seed: int, salt: int) -> np.random.Generator:
    """Independent PCG64 stream per (seed, input) pair."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, salt])))


def close(got: float, want: float) -> bool:
    return abs(got - want) <= FLOAT_TOL * max(1.0, abs(want))


def load_reference(workload: str) -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)[workload]


def random_tree(rng: np.random.Generator, depth: int, labels) -> LabeledTree:
    labels = list(labels)
    return LabeledTree(
        [[labels[k] for k in rng.integers(len(labels), size=2 ** (t - 1))] for t in range(1, depth + 1)]
    )


def real_tree(rng: np.random.Generator, depth: int) -> LabeledTree:
    return LabeledTree([rng.uniform(-1.0, 1.0, size=2 ** (t - 1)).tolist() for t in range(1, depth + 1)])


def table(rng: np.random.Generator, size: int, n_x: int, grid=None) -> comparators.FiniteTableFamily:
    """Random table; on a grid, every column holds every grid value once
    the family is large enough, so search sizes vary little with the seed."""
    ids = [f"x{j}" for j in range(n_x)]
    if grid is None:
        return comparators.FiniteTableFamily(ids, rng.uniform(-1.0, 1.0, size=(size, n_x)))
    grid = np.asarray(grid, dtype=float)
    columns = []
    for _ in range(n_x):
        col = np.concatenate([grid[: min(size, len(grid))], rng.choice(grid, size=max(0, size - len(grid)))])
        columns.append(rng.permutation(col))
    return comparators.FiniteTableFamily(ids, np.stack(columns, axis=1))


def relabel(rng: np.random.Generator, fam: comparators.FiniteTableFamily, *trees: LabeledTree) -> tuple:
    """The same search instance under new labels: predictors and covariates
    permuted and, since every grid is symmetric about 0, signs flipped.
    Returns the new family followed by each tree with its labels renamed."""
    rows = rng.permutation(fam.n_predictors)
    cols = rng.permutation(len(fam.covariate_ids))
    sign = float(rng.choice((-1.0, 1.0)))
    ids = fam.covariate_ids
    renamed = {ids[c]: ids[j] for j, c in enumerate(cols)}  # old column c is now column j
    out = comparators.FiniteTableFamily(ids, sign * fam.values[rows][:, cols])
    return (out, *(t.map(renamed.__getitem__) for t in trees))


def square(d: float) -> float:
    return d * d


def zero(d: float) -> float:
    return 0.0


class Workload:
    """Base: a list of ops built in set-up, run once per iteration."""

    name = ""

    def __init__(self, seed: int, scale: str, tmp: Path):
        self.seed = seed
        self.scale = scale
        self.tmp = tmp
        self.size = SIZES[scale]
        self.ops: list[Op] = []

    def iteration(self) -> Iteration:
        """Run every op once, with a speed unit between consecutive ops."""
        it = Iteration()
        before = speed.unit()
        for op in self.ops:
            t0 = time.perf_counter()
            try:
                out = op.run()
                seconds = time.perf_counter() - t0
                error = op.gate(out)
            except Exception:  # an operation that raises is a failed operation
                seconds = time.perf_counter() - t0
                error = traceback.format_exc()
            after = speed.unit()
            scaled_s = speed.scaled(seconds, before, after)
            it.ops.append(OpResult(op.name, seconds, error is None, error or "", scaled_s))
            before = after
        return it

    def warmup(self) -> Iteration:
        """One iteration of the same workload at the tiny scale: every code
        path runs once, so imports and lazy set-up finish before timing."""
        tmp = self.tmp / "warmup"
        tmp.mkdir(exist_ok=True)
        return type(self)(self.seed, "tiny", tmp).iteration()

    def summary(self, its: list[Iteration]) -> dict[str, float]:
        """Workload-specific figures (median seconds of a part of the
        iteration, or a rate) for the human-readable report."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# certify: the acceptance suite at the fast level
# ---------------------------------------------------------------------------

CHECK07 = "cover_fat_dudley_consistency"


class Certify(Workload):
    """``verify.run_suite(level="fast")``, all ten checks, with criterion 07
    on a fixed slice of its families, split into parts.  The suite fixes its
    own inputs, so the seed does not reach it; every margin is compared with
    the one recorded at the seed commit."""

    name = "certify"

    def __init__(self, seed: int, scale: str, tmp: Path):
        super().__init__(seed, scale, tmp)
        self.reference = load_reference("certify")[scale]
        families = list(verify._all_tiny_families(3, 4))
        count, parts = self.size["check07_families"], self.size["check07_parts"]
        picked = families[:: len(families) // count][:count]
        for check in verify.ALL_CHECKS:
            if check == CHECK07:
                for k in range(parts):
                    self._add(f"{CHECK07}[{k}]", self._check07(picked[k::parts]))
            else:
                self._add(check, self._check)

    def _add(self, name: str, run: Callable[[str], Any]) -> None:
        check = name.split("[")[0]
        want = self.reference[name]

        def gate(res) -> str | None:
            if not res.passed:
                return f"{name} failed with margin {res.margin!r}"
            if not close(float(res.margin), want):
                return f"{name} margin {res.margin!r} differs from reference {want!r}"
            return None

        self.ops.append(Op(name, lambda: run(check), gate))

    @staticmethod
    def _check(check: str):
        results, _ = verify.run_suite(level="fast", names=[check])
        return results[0]

    def _check07(self, families: list) -> Callable[[str], Any]:
        def run(check: str):
            # The check draws 300 of the families it is given, or keeps all
            # of them when it is given fewer.
            all_families = verify._all_tiny_families
            verify._all_tiny_families = lambda *args: iter(families)
            try:
                return self._check(check)
            finally:
                verify._all_tiny_families = all_families

        return run

    def summary(self, its: list[Iteration]) -> dict[str, float]:
        return {
            "check07_s": median_seconds(its, lambda name: name.startswith(CHECK07)),
            "checks_rest_s": median_seconds(its, lambda name: not name.startswith(CHECK07)),
        }


# ---------------------------------------------------------------------------
# exact: the exact engines at reach sizes on seeded tiny instances
# ---------------------------------------------------------------------------


def is_search(name: str) -> bool:
    return name.startswith(("fat_shattering[", "seq_cover_number["))


class Exact(Workload):
    """Path kernels, offset supremum, SolvedGame and the relaxation
    evaluators, plus cover and shattering searches with one solve per
    set-up."""

    name = "exact"

    def __init__(self, seed: int, scale: str, tmp: Path):
        super().__init__(seed, scale, tmp)
        s = self.size
        self.reference = load_reference("exact") if seed == DEFAULT_SEED and scale == "full" else None
        self._path_kernels(rng_for(seed, 1))
        self._offset_sup(rng_for(seed, 2))
        self._game(rng_for(BASE_SEED, 3), rng_for(seed, 3))
        self._admissibility(rng_for(seed, 4))
        base, rng = rng_for(BASE_SEED, 5), rng_for(seed, 5)
        for k in range(s["fat_count"]):
            self._fat(base, rng, k)
        base, rng = rng_for(BASE_SEED, 6), rng_for(seed, 6)
        for k in range(s["cover_count"]):
            self._cover(base, rng, k)

    def _add(self, name: str, run, gate) -> None:
        """Add an op whose gate, at the default seed, also compares the
        value it returns with the stored reference."""

        def checked(out):
            value, error = gate(out)
            if error is None and self.reference is not None:
                want = self.reference[name]
                same = value == want if isinstance(want, int) else close(value, want)
                if not same:
                    error = f"{name} = {value!r}, reference {want!r}"
            return error

        self.ops.append(Op(name, run, checked))

    def summary(self, its: list[Iteration]) -> dict[str, float]:
        return {
            "engines_s": median_seconds(its, lambda name: not is_search(name)),
            "searches_s": median_seconds(its, is_search),
        }

    def _path_kernels(self, rng) -> None:
        s = self.size
        fam = table(rng, 8, 4)
        ids = fam.covariate_ids
        max_abs = float(np.abs(fam.values).max())
        x_rad = random_tree(rng, s["rad_n"], ids)
        x_off = random_tree(rng, s["off_n"], ids)
        mu_off = real_tree(rng, s["off_n"])
        x_col = random_tree(rng, s["collapse_n"], ids)
        mu_zero = LabeledTree.constant(s["collapse_n"], 0.0)
        trees = [real_tree(rng, s["tree_max_n"]) for _ in range(s["tree_max_w"])]
        c_off, c_col = 1.0, 0.5  # dyadic 2C keeps the collapse bitwise exact
        # Finite-class certificates: E max_f sum eps f <= sqrt(2 n log|F|) max|f|
        # and, for the square offset, E max_w sum [2C eps w - w^2] <= 2 C^2 log|W|.
        massart = math.sqrt(2.0 * s["rad_n"] * math.log(fam.n_predictors)) * max_abs

        def rad_gate(v):
            ok = -BOUND_SLACK <= v <= massart + BOUND_SLACK
            return v, None if ok else f"seq_rademacher {v!r} outside [0, {massart!r}]"

        def offset_gate(bound: float, what: str):
            def gate(v):
                return v, None if v <= bound + BOUND_SLACK else f"{what} {v!r} above 2C^2 log|W| = {bound!r}"

            return gate

        def collapse():
            lhs = complexity.offset_rademacher(fam, x_col, mu_zero, c_col, zero)
            return lhs, 2.0 * c_col * complexity.seq_rademacher(fam, x_col)

        def collapse_gate(out):
            lhs, rhs = out
            return lhs, None if lhs == rhs else f"zero-offset {lhs!r} != 2C seq_rademacher {rhs!r}"

        self._add("seq_rademacher", lambda: complexity.seq_rademacher(fam, x_rad), rad_gate)
        self._add(
            "offset_rademacher",
            lambda: complexity.offset_rademacher(fam, x_off, mu_off, c_off, square),
            offset_gate(2.0 * c_off**2 * math.log(fam.n_predictors), "offset_rademacher"),
        )
        self._add("offset_collapse", collapse, collapse_gate)
        self._add(
            "offset_tree_max",
            lambda: complexity.offset_tree_max(trees, c_off, square),
            offset_gate(2.0 * c_off**2 * math.log(len(trees)), "offset_tree_max"),
        )

    def _offset_sup(self, rng) -> None:
        n = self.size["sup_n"]
        fam = table(rng, 3, 2)
        mu_grid = (-1.0, 0.0, 1.0)
        c = 1.0
        # Any fixed pair of labeled trees is a lower certificate for the sup.
        x_tree = random_tree(rng, n, fam.covariate_ids)
        mu_tree = random_tree(rng, n, mu_grid)
        upper = 2.0 * c * c * math.log(fam.n_predictors)

        def run():
            sup = complexity.offset_rademacher_sup(
                fam, fam.covariate_ids, mu_grid, n, C=c, offset=square, guard=SUP_GUARD
            )
            return sup, complexity.offset_rademacher(fam, x_tree, mu_tree, c, square)

        def gate(out):
            sup, fixed = out
            if not fixed - BOUND_SLACK <= sup <= upper + BOUND_SLACK:
                return sup, f"offset sup {sup!r} outside [{fixed!r}, {upper!r}]"
            return sup, None

        self._add("offset_rademacher_sup", run, gate)

    def _game(self, base, rng) -> None:
        (fam,) = relabel(rng, table(base, 4, 3, grid=(-1.0, -0.5, 0.0, 0.5, 1.0)))
        spec = minimax.GameSpec(
            family=fam,
            model=losses.absolute_loss(1.0),
            horizon=self.size["game_n"],
            covariate_set=fam.covariate_ids,
            outcome_grid=(-1.0, 0.0, 1.0),
            prediction_grid=tuple(np.linspace(-1.0, 1.0, 5).tolist()),
            guard=GAME_GUARD,
        )

        def run():
            game = minimax.SolvedGame(spec)
            return game.value, game.replay_optimal()[1]

        def gate(out):
            value, regret = float(out[0]), float(out[1])
            ok = abs(regret - value) <= BOUND_SLACK
            return value, None if ok else f"replayed regret {regret!r} != game value {value!r}"

        self._add("SolvedGame", run, gate)

    def _admissibility(self, rng) -> None:
        s = self.size
        model = losses.square_loss(1.0)
        grid = tuple(np.linspace(-1.0, 1.0, 21).tolist())
        n = s["adm_experts_n"]
        fam = comparators.FiniteTableFamily(["a", "b"], rng.uniform(-1.0, 1.0, size=(5, 2)))
        xs = [("a", "b")[t % 2] for t in range(n)]
        hists = [list(zip(xs, ys)) for ys in itertools.product((-1.0, 1.0), repeat=n)]

        def experts():
            rel = forecasters.experts_relaxation_oracle(fam, 1.0, n)
            return forecasters.check_admissibility(rel, model, ["a", "b"], (-1.0, 1.0), grid, hists)

        n_v, d = s["adm_vaw_n"], 2
        v_hists, v_covs = [], []
        for _ in range(3):
            zs = [tuple((0.7 * rng.uniform(-1.0, 1.0, size=d) / math.sqrt(d)).tolist()) for _ in range(n_v)]
            ys = rng.uniform(-1.0, 1.0, size=n_v).tolist()
            v_hists.append(list(zip(zs, ys)))
            v_covs.append(zs[0])

        def vaw():
            rel = forecasters.vaw_relaxation_oracle(1.0, 1.0, n_v, d)
            return forecasters.check_admissibility(rel, model, v_covs, (-1.0, 1.0), grid, v_hists)

        def gate(rep):
            margin = float(rep.worst_margin)
            return margin, None if rep.passed() else f"admissibility margin {margin!r} below -1e-8"

        self._add("check_admissibility_experts", experts, gate)
        self._add("check_admissibility_vaw", vaw, gate)

    def _fat(self, base, rng, k: int) -> None:
        s = self.size
        (fam,) = relabel(rng, table(base, s["fat_size"], 3, grid=(-1.0, -0.5, 0.0, 0.5, 1.0)))
        beta = (0.5, 1.0)[k % 2]
        # Shattering depth d needs 2^d distinct predictors.
        cap = int(math.log2(fam.n_predictors))

        def gate(out):
            depth, cert = out
            if depth > cap:
                return depth, f"depth {depth} above log2|F| = {cap}"
            if depth and not (cert.depth == depth and cert.validate(fam)):
                return depth, "shattering certificate does not validate"
            return depth, None

        self._add(
            f"fat_shattering[{k}]",
            lambda: complexity.fat_shattering(fam, beta=beta, max_depth=s["fat_depth"]),
            gate,
        )

    def _cover(self, base, rng, k: int) -> None:
        fam = table(base, 5 + k % 4, 3, grid=(-1.0, 0.0, 1.0))
        fam, x = relabel(rng, fam, random_tree(base, 3, fam.covariate_ids))
        norm, beta = (("linf", 0.5), ("l2", 0.75), ("l2", 1.0))[k % 3]

        def gate(rep):
            if not 1 <= rep.size <= fam.n_predictors or len(rep.cover) != rep.size:
                return rep.size, f"cover size {rep.size} outside [1, {fam.n_predictors}]"
            if not rep.validate(fam, x):
                return rep.size, "cover certificate does not validate"
            return rep.size, None

        self._add(f"seq_cover_number[{k}]", lambda: complexity.seq_cover_number(fam, x, beta, norm), gate)


# ---------------------------------------------------------------------------
# online: streaming forecasters through the experiment harness
# ---------------------------------------------------------------------------


class Online(Workload):
    """``harness.run_experiment`` end to end for three configs: experts over
    |F|=32, VAW replaying a generated file, and the generic relaxation
    forecaster."""

    name = "online"
    B = 1.0

    def __init__(self, seed: int, scale: str, tmp: Path):
        super().__init__(seed, scale, tmp)
        s = self.size
        self.reference = load_reference("online") if seed == DEFAULT_SEED and scale == "full" else None
        loss = {"name": "square", "B": self.B}
        formats = {"formats": ["jsonl", "csv", "svg"]}
        rng = rng_for(seed, 7)
        experts_family = self._family(rng, 32, 8)
        relax_family = self._family(rng, 8, 4)
        vaw_path = self._write_vaw_replay(rng, s["vaw_n"], 5)
        self.configs = {
            "experts": harness.ExperimentConfig(
                seed=int(rng.integers(2**31)),
                loss=loss,
                family=experts_family,
                forecaster={"kind": "experts"},
                generator={"kind": "iid_noise", "expert": int(rng.integers(32)), "noise": 0.3},
                horizon=s["experts_n"],
                output=formats,
            ),
            "vaw": harness.ExperimentConfig(
                seed=int(rng.integers(2**31)),
                loss=loss,
                family={"variant": "linear", "dimension": 5},
                forecaster={"kind": "vaw", "lambda": 1.0},
                generator={"kind": "replay", "path": str(vaw_path)},
                horizon=s["vaw_n"],
                output=formats,
            ),
            "relax": harness.ExperimentConfig(
                seed=int(rng.integers(2**31)),
                loss=loss,
                family=relax_family,
                forecaster={"kind": "relaxation", "relaxation": "experts"},
                generator={"kind": "iid_noise", "expert": int(rng.integers(8)), "noise": 0.3},
                horizon=s["relax_n"],
                output=formats,
            ),
        }
        for name, cfg in self.configs.items():
            self.ops.append(Op(name, self._runner(name, cfg), self._gate(name, cfg)))

    @staticmethod
    def _family(rng, size: int, n_x: int) -> dict:
        return {
            "variant": "finite_table",
            "covariate_ids": [f"c{j}" for j in range(n_x)],
            "values": rng.uniform(-1.0, 1.0, size=(size, n_x)).tolist(),
        }

    def _write_vaw_replay(self, rng, n: int, d: int) -> Path:
        # iid_noise needs a finite table, so a replay file is the only way to
        # feed the ridge forecaster vector covariates; |x| <= 1, |y| <= B.
        w = rng.uniform(-1.0, 1.0, size=d)
        w /= max(1.0, float(np.linalg.norm(w)))
        xs = rng.uniform(-1.0, 1.0, size=(n, d)) / math.sqrt(d)
        ys = np.clip(xs @ w + 0.2 * rng.standard_normal(n), -self.B, self.B)
        path = self.tmp / "vaw_replay.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for x, y in zip(xs.tolist(), ys.tolist()):
                fh.write(json.dumps({"x": x, "y": y}) + "\n")
        return path

    def _runner(self, name: str, cfg) -> Callable[[], Any]:
        out_dir = self.tmp / name
        return lambda: harness.run_experiment(cfg, out_dir=out_dir)

    def _gate(self, name: str, cfg) -> Callable[[Any], str | None]:
        size = len(cfg.family.get("values", ()))

        def gate(summary) -> str | None:
            if summary["rounds_logged"] != cfg.horizon:
                return f"{name}: logged {summary['rounds_logged']} of {cfg.horizon} rounds"
            regret = summary["final_regret"]
            if name == "relax":
                # The harness reports no bound for relaxation runs; the
                # experts relaxation certifies Rel(empty) = 2 B^2 log|F|.
                bound = forecasters.regret_bound("experts", B=self.B, size=size)
                if not regret <= bound + BOUND_SLACK:
                    return f"relax: regret {regret!r} above 2B^2 log|F| = {bound!r}"
            elif summary["bound_satisfied"] is not True:
                return f"{name}: regret {regret!r} above bound {summary['bound']!r}"
            if self.reference is not None and not close(regret, self.reference[name]):
                return f"{name}: final regret {regret!r}, reference {self.reference[name]!r}"
            return None

        return gate

    def summary(self, its: list[Iteration]) -> dict[str, float]:
        return {
            f"{name}_rounds_per_s": cfg.horizon / median_seconds(its, lambda op: op == name)
            for name, cfg in self.configs.items()
        }


WORKLOADS: dict[str, type[Workload]] = {w.name: w for w in (Certify, Exact, Online)}

"""Acceptance suite: one test per criterion, full level, stated tolerances.

Each test prints its one-line pass/fail record with the observed margin so
a plain ``pytest -s tests/test_acceptance.py`` doubles as the checklist.
The same checks back the ``regretlab verify`` command.
"""

import pytest

from regretlab.verify import ALL_CHECKS, CheckResult


def _run(name: str, max_seconds: float | None = None) -> CheckResult:
    result = ALL_CHECKS[name]("full")
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] {result.name}: margin={result.margin:.3e} "
          f"time={result.seconds:.2f}s  {result.detail}")
    assert result.passed, f"{name} failed with margin {result.margin:.3e}: {result.detail}"
    if max_seconds is not None:
        assert result.seconds < max_seconds, (
            f"{name} took {result.seconds:.1f}s, budget {max_seconds}s"
        )
    return result


def test_criterion_01_experts_regret_bound():
    """50 seeded sequences (iid / tiled game adversary / best response),
    B = 1, 10 experts, n = 1000: regret never exceeds the certified
    relaxation bound, within 1e-9, in under 2 seconds.  The margin is
    pinned to the last bit."""
    result = _run("experts_regret_bound", max_seconds=2.0)
    assert result.margin.hex() == (0.08527734978021861).hex()


def test_criterion_02_vaw_regret_bound():
    """d in {1, 2, 5}, lambda = 1, B = 1, n = 1000, 20 seeds: the ridge
    forecaster's displayed inequality holds for the ridge optimum and 100
    random comparators, within 1e-9, in under 3 seconds.  The margin is
    pinned to the last bit."""
    result = _run("vaw_regret_bound", max_seconds=3.0)
    assert result.margin.hex() == (0.026230384951661412).hex()


def test_criterion_03_admissibility_margins():
    """Experts relaxation under full outcome enumeration (|F| <= 5, n = 6)
    and ridge relaxation on random histories (d <= 2, n = 6): every
    recursive, distributional, and initial margin is >= -1e-8."""
    _run("admissibility_margins")


def test_criterion_04_finite_class_offset_bound():
    """Quadratic-conjugate bound returns 2 C^2 log|W| to 1e-6 for
    C in {0.5, 1, 2} x |W| in {2, 4, 16}; exhaustive offset maxima over
    explicit tree collections (n <= 8) never exceed the bound."""
    _run("finite_class_offset_bound")


def test_criterion_05_minimax_sandwiches():
    """Five tiny games (n <= 3, |F| <= 3, grids <= 5 points): absolute-loss
    games sit between Rad and 2 Rad within the reported grid tolerance;
    square-loss games beat the two-point lower bound at the shattering
    scale; the offset supremum on matched grids dominates every value.
    Under 2 minutes."""
    _run("minimax_sandwiches", max_seconds=120.0)


def test_criterion_06_value_monotonicity():
    """Game values are nondecreasing over horizons {0, 1, 2, 3} on all
    tiny games."""
    _run("value_monotonicity")


def test_criterion_07_cover_fat_dudley():
    """All tiny families (|F| <= 4 over |X| <= 3, values in {-1, 0, 1},
    deduplicated up to covariate relabeling; depth 3): averaged-scale
    covers never beat pointwise ones, doubled-scale pointwise covers obey
    the shattering bound, and the integrated-entropy bound dominates the
    exact Rademacher complexity."""
    _run("cover_fat_dudley_consistency")


def test_criterion_08_khinchine():
    """Exact E|sum of k signs| >= sqrt(k/2) for every k <= 24."""
    _run("khinchine_inequality")


def test_criterion_09_rates():
    """Upper/lower rate exponents agree to 1e-6 on the 5 x 3 (p, r) grid;
    both branches give -1/2 at the phase transition p = 2; the sparse
    covering bound matches its formula arithmetic to 1e-3."""
    _run("rate_formulas")


def test_criterion_10_offset_collapse():
    """Zero offset collapses the offset complexity to exactly 2C times the
    sequential Rademacher complexity (n <= 10 random instances)."""
    _run("offset_collapse")

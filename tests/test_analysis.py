"""Work-factor numerics: roots, the size-weight optimum, and bound tables."""

import math
import random
import time

import pytest

from csp32.analysis import (
    EPSILON,
    LAMBDA,
    bound_report,
    lemma_table,
    optimize_epsilon,
    work_factor,
    worst_case_breakdown,
)


def test_work_factor_closed_forms():
    # Single-branch recurrences are linear time.
    assert work_factor(5) == 1.0
    # T(n) = 2 T(n-1) doubles per level.
    assert work_factor(1, 1) == pytest.approx(2.0, abs=1e-8)
    # T(n) = 2 T(n-2): sqrt(2) per unit.
    assert work_factor(2, 2) == pytest.approx(math.sqrt(2), abs=1e-8)
    # T(n) = T(n-1) + T(n-2): the golden ratio.
    assert work_factor(1, 2) == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-8)


def test_branch_vector_rejects_bad_entries():
    with pytest.raises(ValueError):
        work_factor()
    with pytest.raises(ValueError):
        work_factor(2.0, 0.0)
    with pytest.raises(ValueError):  # checked before the one-branch shortcut
        work_factor(-1.0)


def test_root_satisfies_characteristic_equation():
    rng = random.Random(20260826)
    for _ in range(200):
        k = rng.randint(2, 5)
        rs = [rng.uniform(0.5, 8.0) for _ in range(k)]
        lam = work_factor(*rs)
        assert lam > 1.0
        # f(lam) = 1 - sum lam^-r must vanish at the returned root.
        assert abs(1.0 - sum(lam ** -r for r in rs)) < 1e-7


def test_work_factor_monotonicity():
    rng = random.Random(7)
    for _ in range(100):
        rs = sorted(rng.uniform(1.0, 6.0) for _ in range(3))
        base = work_factor(*rs)
        # An extra branch can only increase the factor.
        assert work_factor(*rs, 5.0) > base
        # Deeper decreases can only lower it.
        assert work_factor(*(r + 0.5 for r in rs)) < base


def test_factorization_identity_256_equals_23():
    # 1 - x^-2 - x^-5 - x^-6 and 1 - x^-2 - x^-3 share their largest root:
    # x^6 - x^4 - x - 1 = (x^3 - x - 1)(x^3 - x^2 + x + 1) up to sign.
    assert work_factor(2, 5, 6) == pytest.approx(work_factor(2, 3), abs=1e-8)


def test_optimized_epsilon_matches_pinned_weight():
    eps, lam = optimize_epsilon()
    assert eps == pytest.approx(EPSILON, abs=1e-5)
    assert lam == pytest.approx(LAMBDA, abs=1e-6)
    # The optimum balances the two extremal branchings with the four-way split.
    assert work_factor(3 - eps, 4 - eps, 4 - eps) == pytest.approx(lam, abs=1e-6)
    assert work_factor(1 + eps, 4) == pytest.approx(lam, abs=1e-6)


def test_lemma_table_peaks_at_lambda():
    rows = lemma_table()
    assert len(rows) > 20
    # Every configuration sits at or below the base factor except the
    # doubly-linked witness case, which run-time screening caps instead.
    over = [(name, v) for name, v in rows if v > LAMBDA + 1e-6]
    assert [name for name, _ in over] == ["large three-component, 2 links"]
    assert over[0][1] == pytest.approx(work_factor(1, 6, 7), abs=1e-9)
    assert over[0][1] < work_factor(1, 3)  # inside the fallback cap
    hit = max(v for name, v in rows if v <= LAMBDA + 1e-6)
    assert hit == pytest.approx(LAMBDA, abs=1e-6)
    for name, v in rows:
        assert v > 1.0, name


def test_bound_report_values():
    rep = bound_report()
    assert rep["lambda_4455"] == pytest.approx(1.36443011, abs=1e-7)
    assert rep["lambda_256"] == pytest.approx(1.32471796, abs=1e-7)
    assert rep["tree_cost"] == pytest.approx((3 * LAMBDA**3) ** (1 / 7), abs=1e-12)
    assert rep["five_grandchild_cost"] == pytest.approx(
        (6 + 3 * LAMBDA) ** (1 / 8), abs=1e-12
    )
    assert rep["edge_bound"] == pytest.approx(math.sqrt(2), abs=1e-12)
    # The final vertex bound must beat the simpler first-cut composition.
    assert rep["vertex_bound"] < rep["first_cut"]
    assert rep["vertex_bound_roots_only"] < rep["vertex_bound"]
    d2 = rep["d2_coefficients"]
    assert d2[3] == pytest.approx(LAMBDA, abs=1e-12)
    assert d2[5] == pytest.approx(1.25 * d2[4], abs=1e-12)


def test_breakdown_lp_hits_closed_form():
    got = worst_case_breakdown()
    rep = bound_report()
    assert got["bound"] == pytest.approx(rep["vertex_bound"], abs=1e-6)
    # The maximizer sits on the predicted constraint facets.
    assert got["p"] == pytest.approx(0.0, abs=1e-6)
    assert got["s"] == pytest.approx(2 * got["r"], abs=1e-6)
    assert got["s"] + got["t"] == pytest.approx(20 * got["r"] / 3, abs=1e-6)
    assert got["r"] == pytest.approx(2 * got["q"], abs=1e-6)


def test_tables_evaluate_quickly():
    t0 = time.time()
    lemma_table()
    bound_report()
    assert time.time() - t0 < 1.0

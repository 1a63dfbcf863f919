"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; all checks are exact unless a percentage is stated.
"""

import random
import time
from itertools import combinations
from math import comb

import pytest

from ginlab.families import derive_seed
from ginlab.gin import (
    certified_initial_ideal,
    generic_initial_ideal,
    is_borel_fixed,
    random_linear_change,
)
from ginlab.grassmann import SchubertIndex, hilbert_point, pluecker_coordinate
from ginlab.groebner import Ideal, buchberger, graded_basis_matrix, initial_ideal
from ginlab.hilbert import (
    HilbertPolynomial,
    binomial_poly,
    gotzmann_number,
    hilbert_function,
    hilbert_polynomial,
    lex_segment_ideal,
    macaulay_rep,
    parse_hilbert_polynomial,
)
from ginlab.cli import run_degeneracy, run_revlex_lemma
from ginlab.monideal import saturate
from ginlab.orders import GrevLex, RingContext
from ginlab.poly import apply_change

from conftest import MASTER_SEED, exhaustive_limit_oracle
from oracles import (
    monomial_ideal,
    one_ps_limit_check,
    random_subspace,
    schubert_cell_index,
    weight_vector_for_order,
)

TRIALS = 5
BOUND = 100


@pytest.fixture(scope="session")
def certified(corpus):
    """Per-ideal gin certification shared by criteria 1, 2, 3, 8 and 9."""
    records = []
    t0 = time.time()
    for label, ctx, I in corpus:
        seed = derive_seed(MASTER_SEED, 5, len(records))
        result = generic_initial_ideal(ctx, I, trials=TRIALS, seed=seed, bound=BOUND)
        P = hilbert_polynomial(ctx, I)
        records.append(
            {
                "label": label,
                "ctx": ctx,
                "ideal": I,
                "seed": seed,
                "result": result,
                "P": P,
                "m0": gotzmann_number(P),
            }
        )
    elapsed = time.time() - t0
    return {"records": records, "elapsed": elapsed}


def test_c1_gins_are_borel_fixed(certified):
    records = certified["records"]
    assert len(records) >= 30
    failures = [r["label"] for r in records if not is_borel_fixed(r["ctx"], r["result"].gin)]
    assert failures == []
    assert certified["elapsed"] < 120.0
    print(
        f"\nACCEPTANCE 1 (Borel-fixed gins): PASS "
        f"[{len(records)} ideals, {certified['elapsed']:.1f}s]"
    )


def test_c2_gin_stability(certified):
    records = certified["records"]
    stable = [r for r in records if r["result"].stable]
    share = len(stable) / len(records)
    assert share >= 0.95
    # any unstable certification must resolve to the same lex-max index under
    # a fresh master seed
    for r in records:
        if r["result"].stable:
            continue
        redo = generic_initial_ideal(
            r["ctx"], r["ideal"], trials=TRIALS, seed=r["seed"] + 777, bound=BOUND
        )
        assert redo.index == r["result"].index
    print(f"\nACCEPTANCE 2 (gin stability): PASS [{share:.0%} stable]")


def test_c3_hilbert_function_preserved(certified):
    for r in certified["records"]:
        ctx, I = r["ctx"], r["ideal"]
        m_top = r["m0"] + 2
        # oracle for dim (S/I)_m: exact elimination on raw generator multiples
        truth = []
        for m in range(m_top + 1):
            reduced, _, _ = graded_basis_matrix(ctx, I, m)
            truth.append(ctx.dim(m) - len(reduced))
        for t in range(TRIALS):
            g = random_linear_change(ctx, r["seed"] + t, BOUND)
            moved = Ideal([apply_change(ctx, g, f) for f in I.generators])
            inM = initial_ideal(ctx, moved)
            for m in range(m_top + 1):
                assert hilbert_function(ctx, inM, m) == truth[m], (r["label"], t, m)
    print("\nACCEPTANCE 3 (Hilbert function preservation): PASS [exact, all trials]")


def test_c4_revlex_lemma_exhaustive():
    t0 = time.time()
    total = 0
    # the guard's whole range
    for n in (1, 2, 3, 4):
        report, code = run_revlex_lemma(n, 6, 6)
        assert code == 0
        assert report["counterexample_count"] == 0
        total += report["cases"]
    elapsed = time.time() - t0
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 4 (revlex lemma exhaustion): PASS [{total} cases, {elapsed:.1f}s]")


def test_c5_degeneracy_past_gotzmann():
    criterion_pairs = [(2, 1), (2, 2), (2, 3), (3, 2)]
    # module invariant extends the sweep to all of n in {2,3}, d in {1,2,3}
    extra_pairs = [(3, 1), (3, 3)]
    for n, d in criterion_pairs + extra_pairs:
        samples = 50 if (n, d) in criterion_pairs else 25
        report, code = run_degeneracy(
            "hypersurface", n, d + 1, samples, seed=derive_seed(MASTER_SEED, 6, n, d), d=d
        )
        assert code == 0
        assert report["theorem_applicable"] is True
        assert report["all_vanished"] is True, (n, d)
        assert report["explicit_all_vanished"] is True, (n, d)
        control, code = run_degeneracy(
            "hypersurface", n, d, samples, seed=derive_seed(MASTER_SEED, 7, n, d), d=d
        )
        assert code == 0
        assert control["all_vanished"] is False, (n, d)
        nonzero = control["samples"] - control["vanished_count"]
        assert nonzero >= 0.9 * control["samples"], (n, d)
    print("\nACCEPTANCE 5 (Pluecker degeneracy at m = d + 1): PASS [6 families, 50 samples each on the criterion grid]")


def test_c6_gotzmann_numbers_and_lex_round_trip():
    ctx2 = RingContext(2, GrevLex())
    ctx3 = RingContext(3, GrevLex())
    for n, ctx in ((2, ctx2), (3, ctx3)):
        for d in (1, 2, 3, 4):
            P = binomial_poly(n, n) - binomial_poly(n - d, n)
            assert gotzmann_number(P) == d
            L = lex_segment_ideal(ctx, P)
            assert hilbert_polynomial(ctx, L) == P
    for c in range(1, 7):
        P = HilbertPolynomial.constant(c)
        assert gotzmann_number(P) == c
        assert macaulay_rep(P).a == (0,) * c
        L = lex_segment_ideal(ctx2, P)
        assert hilbert_polynomial(ctx2, L) == P
    P = parse_hilbert_polynomial("3*m + 1")
    assert hilbert_polynomial(ctx2, lex_segment_ideal(ctx2, P)) == P
    print("\nACCEPTANCE 6 (Gotzmann numbers, lex round trips): PASS [exact]")


def test_c7_schubert_cell_consistency():
    grids = [
        (1, 2, 1),
        (1, 3, 2),
        (1, 4, 2),
        (2, 2, 1),
        (2, 2, 2),
        (2, 2, 3),
        (2, 3, 2),
        (2, 3, 3),
        (3, 2, 2),
        (3, 2, 3),
        (2, 4, 3),
        (3, 3, 3),
    ]
    per_grid = 17
    total = 0
    for n, m, d in grids:
        ctx = RingContext(n, GrevLex())
        assert comb(ctx.dim(m), d) <= 10_000
        rng = random.Random(derive_seed(MASTER_SEED, 8, n, m, d))
        for _ in range(per_grid):
            F = random_subspace(ctx, m, d, rng)
            fast = schubert_cell_index(ctx, F)
            # exhaustive oracle: combinations enumerate indices in descending
            # lex order, so the first nonvanishing minor is the cell index and
            # everything scanned before it vanished
            first = None
            for pos in combinations(range(len(F.columns)), d):
                if pluecker_coordinate(F, SchubertIndex(tuple(F.columns[c] for c in pos))) != 0:
                    first = pos
                    break
            assert first is not None
            assert SchubertIndex(tuple(F.columns[c] for c in first)) == fast
            total += 1
    assert total >= 200
    print(f"\nACCEPTANCE 7 (Schubert cell vs Pluecker definition): PASS [{total} subspaces]")


def test_c8_weight_vectors_and_torus_limits(certified):
    exhaustive = 0
    for r in certified["records"]:
        ctx, I = r["ctx"], r["ideal"]
        gb = buchberger(ctx, I)
        omega = weight_vector_for_order(ctx, gb)  # strict inequalities re-checked inside
        for f in gb:
            lead, _ = f.leading(ctx)
            lead_w = sum(a * b for a, b in zip(omega.omega, lead))
            for e in f.terms:
                if e != lead:
                    assert lead_w > sum(a * b for a, b in zip(omega.omega, e))
        m = certified_initial_ideal(ctx, I).certification_degree
        assert one_ps_limit_check(ctx, I, m, omega), r["label"]
        n_cols = ctx.dim(m)
        d = n_cols - int(r["P"](m))
        if comb(n_cols, d) <= 100_000:
            # the exchange test must agree with every Plücker minor
            assert exhaustive_limit_oracle(hilbert_point(ctx, I, m), omega.omega), r["label"]
            exhaustive += 1
    assert exhaustive > 0
    print(
        f"\nACCEPTANCE 8 (weight vectors, torus limits): PASS "
        f"[{len(certified['records'])} exact, {exhaustive} also against all minors]"
    )


def test_c9_index_monomials_recover_initial_ideal(certified):
    records = certified["records"]
    chosen = [r for i, r in enumerate(records) if i % 3 != 2][:20]
    assert len(chosen) == 20
    for r in chosen:
        ctx, I = r["ctx"], r["ideal"]
        F = hilbert_point(ctx, I, r["m0"])
        idx = schubert_cell_index(ctx, F)
        recovered = saturate(monomial_ideal(ctx.nvars, idx.monomials))
        assert recovered == initial_ideal(ctx, I), r["label"]
    print("\nACCEPTANCE 9 (cell index recovers the initial ideal): PASS [20 ideals, exact]")

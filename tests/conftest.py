import random
from itertools import combinations

import pytest

from ginlab.families import derive_seed, random_ideal
from ginlab.groebner import Ideal, initial_ideal
from ginlab.hilbert import gotzmann_number, hilbert_polynomial
from ginlab.hilbert import lex_segment_ideal, parse_hilbert_polynomial
from ginlab.gin import GinResult, certified_initial_ideal, index_at_degree, random_linear_change
from ginlab.linalg import det
from ginlab.monideal import MonomialIdeal, saturate
from ginlab.orders import GrevLex, Lex, RingContext
from ginlab.poly import apply_change
from oracles import twisted_cubic_ideal

MASTER_SEED = 20240809


def oracle_key(order, m):
    """A hand-written sort key of `order`: the larger monomial has the larger key.

    Written from the definitions of the orders, not from their matrices, it is
    the oracle of `RingContext.descending`, which sorts by the packs that
    `RingContext.packing` derives from the matrix.
    """
    if isinstance(order, Lex):
        return m
    if isinstance(order, GrevLex):
        return (sum(m), tuple(-e for e in reversed(m)))
    return (sum(w * e for w, e in zip(order.weights, m)), oracle_key(order.tiebreak, m))


def build_corpus():
    """Labelled homogeneous ideals covering hypersurfaces, intersections,
    twisted-cubic nets and lex segment ideals."""
    corpus = []
    ctx2 = RingContext(2, GrevLex())
    ctx3 = RingContext(3, GrevLex())
    for i in range(8):
        rng = random.Random(derive_seed(MASTER_SEED, 1, i))
        corpus.append((f"conic-{i}", ctx2, random_ideal(ctx2, [2], rng)))
    for i in range(8):
        rng = random.Random(derive_seed(MASTER_SEED, 2, i))
        corpus.append((f"pencil22-{i}", ctx2, random_ideal(ctx2, [2, 2], rng)))
    for i in range(6):
        rng = random.Random(derive_seed(MASTER_SEED, 3, i))
        corpus.append((f"ci23-{i}", ctx2, random_ideal(ctx2, [2, 3], rng)))
    tc = twisted_cubic_ideal()
    for i in range(4):
        g = random_linear_change(ctx3, derive_seed(MASTER_SEED, 4, i), bound=25)
        moved = Ideal([apply_change(ctx3, g, f) for f in tc.generators])
        corpus.append((f"tcnet-{i}", ctx3, moved))
    lex_cases = [
        ("lex-2m+1", "2*m + 1"),
        ("lex-3m+1", "3*m + 1"),
        ("lex-c1", "1"),
        ("lex-c2", "2"),
        ("lex-c3", "3"),
        ("lex-c4", "4"),
    ]
    for label, text in lex_cases:
        P = parse_hilbert_polynomial(text)
        corpus.append((label, ctx2, lex_segment_ideal(ctx2, P)))
    return corpus


@pytest.fixture(scope="session")
def corpus():
    return build_corpus()


def exhaustive_limit_oracle(F, omega) -> bool:
    """The pivot index is the unique nonvanishing Plücker minor of maximal weight.

    Enumerates every d-subset of columns, which is what the exchange test in
    `one_ps_limit_check` avoids; kept here as its oracle.
    """
    w = [sum(a * e for a, e in zip(omega, u)) for u in F.columns]
    w_star = sum(w[c] for c in F.pivots)
    for pos in combinations(range(len(F.columns)), F.d):
        if pos == F.pivots or sum(w[c] for c in pos) < w_star:
            continue
        if det([[row[c] for c in pos] for row in F.matrix]) != 0:
            return False
    return True


def oracle_generic_initial_ideal(ctx, I, trials, seed, bound=100) -> GinResult:
    """The gin loop that certifies every trial at the degree read off I itself.

    It runs Buchberger on I once more than `generic_initial_ideal`, which
    reads P and m off its first trial's in(g·I); kept here as its oracle for
    nonzero homogeneous I.
    """
    m = certified_initial_ideal(ctx, I).certification_degree
    P = hilbert_polynomial(ctx, I)
    best = None
    indices = []
    for t in range(trials):
        g = random_linear_change(ctx, seed + t, bound)
        moved = Ideal([apply_change(ctx, g, f) for f in I.generators])
        inM = initial_ideal(ctx, moved)
        idx = index_at_degree(ctx, inM, m)
        indices.append(idx)
        rank = tuple(oracle_key(ctx.order, u) for u in idx.monomials)
        if best is None or rank > best[0]:
            best = (rank, idx, g, inM)
    _, idx, witness, inM = best
    low = frozenset(u for u in inM.min_gens if sum(u) <= m)
    return GinResult(
        gin=saturate(MonomialIdeal(ctx.nvars, low)),
        index=idx,
        witness=witness,
        trials=trials,
        stable=all(other == idx for other in indices),
        certification_degree=m,
        hilbert_polynomial=P,
        gotzmann=gotzmann_number(P),
    )

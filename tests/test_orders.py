import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import oracle_key
from ginlab.grassmann import SchubertIndex, index_rank
from ginlab.orders import (
    GrevLex,
    Lex,
    RingContext,
    WeightOrder,
    mul,
    pack_width,
)
from oracles import key_sorted_monomials, positions_rank


def mono(*exps):
    return tuple(exps)


# the ring key ascends as monomials descend: a smaller key is a larger monomial


def test_lex_first_exponent_dominates():
    key = RingContext(2, Lex()).key
    assert key(mono(2, 0, 0)) < key(mono(1, 1, 0))


def test_lex_ignores_degree():
    key = RingContext(1, Lex()).key
    assert key(mono(1, 0)) < key(mono(0, 3))


def test_grevlex_degree_two_chain():
    # hand enumeration: x0^2 > x0*x1 > x1^2 > x0*x2 > x1*x2 > x2^2
    ctx = RingContext(2, GrevLex())
    expected = [
        mono(2, 0, 0),
        mono(1, 1, 0),
        mono(0, 2, 0),
        mono(1, 0, 1),
        mono(0, 1, 1),
        mono(0, 0, 2),
    ]
    assert list(ctx.monomials(2)) == expected
    assert ctx.key(mono(0, 2, 0)) < ctx.key(mono(1, 0, 1))


def test_equal_iff_identical():
    mons = [u for m in range(4) for u in RingContext(2).monomials(m)]
    for order in (Lex(), GrevLex(), WeightOrder((1, 2, 3))):
        key = RingContext(2, order).key
        assert len({key(u) for u in mons}) == len(mons)


def test_dimension_mismatch_rejected():
    ctx = RingContext(2, Lex())
    ctx.check(mono(1, 0, 0))
    with pytest.raises(ValueError):
        ctx.check(mono(1, 0))
    # an order whose matrix is wider or narrower than the ring is refused up front
    with pytest.raises(ValueError, match="does not match the number of variables"):
        RingContext(1, WeightOrder((1, 1, 0)))
    with pytest.raises(ValueError, match="does not match the number of variables"):
        RingContext(3, WeightOrder((1, 1, 0)))


def test_weight_order_compares_weight_then_tiebreak():
    key = RingContext(2, WeightOrder((1, 1, 0))).key
    # weight 2 beats weight 1
    assert key(mono(0, 2, 0)) < key(mono(1, 0, 1))
    # equal weight falls back to grevlex
    assert key(mono(2, 0, 0)) < key(mono(1, 1, 0))


def test_weight_order_rejects_negative_weights():
    with pytest.raises(ValueError):
        WeightOrder((1, -1, 0))


ORDERS = [Lex(), GrevLex(), WeightOrder((2, 1, 1)), WeightOrder((3, 0, 1), Lex())]


@pytest.mark.parametrize("order", ORDERS, ids=str)
def test_order_axioms_on_samples(order):
    key = RingContext(2, order).key
    rng = random.Random(101)
    mons = [tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(60)]
    for a, b in combinations(mons[:25], 2):
        if a != b:
            assert key(a) != key(b)  # totality
        # multiplicative: scaling by a common monomial preserves comparisons
        s = tuple(rng.randint(0, 3) for _ in range(3))
        assert (key(mul(a, s)) > key(mul(b, s))) == (key(a) > key(b))
    # transitivity via sort consistency
    chain = sorted(mons, key=key)
    for x, y in zip(chain, chain[1:]):
        assert key(x) <= key(y)


@pytest.mark.parametrize("order", ORDERS, ids=str)
@settings(deadline=None)
@given(data=st.data())
def test_key_agrees_with_order_matrix(order, data):
    # the ring key, derived from the matrix, sorts monomials of mixed degree
    # exactly as the hand-written oracle key does; a weight order keeps its
    # tiebreak and draws weights for each number of variables
    n = data.draw(st.integers(1, 4), label="n")
    if isinstance(order, WeightOrder):
        weights = data.draw(st.tuples(*[st.integers(0, 4)] * (n + 1)), label="weights")
        order = WeightOrder(weights, order.tiebreak)
    mons = data.draw(st.lists(st.tuples(*[st.integers(0, 5)] * (n + 1)),
                              min_size=2, max_size=12, unique=True), label="monomials")
    ctx = RingContext(n, order)
    expected = sorted(mons, key=lambda u: oracle_key(order, u), reverse=True)
    assert sorted(mons, key=ctx.key) == expected
    assert min(mons, key=ctx.key) == expected[0]


def test_order_matrices():
    assert Lex().rows(3) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert GrevLex().rows(3) == ((1, 1, 1), (0, 0, -1), (0, -1, 0))
    assert WeightOrder((3, 0, 1), Lex()).rows(3) == ((3, 0, 1), *Lex().rows(3))


def test_monomial_enumeration_counts_and_descending():
    for n in (1, 2, 3):
        for order in (Lex(), GrevLex()):
            ctx = RingContext(n, order)
            for m in range(5):
                mons = ctx.monomials(m)
                assert len(mons) == comb(n + m, n)
                keys = [oracle_key(order, u) for u in mons]
                assert keys == sorted(keys, reverse=True)
                full = SchubertIndex(mons)
                assert index_rank(ctx, full) == positions_rank(ctx, full) == tuple(range(len(mons)))


@st.composite
def rings(draw):
    """A ring with n 1-4 under lex, grevlex or a weight order, zero weights included."""
    n = draw(st.integers(1, 4), label="n")
    tiebreak = draw(st.sampled_from([Lex(), GrevLex()]), label="tiebreak")
    weights = st.tuples(*[st.integers(0, 3)] * (n + 1)).map(lambda w: WeightOrder(w, tiebreak))
    return RingContext(n, draw(st.one_of(st.just(tiebreak), weights), label="order"))


@settings(deadline=None)
@given(rings(), st.integers(0, 8), st.data())
def test_degree_slices_and_ranks_match_the_order_key_oracles(ctx, k, data):
    # the one sort of the packs lists a slice as the order-key sort did, its
    # packs are the encoded monomials, and the walk down it ranks an index
    # as the table of places did
    expected = key_sorted_monomials(ctx, k)
    assert ctx.monomials(k) == expected
    assert ctx.packs(k, pack_width(k)) == tuple(map(ctx.packing(pack_width(k)).encode, expected))
    places = sorted(data.draw(st.sets(st.integers(0, len(expected) - 1)), label="places"))
    # copies of the monomials, so the walk compares values and not identities
    idx = SchubertIndex(tuple(tuple(list(expected[p])) for p in places))
    assert index_rank(ctx, idx) == positions_rank(ctx, idx) == tuple(places)


def test_context_validation():
    with pytest.raises(ValueError):
        RingContext(0, Lex())

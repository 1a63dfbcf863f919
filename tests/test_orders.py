import random
from itertools import combinations
from math import comb, inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import oracle_key
from ginlab.grassmann import SchubertIndex
from ginlab.orders import (
    GrevLex,
    Lex,
    RingContext,
    WeightOrder,
    mul,
    pack_width,
)
from ginlab.parsing import monomial_str
from ginlab.poly import Polynomial
from oracles import (
    encoded_rank,
    formatted_strings,
    index_rank,
    key_sorted_monomials,
    leading,
    positions_rank,
)


def mono(*exps):
    return tuple(exps)


# `RingContext.descending` sorts monomials by their packs, which ascend as
# monomials descend


def test_lex_first_exponent_dominates():
    ctx = RingContext(2, Lex())
    assert ctx.descending([mono(1, 1, 0), mono(2, 0, 0)]) == [mono(2, 0, 0), mono(1, 1, 0)]


def test_lex_ignores_degree():
    ctx = RingContext(1, Lex())
    assert ctx.descending([mono(0, 3), mono(1, 0)]) == [mono(1, 0), mono(0, 3)]


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
    assert ctx.descending(reversed(expected)) == expected


def test_equal_iff_identical():
    mons = [u for m in range(4) for u in RingContext(2).monomials(m)]
    for order in (Lex(), GrevLex(), WeightOrder((1, 2, 3))):
        encode = RingContext(2, order).packing(pack_width(3)).encode
        assert len({encode(u) for u in mons}) == len(mons)


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
    ctx = RingContext(2, WeightOrder((1, 1, 0)))
    # weight 2 beats weight 1
    assert ctx.descending([mono(1, 0, 1), mono(0, 2, 0)]) == [mono(0, 2, 0), mono(1, 0, 1)]
    # equal weight falls back to grevlex
    assert ctx.descending([mono(1, 1, 0), mono(2, 0, 0)]) == [mono(2, 0, 0), mono(1, 1, 0)]


def test_weight_order_rejects_negative_weights():
    with pytest.raises(ValueError):
        WeightOrder((1, -1, 0))


ORDERS = [Lex(), GrevLex(), WeightOrder((2, 1, 1)), WeightOrder((3, 0, 1), Lex())]


@pytest.mark.parametrize("order", ORDERS, ids=str)
def test_order_axioms_on_samples(order):
    # the packs read the order: exponents up to 4 + 3 fit in pack_width(7)
    ctx = RingContext(2, order)
    key = ctx.packing(pack_width(7)).encode
    rng = random.Random(101)
    mons = [tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(60)]
    for a, b in combinations(mons[:25], 2):
        if a != b:
            assert key(a) != key(b)  # totality
        # multiplicative: scaling by a common monomial preserves comparisons
        s = tuple(rng.randint(0, 3) for _ in range(3))
        assert (key(mul(a, s)) > key(mul(b, s))) == (key(a) > key(b))
    # transitivity via sort consistency
    chain = ctx.descending(mons)
    for x, y in zip(chain, chain[1:]):
        assert key(x) <= key(y)


@pytest.mark.parametrize("order", ORDERS, ids=str)
@settings(deadline=None)
@given(data=st.data())
def test_key_agrees_with_order_matrix(order, data):
    # the ring's sort, by the packs of the matrix, lists monomials of mixed
    # degree exactly as the hand-written oracle key does, and the leading term
    # is its first; a weight order keeps its tiebreak and draws weights for
    # each number of variables
    n = data.draw(st.integers(1, 4), label="n")
    if isinstance(order, WeightOrder):
        weights = data.draw(st.tuples(*[st.integers(0, 4)] * (n + 1)), label="weights")
        order = WeightOrder(weights, order.tiebreak)
    mons = data.draw(st.lists(st.tuples(*[st.integers(0, 5)] * (n + 1)),
                              min_size=2, max_size=12, unique=True), label="monomials")
    ctx = RingContext(n, order)
    expected = sorted(mons, key=lambda u: oracle_key(order, u), reverse=True)
    assert ctx.descending(mons) == expected
    assert leading(ctx, Polynomial(dict.fromkeys(mons, 1)))[0] == expected[0]


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
                assert positions_rank(ctx, SchubertIndex(mons)) == tuple(range(len(mons)))
                # ranks ascend as the monomials descend, and with the strata
                # sentinel past every pack a top segment ranks below each
                # longer one, which sorts first
                ranks = [index_rank(ctx, SchubertIndex((u,))) for u in mons]
                assert ranks == sorted(set(ranks))
                tops = [index_rank(ctx, SchubertIndex(mons[:k])) + (inf,)
                        for k in range(len(mons) + 1)]
                assert tops == sorted(set(tops), reverse=True)


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
    # the one sort of the packs lists a slice as the order-key sort did, and
    # its packs are the encoded monomials; ranks by packs order two indices
    # as the table of places does, and with the strata sentinel past every
    # pack an index ranks below each of its extensions
    expected = key_sorted_monomials(ctx, k)
    assert ctx.monomials(k) == expected
    assert ctx.packs(k, pack_width(k)) == tuple(map(ctx.packing(pack_width(k)).encode, expected))

    def index(places):
        return SchubertIndex(tuple(expected[p] for p in sorted(places)))

    every = st.sets(st.integers(0, len(expected) - 1))
    places, other = data.draw(every, label="places"), data.draw(every, label="other")
    a, b = index(places), index(other)
    ra, rb, pa, pb = (f(ctx, i) for f in (index_rank, positions_rank) for i in (a, b))
    assert (ra < rb, ra == rb) == (pa < pb, pa == pb)
    if not other <= places:
        assert ra + (inf,) > index_rank(ctx, index(places | other)) + (inf,)


@settings(deadline=None)
@given(rings(), st.integers(0, 8), st.data())
def test_index_names_and_ranks_off_the_chain_match_the_per_monomial_oracles(ctx, k, data):
    # names(k) formats the chain once, in the order of its packs; an index
    # reads its strings and ranks off the chain as formatting and encoding
    # each of its monomials did, also when its tuples are not the chain's own
    chain = ctx.monomials(k)
    assert ctx.names(k) == tuple(map(monomial_str, chain))
    places = sorted(data.draw(st.sets(st.integers(0, len(chain) - 1)), label="places"))
    for idx in (SchubertIndex(tuple(chain[p] for p in places)),
                SchubertIndex(tuple(tuple(list(chain[p])) for p in places))):
        assert idx.as_strings(ctx) == formatted_strings(idx)
        assert index_rank(ctx, idx) == encoded_rank(ctx, idx)


@settings(deadline=None)
@given(rings(), st.integers(1, 8), st.data())
def test_an_index_off_the_descending_chain_raises(ctx, k, data):
    # a run out of order, a repeat, a monomial of another degree or of
    # another ring is never cut short or read past: it raises ValueError
    chain = ctx.monomials(k)
    a, b = sorted(data.draw(st.sets(st.integers(0, len(chain) - 1), min_size=2, max_size=2)))
    u, v = chain[a], chain[b]
    bad = data.draw(st.sampled_from([
        (v, u), (u, u), (u, v, u), (u, ctx.monomials(k + 1)[0]), (u + (0,),), (u, v + (0,)),
        (u[:-1] + (u[-1] + 1,), v),
    ]), label="index")
    for read in (SchubertIndex(bad).as_strings, lambda c: index_rank(c, SchubertIndex(bad))):
        with pytest.raises(ValueError, match=f"degree-{sum(bad[0])} chain"):
            read(ctx)


def test_index_reads_format_and_encode_nothing(monkeypatch):
    # once the ring's names are formatted, reading an index's strings and
    # rank calls neither monomial_str nor the pack encoder
    ctx = RingContext(3, Lex())
    idx = SchubertIndex(ctx.monomials(4)[3:30:2])
    names = ctx.names(4)

    def refuse(*args):
        raise AssertionError("formatted or encoded a monomial")

    monkeypatch.setattr("ginlab.parsing.monomial_str", refuse)
    monkeypatch.setattr("ginlab.orders.Packing.encode", refuse)
    assert idx.as_strings(ctx) == list(names[3:30:2])
    assert index_rank(ctx, idx) == ctx.packs(4, pack_width(4))[3:30:2]
    assert ctx.names(4) is names


def test_context_validation():
    with pytest.raises(ValueError):
        RingContext(0, Lex())

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pita.errors import CompositionError, ShapeError
from pita.finskel import (
    FinMap,
    compose,
    enumerate_maps,
    enumerate_surjections,
    fibre,
    fibre_map,
    finmap_from_json,
    finmap_to_json,
    fold,
    identity,
    inverse,
    is_bijective,
    is_order_preserving,
    is_surjective,
    ordinal_sum,
    pita,
)
from strategies import (
    composable_pairs,
    composable_triples,
    enumerate_bijections,
    finmaps,
    is_identity,
)


def brute_force_pita(f):
    """Oracle: all ways to write f as an order-preserving map after a
    permutation that is increasing on each fibre of f (equivalently, whose
    fibre maps over the order-preserving part are order-preserving). The
    order-preserving part is forced by the permutation, so this scans
    permutations only."""
    found = []
    for p in enumerate_bijections(f.dom):
        e = compose(inverse(p), f)
        if not is_order_preserving(e):
            continue
        if all(
            is_order_preserving(fibre_map(p, e, i)) for i in range(1, e.cod + 1)
        ):
            found.append((p, e))
    return found


# ---------------------------------------------------------------- basics


def test_finmap_validation():
    with pytest.raises(ValueError):
        FinMap(2, 2, (1,))
    with pytest.raises(ValueError):
        FinMap(2, 2, (0, 1))
    with pytest.raises(ValueError):
        FinMap(2, 2, (1, 3))
    with pytest.raises(ValueError):
        FinMap(1, 0, (1,))
    # empty domain is fine, with any codomain
    assert FinMap(0, 3, ()).dom == 0


def test_finmap_immutable_and_hashable():
    f = FinMap(2, 2, (2, 1))
    with pytest.raises(AttributeError):
        f.dom = 3
    assert hash(f) == hash(FinMap(2, 2, (2, 1)))
    assert f == FinMap(2, 2, (2, 1))
    assert f != FinMap(2, 3, (2, 1))


def test_application_is_one_based():
    f = FinMap(3, 2, (1, 1, 2))
    assert f(1) == 1 and f(3) == 2
    with pytest.raises(IndexError):
        f(0)
    with pytest.raises(IndexError):
        f(4)


def test_compose_example():
    g = FinMap(2, 3, (3, 1))
    f = FinMap(3, 2, (1, 1, 2))
    assert compose(g, f) == FinMap(2, 2, (2, 1))


def test_compose_mismatch_raises():
    with pytest.raises(CompositionError):
        compose(FinMap(2, 3, (1, 2)), FinMap(2, 2, (1, 2)))


def test_predicates():
    assert is_order_preserving(FinMap(3, 2, (1, 1, 2)))
    assert not is_order_preserving(FinMap(2, 2, (2, 1)))
    assert is_surjective(FinMap(3, 2, (1, 1, 2)))
    assert not is_surjective(FinMap(2, 2, (1, 1)))
    assert is_bijective(FinMap(2, 2, (2, 1)))
    assert not is_bijective(FinMap(3, 2, (1, 1, 2)))
    assert not is_bijective(FinMap(2, 2, (1, 1)))
    assert is_identity(identity(4))
    assert not is_identity(FinMap(2, 2, (2, 1)))


def test_inverse():
    assert inverse(FinMap(3, 3, (2, 3, 1))) == FinMap(3, 3, (3, 1, 2))
    with pytest.raises(ShapeError):
        inverse(FinMap(2, 1, (1, 1)))


def test_derived_maps_pass_the_public_constructor_exhaustive_bound_3():
    # compose, fibre_map, pita, inverse and identity skip validation;
    # every map they build must be one the validating constructor accepts,
    # with a tuple value table and the same hash; identity and fold are
    # shared per object
    def check(r):
        assert type(r.values) is tuple
        public = FinMap(r.dom, r.cod, r.values)
        assert r == public and hash(r) == hash(public)
        return 1

    checked = 0
    for n in range(4):
        checked += check(identity(n))
        assert identity(n) is identity(n)
        assert fold(n) is fold(n)
        assert fold(n) == FinMap(n, 1, (1,) * n)
        assert type(fold(n).values) is tuple
    for a, b in itertools.product(range(4), repeat=2):
        for f in enumerate_maps(a, b):
            checked += sum(map(check, pita(f)))
            if is_bijective(f):
                checked += check(inverse(f))
    for a, b, c in itertools.product(range(4), repeat=3):
        for g in enumerate_maps(a, b):
            for f in enumerate_maps(b, c):
                checked += check(compose(g, f))
                for i in range(1, c + 1):
                    checked += check(fibre_map(g, f, i))
    assert checked == 6_334


# ---------------------------------------------------------------- fibres


def test_fibre_example():
    f = FinMap(7, 4, (3, 2, 1, 1, 4, 2, 3))
    fb = fibre(f, 1)
    assert fb == FinMap(2, 7, (3, 4))
    assert fb.dom == 2
    assert fibre(f, 4) == FinMap(1, 7, (5,))
    with pytest.raises(IndexError):
        fibre(f, 5)


def test_fibre_of_empty_map():
    f = FinMap(0, 2, ())
    assert fibre(f, 1).dom == 0
    assert fibre(f, 2) == FinMap(0, 0, ())


def test_fibre_map_example():
    g = FinMap(2, 2, (2, 1))
    f = FinMap(2, 1, (1, 1))
    assert fibre_map(g, f, 1) == FinMap(2, 2, (2, 1))


@given(composable_pairs(max_card=5))
def test_fibre_map_defining_equation(pair):
    g, f = pair
    gf = compose(g, f)
    for i in range(1, f.cod + 1):
        fm = fibre_map(g, f, i)
        lhs = compose(fm, fibre(f, i))
        rhs = compose(fibre(gf, i), g)
        assert lhs == rhs


def test_fibre_map_defining_equation_exhaustive_bound_3():
    checked = 0
    for a, b, c in itertools.product(range(4), repeat=3):
        for g in enumerate_maps(a, b):
            for f in enumerate_maps(b, c):
                gf = compose(g, f)
                fibres = [fibre(f, i) for i in range(1, c + 1)]
                # each fibre is a strictly increasing inclusion into f.dom,
                # and the fibres' sizes add up to f.dom
                for eps in fibres:
                    assert eps.cod == b
                    assert all(
                        eps.values[t] < eps.values[t + 1]
                        for t in range(eps.dom - 1)
                    )
                assert sum(eps.dom for eps in fibres) == b
                for i in range(1, c + 1):
                    fm = fibre_map(g, f, i)
                    assert fm.cod == fibres[i - 1].dom
                    assert compose(fm, fibres[i - 1]) == compose(
                        fibre(gf, i), g
                    )
                    checked += 1
    # one per (pair, i), as in the cardinality-fibre-size sweep at bound 3
    assert checked == 4_522


def test_fibre_map_rejects_bad_input():
    g = FinMap(2, 2, (2, 1))
    with pytest.raises(CompositionError):
        fibre_map(g, FinMap(3, 1, (1, 1, 1)), 1)
    f = FinMap(2, 1, (1, 1))
    for i in (0, 2):
        with pytest.raises(IndexError):
            fibre_map(g, f, i)


@given(composable_pairs(max_card=5))
def test_fibre_map_of_identity(pair):
    g, f = pair
    for i in range(1, f.cod + 1):
        fm = fibre_map(identity(g.dom), compose(g, f), i)
        assert is_identity(fm)


@given(composable_triples(max_card=4))
def test_fibre_map_functoriality(triple):
    h, g, f = triple
    hg = compose(h, g)
    gf = compose(g, f)
    for i in range(1, f.cod + 1):
        lhs = fibre_map(hg, f, i)
        rhs = compose(fibre_map(h, gf, i), fibre_map(g, f, i))
        assert lhs == rhs


# ---------------------------------------------------------------- pita


def test_pita_worked_example():
    f = FinMap(7, 4, (3, 2, 1, 1, 4, 2, 3))
    pi, eta = pita(f)
    assert pi == FinMap(7, 7, (5, 3, 1, 2, 7, 4, 6))
    assert eta == FinMap(7, 4, (1, 1, 2, 2, 3, 3, 4))
    assert compose(pi, eta) == f


def test_pita_of_order_preserving_map_is_trivial():
    f = FinMap(4, 2, (1, 1, 2, 2))
    pi, eta = pita(f)
    assert is_identity(pi)
    assert eta == f


def test_pita_of_permutation():
    q = FinMap(3, 3, (3, 1, 2))
    pi, eta = pita(q)
    assert pi == q
    assert is_identity(eta)


def test_pita_of_empty_map():
    pi, eta = pita(FinMap(0, 3, ()))
    assert pi == FinMap(0, 0, ())
    assert eta == FinMap(0, 3, ())


@given(finmaps(max_card=6))
def test_pita_properties(f):
    pi, eta = pita(f)
    assert is_bijective(pi)
    assert is_order_preserving(eta)
    assert compose(pi, eta) == f
    # eta has the fibre sizes of f, read off in value order
    for i in range(1, f.cod + 1):
        assert fibre(eta, i).dom == fibre(f, i).dom


@settings(max_examples=100, deadline=None)
@given(
    st.tuples(st.integers(0, 512), st.integers(1, 4)).flatmap(
        lambda size: st.lists(
            st.integers(1, size[1]), min_size=size[0], max_size=size[0]
        ).map(lambda values: FinMap(size[0], size[1], values))
    )
)
def test_pita_sorts_positions_by_value_then_position(f):
    # the definition: positions in order of the key (value, position);
    # small codomains give long runs of equal values
    order = sorted(range(1, f.dom + 1), key=lambda j: (f.values[j - 1], j))
    pi, eta = pita(f)
    assert [pi.values[j - 1] for j in order] == list(range(1, f.dom + 1))
    assert eta.values == tuple(f.values[j - 1] for j in order)
    assert (pi.dom, pi.cod, eta.dom, eta.cod) == (f.dom, f.dom, f.dom, f.cod)


@settings(max_examples=60)
@given(finmaps(max_card=4), finmaps(max_card=4))
def test_pita_respects_ordinal_sum(f, g):
    pi, eta = pita(ordinal_sum(f, g))
    assert pi == ordinal_sum(pita(f)[0], pita(g)[0])
    assert eta == ordinal_sum(pita(f)[1], pita(g)[1])


def test_permutation_op_pair_alone_is_not_unique():
    # without the fibrewise condition the splitting is ambiguous: [1,1]
    # factors through both the identity and the swap
    f = FinMap(2, 1, (1, 1))
    loose = [
        p
        for p in enumerate_bijections(2)
        if is_order_preserving(compose(inverse(p), f))
    ]
    assert len(loose) == 2


def test_pita_uniqueness_brute_force_small():
    # exhaustive uniqueness up to cardinality 4 here; the acceptance suite
    # pushes the same oracle to 5
    for m in range(5):
        for n in range(5):
            for f in enumerate_maps(m, n):
                found = brute_force_pita(f)
                assert len(found) == 1, f"{f} admits {len(found)} splittings"
                assert found[0] == pita(f)


# ---------------------------------------------------------------- sums


def test_ordinal_sum_example():
    f = FinMap(2, 1, (1, 1))
    g = FinMap(2, 2, (2, 1))
    assert ordinal_sum(f, g) == FinMap(4, 3, (1, 1, 3, 2))


def test_ordinal_sum_unit():
    f = FinMap(2, 2, (2, 1))
    empty = FinMap(0, 0, ())
    assert ordinal_sum(f, empty) == f
    assert ordinal_sum(empty, f) == f


@given(composable_pairs(max_card=4), composable_pairs(max_card=4))
def test_ordinal_sum_is_functorial(p1, p2):
    g1, f1 = p1
    g2, f2 = p2
    lhs = compose(ordinal_sum(g1, g2), ordinal_sum(f1, f2))
    rhs = ordinal_sum(compose(g1, f1), compose(g2, f2))
    assert lhs == rhs


# ---------------------------------------------------------------- counts


def test_enumerate_maps_counts():
    for m, n in itertools.product(range(4), repeat=2):
        count = sum(1 for _ in enumerate_maps(m, n))
        assert count == (1 if m == 0 else n**m)


def test_enumerate_surjections_counts():
    table = {
        (0, 0): 1,
        (1, 1): 1,
        (2, 1): 1,
        (2, 2): 2,
        (3, 2): 6,
        (3, 3): 6,
        (4, 2): 14,
        (4, 3): 36,
        (4, 4): 24,
    }
    for (m, n), expected in table.items():
        assert sum(1 for _ in enumerate_surjections(m, n)) == expected
    # the empty map is surjective only onto the empty ordinal
    assert list(enumerate_surjections(0, 1)) == []
    assert list(enumerate_surjections(2, 3)) == []


def test_enumerate_surjections_agree_with_filter():
    # the order is pinned: the groupoid objects and fibre witnesses read it
    for m in range(7):
        for n in range(7):
            direct = list(enumerate_surjections(m, n))
            filtered = [f for f in enumerate_maps(m, n) if is_surjective(f)]
            assert direct == filtered, (m, n)


def test_enumerate_bijections_counts():
    assert sum(1 for _ in enumerate_bijections(4)) == 24
    assert list(enumerate_bijections(0)) == [FinMap(0, 0, ())]


# ---------------------------------------------------------------- laws


class TestCategoryLaws:
    @given(composable_triples(max_card=5))
    def test_associativity(self, triple):
        h, g, f = triple
        assert compose(compose(h, g), f) == compose(h, compose(g, f))

    @given(finmaps(max_card=6))
    def test_identity_laws(self, f):
        assert compose(identity(f.dom), f) == f
        assert compose(f, identity(f.cod)) == f


# ---------------------------------------------------------------- json


@given(finmaps(max_card=6))
def test_json_roundtrip(f):
    assert finmap_from_json(finmap_to_json(f)) == f


def test_json_shape():
    f = FinMap(3, 2, (1, 1, 2))
    assert finmap_to_json(f) == {"dom": 3, "cod": 2, "values": [1, 1, 2]}

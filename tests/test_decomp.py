import sys
from collections import Counter
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pita import decomp, finskel
from pita.decomp import (
    CoalgebraElement,
    FactorisationGroupoid,
    bell_partial,
    comult,
    comult_closed_form,
    comult_composition_form,
    factorisations,
    label,
    verify_bialgebra,
    verify_coassociativity,
    verify_counit,
    verify_decomposition_fibres,
)
from pita.errors import PitaError, ShapeError, UnsupportedInstanceError
from pita.factorisation import eta_rel
from pita.finskel import (
    FinMap,
    compose,
    enumerate_maps,
    enumerate_surjections,
    identity,
    inverse,
    is_bijective,
    is_order_preserving,
    is_surjective,
    ordinal_sum,
    pita,
)
from pita.instances import make_fin, make_fin_surj
from pita import nerve
from pita.nerve import Chain, degeneracy, enumerate_p
from pita.opcat import Report

import reference
from helpers import CompositeOutsideHoms, CorruptFibre, CorruptFibreMap, Wrapper
from strategies import quasibijections
from test_nerve import REFERENCE_CASES, _agreement, _case

SURJ = make_fin_surj()
FIN = make_fin()


def _fold(n):
    return FinMap(n, 1, (1,) * n)


def _groupoid(*maps):
    """The groupoid over the chain of the maps, a 2-chain through its
    middle degeneracy."""
    c = Chain.of(SURJ, maps, maps[-1].cod)
    return FactorisationGroupoid(c if c.length == 3 else degeneracy(1, c))


# ------------------------------------------------------- labels and terms


def test_label_is_the_sorted_fibre_size_tuple():
    assert label(FinMap(3, 2, (1, 1, 2))) == (2, 1)
    assert label(identity(4)) == (1, 1, 1, 1)
    assert label(_fold(5)) == (5,)
    assert label(FinMap(0, 0, ())) == ()
    # empty fibres stay out of the label
    assert label(FinMap(2, 3, (1, 1))) == (2,)
    for m in range(5):
        for n in range(5):
            for f in enumerate_maps(m, n):
                assert label(f) == tuple(
                    sorted(Counter(f.values).values(), reverse=True)
                ), f


def test_coalgebra_elements_multiply_by_merging_labels():
    a = CoalgebraElement({((2,), (1,)): 3})
    b = CoalgebraElement({((1, 1), (2,)): 2})
    prod = a * b
    assert prod.terms == {((2, 1, 1), (2, 1)): 6}
    a.add((2,), (1,), -3)
    assert a.terms == {}


def test_coalgebra_json_uses_flat_lists():
    c = CoalgebraElement({((2, 1, 1), (3,)): 36})
    assert c.to_json() == {
        "terms": [{"left": [2, 1, 1], "right": [3], "coeff": 36}]
    }


# ------------------------------------------------------- comultiplication


def test_comult_frozen_tables_for_connected_classes():
    # n = 1..4, coefficients 1; 2,1; 6,6,1; 24,36,8,6,1
    assert comult(SURJ, _fold(1)).terms == {((1,), (1,)): 1}
    assert comult(SURJ, _fold(2)).terms == {
        ((1, 1), (2,)): 2,
        ((2,), (1,)): 1,
    }
    assert comult(SURJ, _fold(3)).terms == {
        ((1, 1, 1), (3,)): 6,
        ((2, 1), (2,)): 6,
        ((3,), (1,)): 1,
    }
    assert comult(SURJ, _fold(4)).terms == {
        ((1, 1, 1, 1), (4,)): 24,
        ((2, 1, 1), (3,)): 36,
        ((3, 1), (2,)): 8,
        ((2, 2), (2,)): 6,
        ((4,), (1,)): 1,
    }


def test_the_first_leg_has_the_label_of_its_op_part():
    # precomposing with the bijection pi keeps fibre sizes, which is why
    # comult labels h without splitting it
    for m in range(6):
        for k in range(m + 1):
            for h in enumerate_surjections(m, k):
                assert label(h) == label(pita(h)[1]), h


def test_comult_splits_no_first_leg(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("comult split a map")

    monkeypatch.setattr(finskel, "pita", refuse)
    for n in range(1, 6):
        assert comult(SURJ, _fold(n)) == comult_closed_form(n), n


def test_comult_builds_no_map_through_the_checking_constructor(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("comult validated a map")

    folds = [_fold(n) for n in range(1, 6)]
    monkeypatch.setattr(FinMap, "__init__", refuse)
    for n, f in enumerate(folds, 1):
        assert comult(SURJ, f) == comult_closed_form(n), n


def test_comult_and_factorisations_match_the_reference():
    # every op surjection with dom <= 5, drawn from all maps
    ops = [
        f
        for m in range(6)
        for n in range(m + 1)
        for f in enumerate_maps(m, n)
        if is_surjective(f) and is_order_preserving(f)
    ]
    assert len(ops) == 32
    for f in ops:
        assert list(factorisations(f)) == reference.factorisations(f), f
        assert comult(SURJ, f).terms == reference.comult(f), f


def test_comult_of_the_empty_map_is_the_unit():
    assert comult(SURJ, FinMap(0, 0, ())).terms == {((), ()): 1}


def test_comult_matches_closed_form_up_to_seven():
    for n in range(1, 8):
        assert comult(SURJ, _fold(n)) == comult_closed_form(n), n


def test_comult_rejects_non_order_preserving_maps():
    with pytest.raises(ValueError):
        comult(SURJ, FinMap(2, 2, (2, 1)))
    with pytest.raises(ValueError):
        comult(SURJ, FinMap(2, 3, (1, 2)))
    with pytest.raises(ValueError):
        comult(SURJ, FinMap(0, 2, ()))


def test_comult_rejects_other_instances():
    with pytest.raises(UnsupportedInstanceError):
        comult(FIN, identity(2))


def test_comult_of_a_disconnected_map_is_the_product():
    f = FinMap(3, 2, (1, 1, 2))  # A_2 (+) A_1
    lhs = comult(SURJ, f)
    rhs = comult(SURJ, _fold(2)) * comult(SURJ, _fold(1))
    assert lhs == rhs


# ------------------------------------------------------- counting identity


def test_surjection_counts_three_ways():
    # coefficient of (shape (x) A_k) in comult(A_n): direct enumeration,
    # multinomial sum over orderings, and k! * bell_partial must agree
    for n in range(1, 6):
        direct = Counter()
        for k in range(1, n + 1):
            for h in enumerate_surjections(n, k):
                direct[(label(h), k)] += 1
        for (shape, k), count in direct.items():
            orderings = set(
                __import__("itertools").permutations(shape)
            )
            multinomial = sum(
                factorial(n) // __import__("math").prod(map(factorial, c))
                for c in orderings
            )
            assert count == multinomial, (shape, k)
            assert count == factorial(k) * bell_partial(n, k)[shape]


def test_bell_partial_frozen_values():
    assert bell_partial(3, 2) == {(2, 1): 3}
    assert bell_partial(4, 2) == {(3, 1): 4, (2, 2): 3}
    assert bell_partial(5, 1) == {(5,): 1}
    assert bell_partial(0, 0) == {(): 1}
    assert bell_partial(3, 5) == {}


def test_bell_partial_against_direct_set_partitions():
    # partition {1..n} directly and bucket by block-size shape
    def partitions(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for p in partitions(rest):
            for i in range(len(p)):
                yield p[:i] + [[first] + p[i]] + p[i + 1:]
            yield [[first]] + p

    for n in range(1, 7):
        seen = Counter()
        for p in partitions(list(range(1, n + 1))):
            shape = tuple(sorted(map(len, p), reverse=True))
            seen[(shape, len(p))] += 1
        for k in range(1, n + 1):
            table = bell_partial(n, k)
            direct = {s: c for (s, kk), c in seen.items() if kk == k}
            assert table == direct, (n, k)


# ------------------------------------------------------- coalgebra checks


def test_bialgebra_multiplicativity_holds():
    rep = verify_bialgebra(SURJ, 5)
    assert rep.ok, rep.violations[:2]
    assert rep.checks > 25


def test_bialgebra_frozen_example():
    lhs = comult(SURJ, ordinal_sum(_fold(2), _fold(1)))
    rhs = comult(SURJ, _fold(2)) * comult(SURJ, _fold(1))
    assert lhs == rhs
    assert lhs.terms[((1, 1, 1), (2, 1))] == 2


def test_counit_picks_out_the_map_itself():
    rep = verify_counit(SURJ, 4)
    assert rep.ok, rep.violations[:2]
    terms = comult(SURJ, _fold(3)).terms
    identity_right = [
        (left, coeff)
        for (left, right), coeff in terms.items()
        if right == (1,) * len(right)
    ]
    assert identity_right == [((3,), 1)]


def test_incidence_table_is_not_coassociative():
    # the left iteration gives 2 on ((1,1),(1,1),(2,)) at the fold of 2,
    # the right gives 4; the report must carry exactly this witness
    rep = verify_coassociativity(SURJ, 2)
    assert not rep.ok
    first = rep.violations[0]
    assert first["witness"]["f"] == {"dom": 2, "cod": 1, "values": [1, 1]}
    assert first["lhs"]["((1, 1), (1, 1), (2,))"] == 2
    assert first["rhs"]["((1, 1), (1, 1), (2,))"] == 4


def test_the_violation_cap_trims_the_list_not_the_sweep():
    # fin-surj at bound 4: 16 surjections, 11 of them break coassociativity
    full = verify_coassociativity(SURJ, 4, max_violations=10_000)
    capped = verify_coassociativity(SURJ, 4, max_violations=1)
    assert (full.checks, len(full.violations), full.truncated) == (16, 11, False)
    assert (capped.checks, len(capped.violations)) == (16, 1)
    assert capped.truncated
    assert capped.violations == full.violations[:1]


def test_composition_table_is_coassociative():
    rep = verify_coassociativity(SURJ, 5, table="composition")
    assert rep.ok, rep.violations[:2]
    assert rep.checks > 10


def test_coassociativity_rejects_unknown_tables():
    with pytest.raises(ShapeError):
        verify_coassociativity(SURJ, 2, table="homotopy")


def test_tables_differ_at_degree_two():
    incidence = comult(SURJ, _fold(2))
    composition = comult_composition_form(2)
    assert incidence != composition
    assert incidence.terms[((1, 1), (2,))] == 2
    assert composition.terms[((1, 1), (2,))] == 1
    assert comult(SURJ, _fold(1)) == comult_composition_form(1)


# ------------------------------------------------------- factorisations


def test_factorisations_enumerates_all_two_step_splittings():
    pairs = list(factorisations(_fold(2)))
    assert len(pairs) == 3
    for h, e in pairs:
        assert compose(h, e) == _fold(2)
    mids = sorted(h.cod for h, _ in pairs)
    assert mids == [1, 2, 2]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.data())
def test_factorisation_count_is_the_ordered_bell_number(m, data):
    counts = [1, 3, 13, 75]
    assert len(list(factorisations(_fold(m)))) == counts[m - 1]


# ------------------------------------------------------- fibre groupoids


def test_groupoid_rejects_bad_chains():
    swap = FinMap(2, 2, (2, 1))
    with pytest.raises(ShapeError):
        _groupoid(_fold(2), identity(2))
    with pytest.raises(ShapeError):
        _groupoid(swap, identity(2))
    with pytest.raises(ShapeError):
        _groupoid(_fold(2), _fold(2), identity(1))
    with pytest.raises(ShapeError):
        _groupoid(identity(2), swap, identity(2))
    for n in (2, 4):
        with pytest.raises(ShapeError, match="3-chains"):
            FactorisationGroupoid(Chain.of(SURJ, (identity(1),) * n, 1))


def test_fold_of_two_has_three_rigid_classes():
    g = _groupoid(_fold(2), identity(1))
    assert len(g.objects) == 3
    assert len(g.iso_classes) == 3
    assert len(g.reflected.objects) == 3
    assert g.reflected.is_discrete


def test_general_fibre_frozen_counts():
    # (1,1,2) over the fold: eight factorisations in three classes,
    # matching the three objects of the reflected fibre
    g = _groupoid(FinMap(3, 2, (1, 1, 2)), FinMap(2, 1, (1, 1)))
    assert len(g.objects) == 8
    classes = g.iso_classes
    assert sorted(len(c) for c in classes) == [2, 3, 3]
    assert len(g.reflected.objects) == 3
    assert g.reflected.is_discrete


def test_fold_fibres_count_ordered_set_partitions():
    for m, count in zip(range(1, 5), (1, 3, 13, 75)):
        g = _groupoid(_fold(m), identity(1))
        assert len(g.objects) == count
        assert len(g.iso_classes) == count
        assert len(g.reflected.objects) == count


def test_forward_after_backward_is_the_identity():
    g = _groupoid(FinMap(3, 2, (1, 1, 2)), FinMap(2, 1, (1, 1)))
    for y in g.reflected.objects:
        assert g.forward(g.backward(y)) == y


def test_unit_is_an_invertible_morphism():
    g = _groupoid(FinMap(3, 2, (1, 1, 2)), FinMap(2, 1, (1, 1)))
    for x in g.objects:
        unit = g.unit_at(x)
        target = g.backward(g.forward(x))
        assert is_bijective(unit)
        assert g.is_morphism(unit, x, target)
        assert g.is_morphism(inverse(unit), target, x)


def test_morphisms_need_the_fop_square():
    # between the two bijective-middle factorisations of the fold the
    # only candidate square has the swap over a merged fibre, so the
    # objects stay in separate classes
    g = _groupoid(_fold(2), identity(1))
    swap = FinMap(2, 2, (2, 1))
    x = (identity(2), _fold(2))
    y = (swap, _fold(2))
    assert x in g.objects and y in g.objects
    assert not g.is_morphism(swap, x, y)
    assert g._morphism(x, y) is None


@REFERENCE_CASES
def test_groupoid_maps_match_the_reference(base, mutant, bound):
    # the morphism test, forward, backward and unit_at on the interner
    # against their map-by-map form in tests/reference.py, in the groupoid
    # over every locally op 3-chain and over the middle degeneracy of
    # every 2-chain: forward and unit_at at each object, backward at each
    # reflected object and at each forward image, the solved candidate
    # between each two objects and the unit: equal values, or the same
    # exception type and text
    inst = _case(base, mutant)
    kinds = Counter()
    agree = _agreement(kinds)
    G = FactorisationGroupoid
    chains = list(enumerate_p(inst, 3, bound))
    chains += [degeneracy(1, c) for c in enumerate_p(inst, 2, bound)]
    for c in chains:
        try:
            g = G(c)
            reflected = g.reflected.objects
        except PitaError:
            continue
        for y in reflected:
            agree(G.backward, reference.backward, g, y)
        for x in g.objects:
            agree(G.unit_at, reference.unit_at, g, x)
            there = agree(G.forward, reference.forward, g, x)
            if there[0] == "value":
                back = agree(G.backward, reference.backward, g, there[1])
                if back[0] == "value":
                    unit = g.unit_at(x)
                    agree(G.is_morphism, reference.is_morphism, g, unit, x, back[1])
            for y in g.objects:
                sigma = decomp._quotient(x[0], y[0])
                if sigma is not None:
                    agree(G.is_morphism, reference.is_morphism, g, sigma, x, y)
    # composites outside the homs make every reflected chain ill-formed,
    # so no groupoid is left to compare
    assert kinds["value"] or mutant == "CompositeOutsideHoms"


def _sweep_groupoids(monkeypatch):
    """Every groupoid the bound-3 sweep builds: folds, 2-chains through
    their middle degeneracy, 3-chains."""
    built = []
    real = decomp._verify_fibre_pair

    def record(rep, groupoid, tag):
        built.append(groupoid)
        return real(rep, groupoid, tag)

    monkeypatch.setattr(decomp, "_verify_fibre_pair", record)
    assert verify_decomposition_fibres(SURJ, 3).ok
    assert len(built) == 25 + 121
    return built


def test_reflected_fibre_is_the_fibre_over_the_reflected_chain(monkeypatch):
    # C_2 is the fibre over (eta_rel(f, middle), eta(middle), identity):
    # the factorisations (h, h2) of eta_rel(f, middle) with
    # compose(h2, eta(middle)) op, in factorisation order
    for g in _sweep_groupoids(monkeypatch):
        rel = eta_rel(SURJ, g.f, g.middle)
        eta_middle = pita(g.middle)[1]
        assert g.reflected.chain.maps == (
            rel, eta_middle, identity(g.middle.cod)
        )
        assert g.reflected.objects == [
            (h, h2)
            for h, h2 in factorisations(rel)
            if is_order_preserving(compose(h2, eta_middle))
        ]


def test_solved_morphisms_match_the_search(monkeypatch):
    # in every fibre the bound-3 sweep compares, and in its reflected
    # fibre, the morphism solved from the first triangle is exactly what
    # a search over all middle quasibijections finds
    kinds = Counter()
    for g in _sweep_groupoids(monkeypatch):
        for fibre in (g, g.reflected):
            objs = fibre.objects
            for x in objs:
                for y in objs:
                    mid = x[1].dom
                    search = [
                        s for s in quasibijections(SURJ, mid, mid)
                        if fibre.is_morphism(s, x, y)
                    ]
                    solved = fibre._morphism(x, y)
                    assert search == ([] if solved is None else [solved])
                    kinds[solved is not None, x == y] += 1
    assert kinds[True, True] and kinds[True, False] and kinds[False, False]


def test_fibre_suite_passes_at_bound_four():
    rep = verify_decomposition_fibres(SURJ, 4)
    assert rep.ok, rep.violations[:2]
    assert rep.checks == 1570
    # chains stop at 3-objects, and the title says so
    assert rep.title == "decomposition-fibres[fin-surj, bound=4, chains<=3]"


def test_fibre_sweep_builds_each_chains_groupoid_once(monkeypatch):
    # the bound-4 sweep makes 26 + 121 comparisons, each of a fibre with
    # its reflected fibre, over 122 distinct chains: one groupoid each
    built = []
    real = FactorisationGroupoid.__post_init__

    def record(self):
        built.append(self.chain)
        real(self)

    monkeypatch.setattr(FactorisationGroupoid, "__post_init__", record)
    rep = verify_decomposition_fibres(SURJ, 4)
    assert len(built) == len(set(built)) == 122
    assert rep.by_axiom == {
        "fibre-retraction": 130,
        "fibre-c2-not-discrete": 26,
        "fibre-unit-not-a-morphism": 196,
        "fibre-class-count": 26,
        "chain-fibre-retraction": 277,
        "chain-fibre-c2-not-discrete": 121,
        "chain-fibre-unit-not-a-morphism": 673,
        "chain-fibre-class-count": 121,
    }


def test_fibre_suite_passes_at_bound_three():
    rep = verify_decomposition_fibres(SURJ, 3)
    assert rep.ok, rep.violations[:2]
    assert rep.checks == 1418
    assert rep.by_axiom == {
        "fibre-retraction": 55,
        "fibre-c2-not-discrete": 25,
        "fibre-unit-not-a-morphism": 121,
        "fibre-class-count": 25,
        "chain-fibre-retraction": 277,
        "chain-fibre-c2-not-discrete": 121,
        "chain-fibre-unit-not-a-morphism": 673,
        "chain-fibre-class-count": 121,
    }
    assert rep.title == "decomposition-fibres[fin-surj, bound=3]"


def test_middle_identity_is_the_two_chain_comparison():
    # the fibre-* sites of the bound-3 sweep are the groupoids over the
    # middle degeneracies of the 2-chains, the folds among them
    chains = set(enumerate_p(SURJ, 2, 3))
    assert all(
        Chain.of(SURJ, (_fold(m), identity(1)), 1) in chains for m in (1, 2, 3)
    )
    rep = Report("fibres over degeneracies")
    for c in chains:
        decomp._verify_fibre_pair(
            rep, FactorisationGroupoid(degeneracy(1, c)), "fibre"
        )
    assert rep.ok
    assert rep.by_axiom == {
        "fibre-retraction": 55,
        "fibre-c2-not-discrete": 25,
        "fibre-unit-not-a-morphism": 121,
        "fibre-class-count": 25,
    }
    # with the identity in the middle the chain formulas reduce to the
    # 2-chain ones: eta(f) for eta_rel(f, middle), eta(e) for
    # eta_rel(e, middle)
    f, bottom = FinMap(3, 2, (1, 1, 2)), FinMap(2, 1, (1, 1))
    g = _groupoid(f, bottom)
    assert g.middle == identity(2)
    assert g.reflected.objects == [
        (h, e) for h, e in factorisations(pita(f)[1]) if is_order_preserving(e)
    ]
    for x in g.objects:
        h, e = x
        assert g.forward(x) == (eta_rel(SURJ, h, e), pita(e)[1])
        assert g.unit_at(x) == pita(e)[0]
    for y in g.reflected.objects:
        assert g.backward(y) == (compose(pita(f)[0], y[0]), y[1])


@pytest.mark.parametrize("mutant", [CorruptFibreMap, CorruptFibre])
def test_fibre_suite_fails_on_mutants_at_both_levels(mutant):
    # the mutants carry a suffixed name that the sweep would refuse, so
    # they are renamed to reach the fibre comparison itself
    inst = mutant(make_fin_surj())
    inst.name = "fin-surj"
    rep = verify_decomposition_fibres(inst, 3, max_violations=10_000)
    tags = {v["axiom"] for v in rep.violations}
    # both chain levels catch it
    assert {"fibre-class-count", "chain-fibre-class-count"} <= tags, tags


def test_a_comparison_that_raises_is_a_fibre_error():
    # composites outside the homs make every reflected chain ill-formed:
    # each comparison is one error witness, and the sweep runs on
    inst = CompositeOutsideHoms(make_fin_surj())
    inst.name = "fin-surj"
    rep = verify_decomposition_fibres(inst, 2, max_violations=10_000)
    assert not rep.ok
    assert rep.checks == 0
    assert {v["axiom"] for v in rep.violations} == {
        "fibre-error", "chain-fibre-error",
    }
    v = rep.violations[0]
    assert v["lhs"] == "map 0 does not end at object 1"
    assert v["witness"]["chain"]["objects"] == [1, 1, 1]


def test_fibre_suite_needs_the_surjection_instance():
    with pytest.raises(UnsupportedInstanceError):
        verify_decomposition_fibres(FIN, 2)


class RecordCompose(Wrapper):
    """Corrupts nothing; records each compose(g, f) asked of it, with the
    code object of the function that asked."""

    def __init__(self, base):
        super().__init__(base)
        self.name = base.name
        self.asked = []

    def compose(self, g, f):
        self.asked.append(((g, f), sys._getframe(1).f_code))
        return self._base.compose(g, f)


@pytest.mark.parametrize(
    "sweep",
    [
        lambda inst: verify_decomposition_fibres(inst, 3),
        lambda inst: nerve.verify_strict_identities(inst, 3, 4),
        lambda inst: nerve.verify_beta_coherence(inst, 3, 4),
    ],
    ids=["fibres", "strict", "beta"],
)
def test_the_sweeps_ask_each_composite_once(sweep):
    # the nerve and the fibre groupoids ask a fresh instance for each
    # composite once, through its interner; only beta's oracle composes
    # FinMaps through the instance itself. When the groupoids composed
    # through the instance, the fibre sweep asked 12,971 times for 105
    # distinct pairs
    inst = RecordCompose(make_fin_surj())
    assert sweep(inst).ok
    oracle = nerve.beta.__code__
    once = [pair for pair, code in inst.asked if code is not oracle]
    assert len(once) == len(set(once)) == 105

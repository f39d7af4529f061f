import pytest
from hypothesis import given, settings

from helpers import CorruptFibreMap, RemoveHom
from pita.errors import ShapeError
from pita.finskel import (
    FinMap,
    enumerate_maps,
    identity,
    is_order_preserving,
    is_surjective,
)
from pita.instances import (
    make_fin,
    make_fin_surj,
    make_instance,
    make_op,
    satisfies_weak_blowup,
    weak_blowup_report,
)
from strategies import composable_pairs


def test_object_ranges():
    assert make_fin().objects(3) == [0, 1, 2, 3]
    assert make_op().objects(2) == [0, 1, 2]
    # the empty ordinal has no surjection onto the terminal, so the
    # surjections instance starts at 1
    assert make_fin_surj().objects(3) == [1, 2, 3]


def test_hom_contents():
    fin = make_fin()
    assert len(fin.hom(2, 2)) == 4
    assert len(fin.hom(0, 2)) == 1
    assert len(fin.hom(2, 0)) == 0

    surj = make_fin_surj()
    assert len(surj.hom(3, 2)) == 6
    assert surj.hom(2, 3) == ()
    assert all(is_surjective(f) for f in surj.hom(4, 2))

    op = make_op()
    assert len(op.hom(2, 3)) == 6
    assert len(op.hom(3, 3)) == 10
    assert all(is_order_preserving(f) for f in op.hom(3, 2))


def test_hom_is_cached():
    fin = make_fin()
    assert fin.hom(2, 2) is fin.hom(2, 2)


@given(composable_pairs(max_card=4))
def test_fin_closed_under_composition(pair):
    g, f = pair
    fin = make_fin()
    assert fin.compose(g, f) in fin.hom(g.dom, f.cod)


@given(composable_pairs(max_card=4, surjective=True))
def test_surj_closed_under_composition_and_fibre_maps(pair):
    g, f = pair
    surj = make_fin_surj()
    assert surj.compose(g, f) in surj.hom(g.dom, f.cod)
    for i in range(1, f.cod + 1):
        assert is_surjective(surj.fibre_morphism(g, f, i))


def test_op_closed_under_fibre_maps():
    op = make_op()
    for g in op.hom(3, 2):
        for f in op.hom(2, 2):
            for i in range(1, 3):
                assert is_order_preserving(op.fibre_morphism(g, f, i))


def test_chosen_terminals():
    fin = make_fin()
    assert fin.chosen_terminal(3) == (1, FinMap(3, 1, (1, 1, 1)))
    assert fin.chosen_terminal(0) == (1, FinMap(0, 1, ()))
    assert fin.chosen_terminal(1) == (1, identity(1))
    surj = make_fin_surj()
    U, tau = surj.chosen_terminal(2)
    assert U == 1 and tau in surj.hom(2, 1)


def test_cardinality_is_identity_on_handles():
    fin = make_fin()
    f = FinMap(2, 2, (2, 1))
    assert fin.cardinality(f) is f
    assert fin.cardinality(3) == 3


def test_registry():
    assert make_instance("fin").name == "fin"
    assert make_instance("fin-surj").name == "fin-surj"
    assert make_instance("op").name == "op"
    with pytest.raises(ShapeError):
        make_instance("nope")


# ------------------------------------------------------------ blow-up


@pytest.mark.parametrize("factory", [make_fin, make_fin_surj, make_op])
def test_weak_blowup_holds_at_bound_3(factory):
    rep = weak_blowup_report(factory(), 3)
    assert rep.ok, rep.violations[:3]
    assert rep.checks > 0
    assert satisfies_weak_blowup(factory(), 2)


def test_weak_blowup_fails_with_a_missing_map():
    # removing [2,1,3] from hom(3,3) of fin breaks existence: blowing up
    # h=[1,1,2] along the family ([2,1] over the first fibre, id over the
    # second) constructs exactly that map, while the family maps themselves
    # live in hom(2,2) and hom(1,1) and survive the removal
    broken = RemoveHom(make_fin(), 3, 3, FinMap(3, 3, (2, 1, 3)))
    rep = weak_blowup_report(broken, 3)
    assert not rep.ok
    assert any(v["axiom"] == "blowup-existence" for v in rep.violations)


def test_weak_blowup_fails_with_corrupted_fibre_maps():
    rep = weak_blowup_report(CorruptFibreMap(make_fin()), 2)
    assert not rep.ok


@pytest.mark.parametrize("factory", [make_fin, make_fin_surj, make_op])
def test_is_morphism_matches_the_homs(factory):
    inst = factory()
    objs = inst.objects(3)
    for X in range(4):
        for Y in range(4):
            homs = set(inst.hom(X, Y)) if X in objs and Y in objs else set()
            for f in enumerate_maps(X, Y):
                assert inst.is_morphism(f) == (f in homs), f

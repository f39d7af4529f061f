import hashlib
import json

import pytest
from hypothesis import given, settings

from helpers import CorruptFibreMap, RemoveHom, WidenFibreMap, Wrapper
from pita.errors import ShapeError
from pita.finskel import (
    FinMap,
    enumerate_maps,
    fibre,
    identity,
    is_order_preserving,
    is_surjective,
)
from pita.instances import (
    make_fin,
    make_fin_surj,
    make_instance,
    make_op,
)
from pita.opcat import verify_axioms
from reference import blowup_reference
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


# sha256 of [(X, Y, [f.values for f in hom(X, Y)]) for X, Y in 0..4]:
# universe ids and witness order follow hom order, so the pins fix both
# the contents and the order of every hom
HOM_ORDER_PINS = {
    "fin": "76f2b1837c618b9250219fdb1460938030d68011c9b802e0462e9a613dd72adf",
    "fin-surj": (
        "8f6a2609a7fe5bdfbd2e430cf9ae40f5b99593245e7503655ec9ad575c5574ce"
    ),
    "op": "fc4ab77defafa42610310a73b08b74714de8c6cc94a1d6df96f529a00b6115cc",
}


@pytest.mark.parametrize("factory", [make_fin, make_fin_surj, make_op])
def test_hom_order_is_pinned(factory):
    inst = factory()
    data = [
        (X, Y, [f.values for f in inst.hom(X, Y)])
        for X in range(5)
        for Y in range(5)
    ]
    digest = hashlib.sha256(json.dumps(data).encode()).hexdigest()
    assert digest == HOM_ORDER_PINS[inst.name]


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


@pytest.mark.parametrize("factory", [make_fin, make_fin_surj, make_op])
def test_fibre_query_counts_the_reference_inclusion(factory):
    inst = factory()
    objs = inst.objects(3)
    seen = 0
    for X in objs:
        for Y in objs:
            for f in inst.hom(X, Y):
                for i in range(1, Y + 1):
                    assert inst.fibre(f, i) == fibre(f, i).dom, (f, i)
                    seen += 1
    assert seen > 0


def test_chosen_terminals():
    fin = make_fin()
    assert fin.chosen_terminal(3) == (1, FinMap(3, 1, (1, 1, 1)))
    assert fin.chosen_terminal(0) == (1, FinMap(0, 1, ()))
    assert fin.chosen_terminal(1) == (1, identity(1))
    assert fin.chosen_terminal(3)[1] is fin.chosen_terminal(3)[1]
    surj = make_fin_surj()
    U, tau = surj.chosen_terminal(2)
    assert U == 1 and tau in surj.hom(2, 1)


def test_registry():
    assert make_instance("fin").name == "fin"
    assert make_instance("fin-surj").name == "fin-surj"
    assert make_instance("op").name == "op"
    with pytest.raises(ShapeError):
        make_instance("nope")


# ------------------------------------------------------------ blow-up


def _blowup_failures(inst, bound):
    """Per tag of blowup_reference, (families checked, families failing)."""
    return {
        tag: (n, len(found))
        for tag, (n, found) in blowup_reference(inst, bound).items()
    }


def _blowup(families, existence=0, uniqueness=0):
    return {
        "blowup-existence": (families, existence),
        "blowup-uniqueness": (families, uniqueness),
    }


BLOWUP_FAMILIES_AT_3 = {"fin": 626, "fin-surj": 25, "op": 428}


@pytest.mark.parametrize("factory", [make_fin, make_fin_surj, make_op])
def test_weak_blowup_holds_at_bound_3(factory):
    inst = factory()
    families = BLOWUP_FAMILIES_AT_3[inst.name]
    assert _blowup_failures(inst, 3) == _blowup(families)
    assert all(not found for _, found in blowup_reference(inst, 2).values())


def test_weak_blowup_fails_with_a_missing_map():
    # removing [2,1,3] from hom(3,3) of fin breaks existence: blowing up
    # h=[1,1,2] along the family ([2,1] over the first fibre, id over the
    # second) needs exactly that map as f, while the family maps themselves
    # live in hom(2,2) and hom(1,1) and survive the removal
    broken = RemoveHom(make_fin(), 3, 3, FinMap(3, 3, (2, 1, 3)))
    assert _blowup_failures(broken, 3) == _blowup(620, existence=4)


def test_weak_blowup_holds_under_permuted_fibre_maps():
    # CorruptFibreMap permutes the domain of every fibre map, so exactly
    # one f still matches each family and the axiom holds; that these
    # fibre maps are not finskel's is verify_axioms' finding
    broken = CorruptFibreMap(make_fin())
    assert _blowup_failures(broken, 2) == _blowup(39)
    assert not verify_axioms(broken, 2).ok


def test_weak_blowup_fails_with_corrupted_fibre_maps():
    # a widened fibre map ends one point too high, so 38 of the 39
    # families find no pair; on op, the permuted fibre maps of the
    # order-preserving f that the identity family needs are not order-
    # preserving, so 3 families find none
    widened = WidenFibreMap(make_fin())
    assert _blowup_failures(widened, 2) == _blowup(39, existence=38)
    permuted = CorruptFibreMap(make_op())
    assert _blowup_failures(permuted, 2) == _blowup(36, existence=3)


class ConstantFibreMap(Wrapper):
    """Sends every fibre map to the constant map onto the first point, so
    pairs that differ only inside a fibre answer the same family."""

    def fibre_morphism(self, g, f, i):
        fm = self._base.fibre_morphism(g, f, i)
        return FinMap(fm.dom, fm.cod, (1,) * fm.dom)


@pytest.mark.parametrize(
    "factory, families, existence",
    [(make_fin, 39, 12), (make_op, 36, 9)],
    ids=["fin", "op"],
)
def test_weak_blowup_uniqueness_fails_with_constant_fibre_maps(
    factory, families, existence
):
    broken = ConstantFibreMap(factory())
    assert _blowup_failures(broken, 2) == _blowup(families, existence, 6)


@pytest.mark.parametrize("factory", [make_fin, make_fin_surj, make_op])
def test_is_morphism_matches_the_homs(factory):
    inst = factory()
    objs = inst.objects(3)
    for X in range(4):
        for Y in range(4):
            homs = set(inst.hom(X, Y)) if X in objs and Y in objs else set()
            for f in enumerate_maps(X, Y):
                assert inst.is_morphism(f) == (f in homs), f

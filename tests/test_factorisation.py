import pytest
from hypothesis import given, settings

from helpers import CorruptFibreMap, RemoveHom
from pita import factorisation
from pita.errors import (
    IntegrityError,
    NotFactorisableError,
    ShapeError,
)
from pita.factorisation import (
    PitaFactorisation,
    eta_rel,
    omega,
    pita_general,
    verify_eta_identities,
)
from pita.finskel import FinMap, compose, identity, is_order_preserving, pita
from pita.instances import make_fin, make_fin_surj, make_op
from pita.opcat import is_fop_square, is_quasibijection
from strategies import composable_pairs
from test_opcat import _all_squares


def _all_maps(inst, bound):
    objs = inst.objects(bound)
    return [f for X in objs for Y in objs for f in inst.hom(X, Y)]


def _pairs(inst, bound):
    maps = _all_maps(inst, bound)
    by_dom = {}
    for f in maps:
        by_dom.setdefault(f.dom, []).append(f)
    return [(f, g) for f in maps for g in by_dom.get(f.cod, [])]


# ------------------------------------------------------------- splitting


def test_split_worked_example():
    fin = make_fin()
    s = pita_general(fin, FinMap(7, 4, (3, 2, 1, 1, 4, 2, 3)))
    assert s.pi == FinMap(7, 7, (5, 3, 1, 2, 7, 4, 6))
    assert s.eta == FinMap(7, 4, (1, 1, 2, 2, 3, 3, 4))
    assert s.mid == 7


def test_split_of_op_map_and_of_quasibijection():
    fin = make_fin()
    e = FinMap(3, 2, (1, 1, 2))
    s = pita_general(fin, e)
    assert s.pi == identity(3) and s.eta == e
    q = FinMap(3, 3, (3, 1, 2))
    s = pita_general(fin, q)
    assert s.pi == q and s.eta == identity(3)


def test_split_dataclass_rejects_loose_pairs():
    # [1,1] also factors through the swap, but that triangle is not fop
    f = FinMap(2, 1, (1, 1))
    with pytest.raises(IntegrityError):
        PitaFactorisation(f=f, pi=FinMap(2, 2, (2, 1)), mid=2, eta=f)
    swap = FinMap(2, 2, (2, 1))
    with pytest.raises(IntegrityError):
        PitaFactorisation(f=swap, pi=identity(2), mid=2, eta=swap)
    with pytest.raises(IntegrityError):
        PitaFactorisation(f=f, pi=FinMap(2, 2, (1, 1)), mid=2, eta=f)
    with pytest.raises(ShapeError):
        PitaFactorisation(f=f, pi=identity(2), mid=3, eta=f)


@pytest.mark.parametrize(
    "factory,bound", [(make_fin, 3), (make_fin_surj, 3), (make_op, 3)]
)
def test_split_oracle_agrees_with_production(factory, bound):
    inst = factory()
    for f in _all_maps(inst, bound):
        prod = pita_general(inst, f)
        orac = pita_general(inst, f, mode="oracle")
        assert (prod.pi, prod.eta) == (orac.pi, orac.eta)


def test_split_oracle_reports_missing_factorisation():
    broken = RemoveHom(make_fin(), 2, 2, FinMap(2, 2, (2, 1)))
    with pytest.raises(NotFactorisableError):
        pita_general(broken, FinMap(2, 2, (2, 1)), mode="oracle")


def test_split_unknown_mode():
    with pytest.raises(ShapeError):
        pita_general(make_fin(), identity(2), mode="fast")


# ---------------------------------------------------------- relative part


def test_relative_part_frozen_example():
    fin = make_fin()
    er = eta_rel(fin, FinMap(2, 2, (2, 1)), FinMap(2, 1, (1, 1)))
    assert er == FinMap(2, 2, (2, 1))
    assert not is_order_preserving(er)


def test_relative_part_degenerate_cases():
    fin = make_fin()
    f = FinMap(3, 2, (2, 1, 1))
    assert eta_rel(fin, identity(3), f) == identity(3)
    assert eta_rel(fin, f, identity(2)) == pita_general(fin, f).eta


@pytest.mark.parametrize("factory", [make_fin, make_fin_surj, make_op])
def test_relative_part_oracle_agrees_with_production(factory):
    inst = factory()
    for f, g in _pairs(inst, 3):
        assert eta_rel(inst, f, g) == eta_rel(inst, f, g, mode="oracle")


@given(composable_pairs(max_card=5))
@settings(max_examples=150, deadline=None)
def test_relative_part_defining_equations(pair):
    fin = make_fin()
    f, g = pair
    er = eta_rel(fin, f, g)
    fg = compose(f, g)
    assert compose(er, pita(g)[1]) == pita(fg)[1]
    assert compose(pita(fg)[0], er) == compose(f, pita(g)[0])
    # the unit square over the pair is fop
    assert is_fop_square(pita(fg)[0], pita(g)[0], f, er, fin)


# -------------------------------------------------------- induced squares


def test_square_filler_frozen_example():
    fin = make_fin()
    swap = FinMap(2, 2, (2, 1))
    w = omega(fin, swap, identity(2), swap, identity(2))
    assert w == identity(2)
    assert w == omega(fin, swap, identity(2), swap, identity(2), mode="oracle")


def test_square_filler_on_split_triangle():
    fin = make_fin()
    f = FinMap(3, 2, (2, 1, 1))
    s = pita_general(fin, f)
    assert omega(fin, s.pi, identity(2), f, s.eta) == identity(3)
    assert omega(fin, identity(3), identity(2), f, f) == identity(3)


def test_square_filler_shape_errors():
    fin = make_fin()
    swap = FinMap(2, 2, (2, 1))
    with pytest.raises(ShapeError):
        omega(fin, swap, identity(2), swap, identity(2), mode="fast")
    with pytest.raises(ShapeError):
        omega(fin, identity(2), identity(2), swap, identity(2))
    with pytest.raises(ShapeError):
        omega(fin, swap, FinMap(2, 1, (1, 1)), swap, FinMap(2, 1, (1, 1)))
    with pytest.raises(ShapeError):
        omega(fin, identity(3), identity(2), swap, identity(2))


@pytest.mark.parametrize(
    "factory,bound", [(make_fin, 2), (make_fin_surj, 3)]
)
def test_square_filler_exhaustive(factory, bound):
    # over every commuting square with quasibijective bottom: the two
    # routes agree, the filler satisfies its equations, and when the
    # square is fop with quasibijective top the filler is the
    # quasibijection part of the bottom pushed through the op part
    inst = factory()
    seen = fop_seen = 0
    for sigma, tau, f, g in _all_squares(inst, bound):
        if not is_quasibijection(tau, inst):
            continue
        seen += 1
        w = omega(inst, sigma, tau, f, g)
        assert w == omega(inst, sigma, tau, f, g, mode="oracle")
        s_f, s_g = pita_general(inst, f), pita_general(inst, g)
        assert inst.compose(s_f.pi, w) == inst.compose(sigma, s_g.pi)
        assert inst.compose(w, s_g.eta) == inst.compose(s_f.eta, tau)
        if is_quasibijection(sigma, inst) and is_fop_square(
            sigma, tau, f, g, inst
        ):
            fop_seen += 1
            pushed = pita_general(inst, inst.compose(s_f.eta, tau))
            assert w == pushed.pi
            assert s_g.eta == pushed.eta
    assert seen > 0 and fop_seen > 0


# ----------------------------------------------------- identity sweeps


@pytest.mark.parametrize("factory", [make_fin, make_fin_surj, make_op])
def test_eta_identities_hold_at_bound_3(factory):
    inst = factory()
    rep = verify_eta_identities(inst, 3)
    assert rep.ok, rep.violations[:3]
    assert rep.checks == {"fin": 60_862, "fin-surj": 1_385, "op": 8_580}[
        inst.name
    ]


@pytest.mark.parametrize(
    "factory,bound", [(make_fin, 2), (make_fin_surj, 3)]
)
def test_eta_identities_table_and_loop_paths_agree(
    factory, bound, monkeypatch
):
    loop = verify_eta_identities(factory(), bound)
    monkeypatch.setattr(factorisation, "_TRIPLE_LOOP_CUTOFF", 0)
    table = verify_eta_identities(factory(), bound)
    assert loop.ok and table.ok
    assert loop.checks == table.checks


def test_eta_identities_catch_corrupted_fibre_maps():
    rep = verify_eta_identities(CorruptFibreMap(make_fin()), 2)
    assert not rep.ok
    assert any(v["axiom"] == "unit-square-not-fop" for v in rep.violations)


def test_op_part_law_has_no_quasibijection_analogue():
    # the op parts compose through the twisted middle term, but the same
    # recipe for the quasibijection parts fails
    fin = make_fin()
    f, g = FinMap(2, 2, (2, 1)), FinMap(2, 1, (1, 1))
    mid = compose(pita(f)[1], pita(g)[0])
    lhs = pita(compose(f, g))[0]
    rhs = compose(pita(f)[0], pita(mid)[0])
    assert compose(pita(mid)[1], pita(g)[1]) == pita(compose(f, g))[1]
    assert lhs == identity(2)
    assert rhs == FinMap(2, 2, (2, 1))
    assert lhs != rhs
    failures = sum(
        1
        for a, b in _pairs(fin, 2)
        if compose(
            pita(a)[0], pita(compose(pita(a)[1], pita(b)[0]))[0]
        ) != pita(compose(a, b))[0]
    )
    assert failures > 0

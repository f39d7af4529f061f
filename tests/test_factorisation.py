import functools
import json
from collections import Counter

import pytest
from hypothesis import given, settings

from helpers import (
    CompositeOutsideHoms,
    CorruptFibre,
    CorruptFibreMap,
    Counting,
    RemoveHom,
    WrongTerminal,
)
from pita import finskel, opcat
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
from pita.finskel import (
    FinMap,
    compose,
    enumerate_bijections,
    enumerate_maps,
    identity,
    inverse,
    is_order_preserving,
    pita,
)
from pita.instances import make_fin, make_fin_surj, make_op
from pita.opcat import is_fop_square, is_quasibijection, verify_axioms
from reference import (
    axioms_reference,
    splitting_reference,
    unary_splitting_reference,
)
from strategies import composable_pairs
from test_differential import BASES, MUTANTS
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
    assert s.pi.cod == 7


def test_split_of_op_map_and_of_quasibijection():
    fin = make_fin()
    e = FinMap(3, 2, (1, 1, 2))
    s = pita_general(fin, e)
    assert s.pi == identity(3) and s.eta == e
    q = FinMap(3, 3, (3, 1, 2))
    s = pita_general(fin, q)
    assert s.pi == q and s.eta == identity(3)


def test_split_dataclass_accepts_exactly_the_unique_split():
    # every (p, p^-1;f) with p a bijection and p^-1;f order-preserving
    # recomposes to f; its triangle is fop exactly when it is pita(f),
    # the only split PitaFactorisation(f) can hold
    fin = make_fin()
    seen = fop = 0
    for m in range(4):
        for n in range(4):
            for f in enumerate_maps(m, n):
                split = PitaFactorisation(f)
                for p in enumerate_bijections(m):
                    e = compose(inverse(p), f)
                    if not is_order_preserving(e):
                        continue
                    seen += 1
                    square = is_fop_square(p, identity(n), f, e, fin)
                    assert square == ((p, e) == pita(f)), (f, p)
                    assert square == ((p, e) == (split.pi, split.eta))
                    fop += square
    assert seen > fop > 0


def test_production_splits_with_one_pita_call(monkeypatch):
    calls = Counter()
    real = finskel.pita

    def counted(f):
        calls[f] += 1
        return real(f)

    monkeypatch.setattr(finskel, "pita", counted)
    fin = make_fin()
    maps = _all_maps(fin, 3)
    for f in maps:
        s = pita_general(fin, f)
        assert (s.f, s.pi, s.eta) == (f,) + real(f)
    assert calls == Counter(maps)


def test_oracle_refuses_a_wrong_production_split(monkeypatch):
    # [1,1] also factors through the swap, but that triangle is not fop
    f = FinMap(2, 1, (1, 1))
    swap = FinMap(2, 2, (2, 1))
    monkeypatch.setattr(finskel, "pita", lambda g: (swap, g))
    assert pita_general(make_fin(), f).pi == swap
    with pytest.raises(IntegrityError):
        pita_general(make_fin(), f, mode="oracle")


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


# check sites of verify_eta_identities, each keyed by the tag it reports
SPLITTING_SITES = (
    "pi-of-pi",
    "eta-of-eta",
    "pi-of-eta",
    "eta-of-pi",
    "op-quasibijection-not-identity",
    "relative-part-left-triangle",
    "relative-part-defining-square",
    "op-part-composition",
    "relative-part-over-identity",
    "relative-part-of-identity",
    "relative-part-op-pair",
    "unit-square-not-fop",
    "relative-part-cocycle",
)


# per instance at bound 3: maps (each unary site), composable pairs (each
# unconditional pair site), then the last five sites one by one
SPLITTING_COUNTS = {
    "fin": (60, 1_678, (60, 60, 626, 4_764, 50_018)),
    "fin-surj": (17, 105, (17, 17, 25, 285, 641)),
    "op": (35, 428, (35, 35, 428, 1_124, 5_499)),
}


@pytest.mark.parametrize("factory", [make_fin, make_fin_surj, make_op])
def test_eta_identities_hold_at_bound_3(factory):
    inst = factory()
    rep = verify_eta_identities(inst, 3)
    assert rep.ok, rep.violations[:3]
    assert rep.checks == {"fin": 60_862, "fin-surj": 1_385, "op": 8_580}[
        inst.name
    ]
    maps, pairs, rest = SPLITTING_COUNTS[inst.name]
    per_site = (maps,) * 5 + (pairs,) * 3 + rest
    assert rep.by_axiom == dict(zip(SPLITTING_SITES, per_site))


def _sorted_json(violations) -> list:
    return sorted(json.dumps(v, sort_keys=True) for v in violations)


def _instance(base: str, mutant: str):
    make = MUTANTS[mutant]
    return BASES[base]() if make is None else make(BASES[base]())


@pytest.mark.parametrize(
    "base,bound,mutant",
    [
        pytest.param(
            base, bound, mutant,
            id=f"{BASES[base].__name__}-{bound}"
            + ("" if mutant == "clean" else f"-{mutant}"),
        )
        for base in BASES
        for bound in (2, 3)
        for mutant in MUTANTS
    ],
)
def test_eta_identities_table_and_loop_paths_agree(
    base, bound, mutant, monkeypatch
):
    def run():
        inst = _instance(base, mutant)
        return verify_eta_identities(inst, bound, max_violations=10**6)

    loop = run()
    monkeypatch.setattr(opcat, "_TRIPLE_LOOP_CUTOFF", 0)
    table = run()
    assert not loop.truncated and not table.truncated
    assert loop.checks == table.checks
    assert loop.by_axiom == table.by_axiom
    assert _sorted_json(loop.violations) == _sorted_json(table.violations)
    if mutant == "clean":
        assert loop.ok


ROUTES = pytest.mark.parametrize(
    "cutoff", [opcat._TRIPLE_LOOP_CUTOFF, 0], ids=["loop", "table"]
)

# the cases whose universe at bound 2 stays inside the instance's homs:
# every base clean and under the three mutants that keep composites,
# except the fibre maps of op under CorruptFibreMap; and RemoveHom on
# fin-surj, where no composite lands on the removed fold
CLOSED_CASES = [
    (base, mutant)
    for base in BASES
    for mutant in ("clean", "CorruptFibre", "CorruptFibreMap", "WrongTerminal")
    if (base, mutant) != ("op", "CorruptFibreMap")
] + [("fin-surj", "RemoveHom")]


@pytest.mark.parametrize(
    "base,mutant", CLOSED_CASES, ids=[f"{b}-{m}" for b, m in CLOSED_CASES]
)
def test_splitting_sweep_matches_the_reference(base, mutant):
    # the pair and triple sites against tests/reference.py, which
    # recomputes them on value tuples without the sweep's definitions
    inst = _instance(base, mutant)
    assert opcat.universe(inst, 2).strays == 0
    rep = verify_eta_identities(inst, 2, max_violations=10**6)
    reference = splitting_reference(inst, 2)
    for tag in SPLITTING_SITES[5:]:
        checks, found = reference.get(tag, (0, []))
        mine = [v for v in rep.violations if v["axiom"] == tag]
        assert (rep.by_axiom[tag], _sorted_json(mine)) == (
            checks, _sorted_json(found)
        ), tag


@ROUTES
@pytest.mark.parametrize(
    "base,mutant", CLOSED_CASES, ids=[f"{b}-{m}" for b, m in CLOSED_CASES]
)
def test_unary_splitting_sites_match_the_reference(
    base, mutant, cutoff, monkeypatch
):
    # the five unary sites against tests/reference.py, which splits value
    # tuples itself and asks the instance only for fibres and terminals
    monkeypatch.setattr(opcat, "_TRIPLE_LOOP_CUTOFF", cutoff)
    inst = _instance(base, mutant)
    rep = verify_eta_identities(inst, 2, max_violations=10**6)
    reference = unary_splitting_reference(inst, 2)
    assert sorted(reference) == sorted(SPLITTING_SITES[:5])
    for tag in SPLITTING_SITES[:5]:
        checks, found = reference[tag]
        mine = [v for v in rep.violations if v["axiom"] == tag]
        assert (rep.by_axiom[tag], _sorted_json(mine)) == (
            checks, _sorted_json(found)
        ), tag


# the twelve closed cases at bound 2, and fin at bound 3, where a fibre
# has up to three points, so the iterated fibre-map kernel meets ranks 1
# to 3 in every order
AXIOM_REFERENCE_CASES = [
    (base, mutant, 2) for base, mutant in CLOSED_CASES
] + [
    ("fin", mutant, 3)
    for mutant in ("clean", "CorruptFibreMap", "WidenFibreMap")
]


# the two routes of a case run one after the other, and the reference of
# fin at bound 3 under WidenFibreMap holds 100k violations
@functools.lru_cache(maxsize=1)
def _axioms_reference(base, mutant, bound):
    return axioms_reference(_instance(base, mutant), bound)


@ROUTES
@pytest.mark.parametrize(
    "base,mutant,bound",
    AXIOM_REFERENCE_CASES,
    ids=[
        f"{b}-{m}" if bound == 2 else f"{b}-{bound}-{m}"
        for b, m, bound in AXIOM_REFERENCE_CASES
    ],
)
def test_axiom_sweep_matches_the_reference(
    base, mutant, bound, cutoff, monkeypatch
):
    # every site of verify_axioms against tests/reference.py, which
    # recomputes them on value tuples without finskel or the Universe
    monkeypatch.setattr(opcat, "_TRIPLE_LOOP_CUTOFF", cutoff)
    inst = _instance(base, mutant)
    assert opcat.universe(inst, bound).strays == 0
    rep = verify_axioms(inst, bound, max_violations=10**6)
    reference = _axioms_reference(base, mutant, bound)
    assert set(rep.by_axiom) <= set(reference)
    assert {v["axiom"] for v in rep.violations} <= set(reference)
    for tag, (checks, found) in reference.items():
        mine = [v for v in rep.violations if v["axiom"] == tag]
        assert (rep.by_axiom[tag], _sorted_json(mine)) == (
            checks, _sorted_json(found)
        ), tag
    assert rep.ok == (mutant == "clean")


def test_eta_identities_catch_corrupted_fibre_maps():
    rep = verify_eta_identities(CorruptFibreMap(make_fin()), 2)
    assert not rep.ok
    assert any(v["axiom"] == "unit-square-not-fop" for v in rep.violations)


# violations per tag at fin, bound 2, out of 547 checks
SPLITTING_MUTANTS = {
    CorruptFibre: {"op-quasibijection-not-identity": 2},
    CorruptFibreMap: {"unit-square-not-fop": 13},
    WrongTerminal: {},
}


@ROUTES
@pytest.mark.parametrize(
    "mutant", list(SPLITTING_MUTANTS), ids=lambda m: m.__name__
)
def test_splitting_mutants_agree_across_routes(mutant, cutoff, monkeypatch):
    monkeypatch.setattr(opcat, "_TRIPLE_LOOP_CUTOFF", cutoff)
    rep = verify_eta_identities(mutant(make_fin()), 2, max_violations=10_000)
    assert not rep.truncated
    assert rep.checks == 547
    tags = Counter(v["axiom"] for v in rep.violations)
    assert tags == SPLITTING_MUTANTS[mutant]


@pytest.mark.parametrize("swap", [False, True], ids=["C,R", "R,C"])
def test_buffered_lookups_read_what_by_pair_reads(swap):
    # the table cocycle's C and R write each lookup of a chunk into its
    # own buffer; in every chunk of fin b3 they must give the sides that
    # opcat._by_pair gives without buffers. The cocycle holds there, so
    # the sides are also taken with C and R swapped, where they differ
    import numpy as np

    from pita import _tables
    from pita.factorisation import _cocycle_sides

    table = opcat.Universe(make_fin(), 3).table
    table.ensure_pita()
    stride = table.n + 1
    size = max(map(len, table.by_cod.values())) * max(
        map(len, table.by_dom.values())
    )
    lookups = _tables._BufferedLookups(table, size)
    values = (table.CMP, table.ER)
    plain = [opcat._by_pair(table.PIDX, stride, v) for v in values]
    buffered = [lookups.by_pair(v) for v in values]
    if swap:
        plain.reverse()
        buffered.reverse()
    differ = 0
    for g in range(table.n):
        f_ids = table.by_cod[table.DOM[g]][:, None]
        h_ids = table.by_dom[table.COD[g]][None, :]
        lookups.start()
        got = _cocycle_sides(*buffered, f_ids, g, h_ids)
        want = _cocycle_sides(*plain, f_ids, g, h_ids)
        for side, expected in zip(got, want):
            np.testing.assert_array_equal(side, expected)
        differ += int((want[0] != want[1]).sum())
    assert (differ > 0) == swap


def test_pita_threads_does_not_change_the_table_sweeps(monkeypatch):
    # the table route runs its triple sweeps on a pool above one thread;
    # a mutant makes the per-chunk hits part of what is compared
    monkeypatch.setattr(opcat, "_TRIPLE_LOOP_CUTOFF", 0)
    runs = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("PITA_THREADS", threads)
        inst = CorruptFibreMap(make_fin())
        runs[threads] = [
            (rep.to_json(), rep.by_axiom)
            for rep in (
                verify_axioms(inst, 2, max_violations=10**6),
                verify_eta_identities(inst, 2, max_violations=10**6),
            )
        ]
    assert runs["1"] == runs["2"]
    (axioms, _), _ = runs["1"]
    assert axioms["checks"] == 560
    assert len(axioms["violations"]) == 82


@ROUTES
@pytest.mark.parametrize(
    "mutant",
    [
        CompositeOutsideHoms,
        lambda base: RemoveHom(base, 2, 1, FinMap(2, 1, (1, 1))),
    ],
    ids=["CompositeOutsideHoms", "RemoveHom"],
)
def test_splitting_sweep_refuses_maps_outside_the_homs(
    mutant, cutoff, monkeypatch
):
    # the sweep reports the first answer outside the homs as one
    # violation and keeps the checks it made before it
    monkeypatch.setattr(opcat, "_TRIPLE_LOOP_CUTOFF", cutoff)
    rep = verify_eta_identities(mutant(make_fin()), 2)
    assert [(v["axiom"], v["witness"], v["rhs"]) for v in rep.violations] == [
        ("splitting-error", None, "a closed universe")
    ]
    assert "outside its own homs" in rep.violations[0]["lhs"]
    assert set(rep.by_axiom) == {
        "pi-of-pi", "eta-of-eta", "pi-of-eta", "eta-of-pi",
        "op-quasibijection-not-identity",
    }
    assert rep.checks > 0


@ROUTES
def test_the_splitting_sweep_reads_the_universe(cutoff, monkeypatch):
    monkeypatch.setattr(opcat, "_TRIPLE_LOOP_CUTOFF", cutoff)
    inst = Counting(make_fin())
    assert verify_axioms(inst, 3).ok
    assert inst.calls["compose"] and inst.calls["fibre_morphism"]
    inst.calls.clear()
    assert verify_eta_identities(inst, 3).ok
    assert inst.calls == Counter()


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

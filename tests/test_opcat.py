import itertools
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    CompositeOutsideHoms,
    CorruptFibre,
    CorruptFibreMap,
    Counting,
    MiscountSwap,
    RemoveHom,
    ShrinkComposite,
    WidenFibreMap,
    WrongTerminal,
)
from pita import opcat
from pita.errors import ShapeError
from pita.finskel import (
    FinMap,
    compose,
    enumerate_bijections,
    fibre_map,
    finmap_from_json,
    finmap_to_json,
    identity,
    inverse,
    is_order_preserving,
    pita,
)
from pita.instances import make_fin, make_fin_surj, make_op
from pita.opcat import (
    Report,
    is_fop_square,
    is_quasibijection,
    quasibijections,
    verify_axioms,
)
from strategies import composable_pairs, finmaps
from test_differential import BASES, MUTANTS

# the instance whose composites and fibre maps are finskel's, for squares
# drawn outside any instance's homs
FIN = make_fin()


# ---------------------------------------------------------------- report


def test_report_mechanics():
    rep = Report("demo", max_violations=2)
    assert rep.ok
    rep.count("law", 5)
    rep.add("law", {"x": 1}, 0, 1)
    assert not rep.ok
    rep.add("law", {"x": 2}, 0, 1)
    rep.add("law", {"x": 3}, 0, 1)
    assert len(rep.violations) == 2
    assert rep.truncated
    data = rep.to_json()
    assert data["checks"] == 5
    assert data["violations"][0] == {
        "axiom": "law",
        "witness": {"x": 1},
        "lhs": 0,
        "rhs": 1,
    }
    assert "5 checks" in rep.summary()
    assert "by_axiom" not in data


def test_a_pita_error_inside_the_guard_is_one_violation():
    rep = Report("demo")
    rep.count("law", 2)
    with rep.guard("law-error", {"x": 1}, "a lawful instance"):
        rep.count("law")
        raise ShapeError("map 0 does not end at object 1")
    rep.count("law", 3)
    assert rep.violations == [{
        "axiom": "law-error",
        "witness": {"x": 1},
        "lhs": "map 0 does not end at object 1",
        "rhs": "a lawful instance",
    }]
    assert rep.by_axiom == {"law": 6}
    assert not rep.ok


def test_a_program_fault_inside_the_guard_propagates():
    # only a PitaError speaks against the instance; anything else is a
    # fault of the program and must not be reported as the instance's
    rep = Report("demo")
    with pytest.raises(TypeError):
        with rep.guard("law-error", None, "a lawful instance"):
            raise TypeError("unsupported operand")
    assert rep.violations == []


# ------------------------------------------------------------ predicates


def test_is_quasibijection_against_instance():
    fin = make_fin()
    assert is_quasibijection(FinMap(3, 3, (2, 3, 1)), fin)
    assert not is_quasibijection(FinMap(3, 3, (1, 1, 2)), fin)
    op = make_op()
    assert is_quasibijection(identity(3), op)


def test_quasibijections_helper():
    assert len(quasibijections(make_fin(), 2, 2)) == 2
    assert len(quasibijections(make_fin_surj(), 3, 3)) == 6
    assert quasibijections(make_op(), 2, 2) == [identity(2)]
    assert quasibijections(make_fin(), 2, 3) == []


def test_fop_square_requires_commutation():
    with pytest.raises(ShapeError):
        is_fop_square(
            FinMap(2, 2, (2, 1)), identity(2), identity(2), identity(2), FIN
        )
    with pytest.raises(ShapeError):
        is_fop_square(
            identity(2), identity(3), FinMap(2, 3, (1, 2)), identity(3), FIN
        )


def test_fop_square_with_identity_right_vertical():
    # right vertical an identity: all fibres are singletons, always fop
    sigma = FinMap(3, 3, (3, 1, 2))
    assert is_fop_square(sigma, sigma, identity(3), identity(3), FIN)


def test_fop_square_over_terminal_detects_op():
    # over the terminal square the top map is its own single fibre map
    to1 = FinMap(3, 1, (1, 1, 1))
    assert is_fop_square(FinMap(3, 3, (1, 2, 3)), identity(1), to1, to1, FIN)
    assert not is_fop_square(
        FinMap(3, 3, (2, 1, 3)), identity(1), to1, to1, FIN
    )


@given(finmaps(max_card=5))
def test_pita_triangle_is_fop(f):
    pi, eta = pita(f)
    assert is_fop_square(pi, identity(f.cod), f, eta, FIN)


# ------------------------------------------------------------ the axioms


@pytest.mark.parametrize(
    "factory,bound",
    [
        (make_fin, 2),
        (make_fin, 3),
        (make_fin_surj, 3),
        (make_op, 3),
    ],
)
def test_axioms_pass(factory, bound):
    rep = verify_axioms(factory(), bound)
    assert rep.ok, rep.violations[:3]
    assert rep.checks > 0


AXIOM_MUTANTS = {
    "clean": None,
    "CorruptFibre": CorruptFibre,
    "CorruptFibreMap": CorruptFibreMap,
    "WrongTerminal": WrongTerminal,
    "WidenFibreMap": WidenFibreMap,
    "ShrinkComposite": ShrinkComposite,
}


def _closed(base, bound, mutant):
    """Whether the instance's answers stay inside its homs; an open
    universe is one axioms-error on the table route (see
    test_an_open_universe_is_reported_on_both_routes)."""
    if mutant == "WidenFibreMap":
        # widened fibre maps are morphisms of fin and op at bound 3 only
        return (base, bound) in {("fin", 3), ("op", 3)}
    return (base, mutant) != ("op", "CorruptFibreMap")


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
        for mutant in AXIOM_MUTANTS
        if _closed(base, bound, mutant)
    ],
)
def test_axioms_table_and_loop_paths_agree(base, bound, mutant, monkeypatch):
    def run():
        make = AXIOM_MUTANTS[mutant]
        inst = BASES[base]() if make is None else make(BASES[base]())
        assert opcat.universe(inst, bound).strays == 0
        return verify_axioms(inst, bound, max_violations=10**6)

    loop = run()
    monkeypatch.setattr(opcat, "_TRIPLE_LOOP_CUTOFF", 0)
    table = run()
    assert not loop.truncated and not table.truncated
    assert loop.by_axiom == table.by_axiom
    assert loop.checks == table.checks
    assert sorted(json.dumps(v, sort_keys=True) for v in loop.violations) == (
        sorted(json.dumps(v, sort_keys=True) for v in table.violations)
    )
    assert loop.ok == (mutant == "clean")


def test_fibre_maps_that_do_not_compose_are_violations(monkeypatch):
    # every fibre map has one point too many in its codomain, so the
    # fibre map of [h over g;f at i] does not compose with the one of
    # [g over f at i]: that pair reads -1 on the table route, as it does
    # on the loop route
    monkeypatch.setattr(opcat, "_TRIPLE_LOOP_CUTOFF", 0)
    rep = verify_axioms(WidenFibreMap(make_fin()), 3, max_violations=10**6)
    assert rep.checks == 149_208
    assert len(rep.violations) == 106_978
    iterated = [
        v for v in rep.violations if v["axiom"] == "iterated-fibre-map"
    ]
    assert len(iterated) == 102_676
    assert all(v["lhs"] is None for v in iterated)


def test_axioms_fail_on_corrupted_fibre():
    rep = verify_axioms(CorruptFibre(make_fin()), 2)
    assert not rep.ok
    tags = {v["axiom"] for v in rep.violations}
    assert "cardinality-fibre-size" in tags
    bad = next(
        v for v in rep.violations if v["axiom"] == "cardinality-fibre-size"
    )
    assert bad["lhs"] == bad["rhs"] + 1


def test_axioms_fail_on_corrupted_fibre_map():
    rep = verify_axioms(CorruptFibreMap(make_fin()), 2)
    assert not rep.ok
    tags = {v["axiom"] for v in rep.violations}
    assert "fibre-map-cardinality" in tags or "terminal-fibre-morphism" in tags


def test_axioms_fail_on_wrong_terminal():
    rep = verify_axioms(WrongTerminal(make_fin()), 2)
    assert not rep.ok
    tags = {v["axiom"] for v in rep.violations}
    assert "terminal-cardinality" in tags
    bad = next(v for v in rep.violations if v["axiom"] == "terminal-cardinality")
    assert bad["witness"]["terminal"] == 2


# check sites of verify_axioms, each keyed by the first tag it reports
SITES = (
    "terminal-cardinality",
    "terminal-not-terminal",
    "identity-fibre-not-terminal",
    "terminal-fibre-object",
    "terminal-fibre-morphism",
    "cardinality-fibre-size",
    "fibre-of-fibre-map",
    "iterated-fibre-map",
)


@pytest.mark.parametrize(
    "factory,bound,counts",
    [
        (make_fin, 3, (4, 16, 6, 4, 60, 4_522, 4_764, 143_876)),
        (make_fin_surj, 3, (3, 9, 6, 3, 17, 229, 285, 1_733)),
    ],
    ids=["fin", "fin-surj"],
)
def test_axiom_checks_per_site(factory, bound, counts):
    rep = verify_axioms(factory(), bound)
    assert rep.ok
    assert rep.by_axiom == dict(zip(SITES, counts))
    assert rep.checks == sum(counts)


MUTANT_VIOLATIONS = {
    CorruptFibre: (572, {
        "identity-fibre-not-terminal": 3,
        "terminal-fibre-object": 3,
        "cardinality-fibre-size": 81,
    }),
    CorruptFibreMap: (560, {
        "terminal-fibre-morphism": 2,
        "fibre-map-cardinality": 6,
        "iterated-fibre-map": 74,
    }),
    WrongTerminal: (572, {
        "terminal-cardinality": 1,
        "terminal-not-terminal": 2,
        "terminal-fibre-object": 1,
        "terminal-fibre-morphism": 7,
    }),
}


@pytest.mark.parametrize(
    "cutoff", [opcat._TRIPLE_LOOP_CUTOFF, 0], ids=["loop", "table"]
)
@pytest.mark.parametrize(
    "mutant", list(MUTANT_VIOLATIONS), ids=lambda m: m.__name__
)
def test_mutant_violations_agree_across_routes(mutant, cutoff, monkeypatch):
    monkeypatch.setattr(opcat, "_TRIPLE_LOOP_CUTOFF", cutoff)
    rep = verify_axioms(mutant(make_fin()), 2, max_violations=10_000)
    checks, tags = MUTANT_VIOLATIONS[mutant]
    assert not rep.truncated
    assert rep.checks == checks
    assert Counter(v["axiom"] for v in rep.violations) == tags


@pytest.mark.parametrize(
    "cutoff", [opcat._TRIPLE_LOOP_CUTOFF, 0], ids=["loop", "table"]
)
def test_iterated_fibre_map_violations_are_all_kept(cutoff, monkeypatch):
    monkeypatch.setattr(opcat, "_TRIPLE_LOOP_CUTOFF", cutoff)
    rep = verify_axioms(CorruptFibreMap(make_fin()), 3, max_violations=10**6)
    tags = Counter(v["axiom"] for v in rep.violations)
    assert tags["iterated-fibre-map"] == 33_876
    assert not rep.truncated
    for cap in (50, 10_000):
        capped = verify_axioms(
            CorruptFibreMap(make_fin()), 3, max_violations=cap
        )
        assert capped.truncated
        assert len(capped.violations) == cap


def test_table_route_caps_in_sweep_order_on_any_thread_count(monkeypatch):
    # the capped list is the head of the uncapped one, and a pool of
    # workers merges its chunks back into that same order
    monkeypatch.setattr(opcat, "_TRIPLE_LOOP_CUTOFF", 0)

    def run(cap, threads):
        monkeypatch.setenv("PITA_THREADS", threads)
        return verify_axioms(CorruptFibreMap(make_fin()), 3, max_violations=cap)

    full = run(10**6, "1")
    assert not full.truncated and len(full.violations) > 50
    capped = run(50, "1")
    assert capped.truncated
    assert capped.violations == full.violations[:50]
    assert run(50, "2").to_json() == capped.to_json()
    assert run(10**6, "2").to_json() == full.to_json()


# the six mutants of the pair sweep's order test below, each a wrapper
# of a base instance
PAIR_MUTANTS = {
    mutant: MiscountSwap if mutant == "MiscountSwap" else MUTANTS[mutant]
    for mutant in (
        "CorruptFibreMap", "WidenFibreMap", "ShrinkComposite",
        "CompositeOutsideHoms", "RemoveHom", "MiscountSwap",
    )
}
# the six on fin at bounds 2 and 3; under fin-2-RemoveHom four fibre maps
# land on the removed [1, 1]
SCREEN_CASES = {
    "fin-3": (make_fin, 3),
    "op-4": (make_op, 4),
    "fin-surj-4": (make_fin_surj, 4),
    **{
        f"fin-{bound}-{mutant}": (lambda make=make: make(make_fin()), bound)
        for bound in (2, 3)
        for mutant, make in PAIR_MUTANTS.items()
    },
}


@pytest.mark.parametrize(
    "make,bound", list(SCREEN_CASES.values()), ids=list(SCREEN_CASES)
)
def test_pair_screen_rechecks_exactly_the_pairs_finskel_rejects(make, bound):
    # the table route passes a pair that its screen lets through without
    # asking finskel, so the screen must send to the per-pair body, in
    # pair order, exactly the pairs with an answer that is -1 or differs
    # by value from finskel's, or with a miscounted fibre of g, f or a
    # fibre map; and count the checks the body makes on all the others
    u = opcat.Universe(make(), bound)
    maps = u.maps

    def counted(k):
        f = maps[k]
        return u.fibres[k] == tuple(
            f.values.count(i) for i in range(1, f.cod + 1)
        )

    rechecked, sizes, fibres = [], 0, 0
    for p, (g, f) in enumerate(zip(u.pair_first, u.pair_second)):
        answers = [(u.composites[p], compose(maps[g], maps[f]))] + [
            (u.fibre_maps[p * bound + i - 1], fibre_map(maps[g], maps[f], i))
            for i in range(1, maps[f].cod + 1)
        ]
        if all(k >= 0 and maps[k] == value for k, value in answers) and all(
            map(counted, [g, f] + [k for k, _ in answers[1:]])
        ):
            sizes += maps[f].cod
            fibres += maps[f].dom
        else:
            rechecked.append(p)
    assert u.table.pairs_to_recheck() == (rechecked, sizes, fibres)


@pytest.mark.parametrize("bound", [2, 3])
@pytest.mark.parametrize("mutant", PAIR_MUTANTS)
def test_pair_sweep_keeps_its_order_on_both_routes(
    mutant, bound, monkeypatch
):
    # the table route rechecks with finskel, in pair order, only the pairs
    # whose answers are -1 or differ from finskel's, or whose fibres are
    # miscounted; small chunks make the rechecked pairs span several.
    # RemoveHom at bound 3 has composites that are -1 because finskel's
    # is the removed map; MiscountSwap miscounts the fibres of one g, f
    # or fibre map
    from pita import _tables

    monkeypatch.setattr(_tables, "_PAIR_CHUNK", 16)
    make = PAIR_MUTANTS[mutant]
    loop_cutoff = opcat._TRIPLE_LOOP_CUTOFF

    def run(cutoff, cap):
        monkeypatch.setattr(opcat, "_TRIPLE_LOOP_CUTOFF", cutoff)
        return verify_axioms(make(make_fin()), bound, max_violations=cap)

    loop, table = run(loop_cutoff, 5), run(0, 5)
    assert loop.truncated and table.truncated
    assert table.violations == loop.violations
    # uncapped, the two routes meet the triples in different orders
    triples = {"iterated-fibre-map", "axioms-error"}
    loop, table = (
        [v for v in rep.violations if v["axiom"] not in triples]
        for rep in (run(loop_cutoff, 10**6), run(0, 10**6))
    )
    assert table == loop


def test_universe_asks_each_fibre_once():
    inst = Counting(make_fin())
    u = opcat.Universe(inst, 3)
    assert sum(map(len, u.fibres)) == 154
    assert inst.calls["fibre"] == 154


def test_minus_one_reads_minus_one_on_the_padded_layout():
    # -1 in either place of a pair, and pair -1, read -1 by plain
    # indexing in the universe's lists and in the table's arrays alike
    import numpy as np

    u = opcat.Universe(make_fin(), 2)
    n, w = u.n, u.bound
    pair_of = {ab: p for p, ab in enumerate(zip(u.pair_first, u.pair_second))}
    corners = [(a, b) for a in (0, n - 1, -1) for b in (0, n - 1, -1)]
    table = u.table
    table.ensure_pita()
    A, B = (np.array(ids) for ids in zip(*corners))
    for values, array in (
        (u.composites, table.CMP), (u.relative_parts, table.ER)
    ):
        at = opcat._by_pair(u.pair_index, n + 1, values)
        expected = []
        for a, b in corners:
            p = pair_of.get((a, b), -1)
            assert u.pair(a, b) == p
            expected.append(values[p] if p >= 0 else -1)
            assert at(a, b) == expected[-1]
        at = opcat._by_pair(table.PIDX, n + 1, array)
        assert at(A, B).tolist() == expected
    assert {u.pair(a, b) for a, b in corners} >= {-1, 0}
    # the fibre maps of pair -1
    assert [u.fibre_maps[-w + i] for i in range(w)] == [-1] * w
    assert table.FMT[:, -1].tolist() == [-1] * w


def test_a_wrapper_never_sees_the_universe_of_its_base():
    base = make_fin()
    assert verify_axioms(base, 2).ok
    assert opcat.universe(base, 2) is opcat.universe(base, 2)
    wrapped = CorruptFibreMap(base)
    assert opcat.universe(wrapped, 2) is not opcat.universe(base, 2)
    assert not verify_axioms(wrapped, 2).ok


ROUTES = pytest.mark.parametrize(
    "cutoff", [opcat._TRIPLE_LOOP_CUTOFF, 0], ids=["loop", "table"]
)


@ROUTES
def test_loop_engine_reports_composites_outside_the_universe(
    cutoff, monkeypatch
):
    monkeypatch.setattr(opcat, "_TRIPLE_LOOP_CUTOFF", cutoff)
    rep = verify_axioms(CompositeOutsideHoms(make_fin()), 2)
    assert not rep.ok
    tags = {v["axiom"] for v in rep.violations}
    assert "cardinality-not-functorial" in tags


@ROUTES
def test_references_outside_the_homs_are_reported_as_finmaps(
    cutoff, monkeypatch
):
    # the finskel side of a witness need not be a morphism of the instance
    monkeypatch.setattr(opcat, "_TRIPLE_LOOP_CUTOFF", cutoff)
    victim = FinMap(2, 1, (1, 1))
    rep = verify_axioms(
        RemoveHom(make_fin(), 2, 1, victim), 2, max_violations=10_000
    )
    found = [
        v for v in rep.violations if v["axiom"] == "fibre-map-cardinality"
    ]
    assert len(found) == 4
    for v in found:
        assert v["lhs"] == "not a morphism"
        assert v["rhs"] == {"dom": 2, "cod": 1, "values": [1, 1]}
    rep = verify_axioms(CompositeOutsideHoms(make_fin()), 2, 10_000)
    assert not rep.truncated
    found = [
        v for v in rep.violations if v["axiom"] == "cardinality-not-functorial"
    ]
    assert len(found) == 47
    for v in found:
        g, f = (finmap_from_json(v["witness"][k]) for k in ("g", "f"))
        assert v["lhs"] == "not a morphism"
        assert v["rhs"] == finmap_to_json(compose(g, f))


def test_bound_three_sweeps_do_not_import_numpy():
    # the bound-3 routes stay pure Python, which keeps numpy's memory out
    # of the default suite
    code = (
        "import sys\n"
        "from pita.factorisation import verify_eta_identities\n"
        "from pita.instances import make_fin\n"
        "from pita.opcat import verify_axioms\n"
        "fin = make_fin()\n"
        "assert verify_axioms(fin, 3).ok\n"
        "assert verify_eta_identities(fin, 3).ok\n"
        "print('numpy' in sys.modules)\n"
    )
    src = str(Path(opcat.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_table_engine_rejects_maps_outside_the_universe(monkeypatch):
    class BadCompose:
        def __init__(self, base):
            self._base = base
            self.name = base.name

        def __getattr__(self, attr):
            return getattr(self._base, attr)

        def compose(self, g, f):
            return FinMap(g.dom, 9, (9,) * g.dom)

    monkeypatch.setattr(opcat, "_TRIPLE_LOOP_CUTOFF", 0)
    rep = verify_axioms(BadCompose(make_fin()), 2)
    errors = [v for v in rep.violations if v["axiom"] == "axioms-error"]
    assert not rep.ok
    assert len(errors) == 1
    assert "outside its own homs" in errors[0]["lhs"]


def test_an_open_universe_is_reported_on_both_routes(monkeypatch):
    # composites still land on the removed [1, 1] in hom(2, 1); the loop
    # route reports the triples that meet it, the table route one error
    # in their place, and both report the same sites before them
    def run(cutoff):
        monkeypatch.setattr(opcat, "_TRIPLE_LOOP_CUTOFF", cutoff)
        broken = RemoveHom(make_fin(), 2, 1, FinMap(2, 1, (1, 1)))
        return verify_axioms(broken, 2, max_violations=10_000).violations

    loop, table = run(opcat._TRIPLE_LOOP_CUTOFF), run(0)
    assert [v for v in table if v["axiom"] != "axioms-error"] == [
        v for v in loop if v["axiom"] != "iterated-fibre-map"
    ]
    assert Counter(v["axiom"] for v in table)["axioms-error"] == 1
    assert Counter(v["axiom"] for v in loop)["iterated-fibre-map"] == 28


# ------------------------------------------- squares stacked and pasted


def _all_squares(inst, bound):
    """Every commuting square (top, bottom, left, right) below the bound."""
    objs = inst.objects(bound)
    maps = [f for X in objs for Y in objs for f in inst.hom(X, Y)]
    by_dom = {}
    for f in maps:
        by_dom.setdefault(f.dom, []).append(f)
    squares = []
    for sigma in maps:
        for f in by_dom.get(sigma.dom, []):
            for tau in by_dom.get(f.cod, []):
                for g in by_dom.get(sigma.cod, []):
                    if g.cod != tau.cod:
                        continue
                    if compose(sigma, g) == compose(f, tau):
                        squares.append((sigma, tau, f, g))
    return squares


def test_fop_stacking_exhaustive_bound_2():
    # vertical stack: if the bottom square and the composite square are
    # fop then so is the top square
    for inst in (make_fin(), make_fin_surj()):
        squares = _all_squares(inst, 2)
        by_top = {}
        for sq in squares:
            by_top.setdefault(sq[0], []).append(sq)
        checked = 0
        for sigma, omega, f, a in squares:
            for omega2, tau, g, b in by_top.get(omega, []):
                if g.dom != f.cod or b.dom != a.cod:
                    continue
                if not is_fop_square(omega, tau, g, b, inst):
                    continue
                if not is_fop_square(
                    sigma, tau, compose(f, g), compose(a, b), inst
                ):
                    continue
                checked += 1
                assert is_fop_square(sigma, omega, f, a, inst)
        assert checked > 0


def _horizontal_pastings(inst, bound):
    squares = _all_squares(inst, bound)
    by_left_vertical = {}
    for sq in squares:
        by_left_vertical.setdefault(sq[2], []).append(sq)
    for sigma, tau, f, g in squares:
        for omega, lam, _, h in by_left_vertical.get(g, []):
            if omega.dom != sigma.cod or lam.dom != tau.cod:
                continue
            yield (sigma, tau, f, g), (omega, lam, h)


def test_fop_pasting_exhaustive_bound_2():
    for inst in (make_fin(), make_fin_surj()):
        seen_1 = seen_2 = 0
        for (sigma, tau, f, g), (omega, lam, h) in _horizontal_pastings(
            inst, 2
        ):
            if not is_fop_square(omega, lam, g, h, inst):
                continue
            comp = is_fop_square(
                compose(sigma, omega), compose(tau, lam), f, h, inst
            )
            left = is_fop_square(sigma, tau, f, g, inst)
            # composite fop and the right top's fibre maps injective
            # forces the left square fop
            inj = all(
                len(set(fibre_map(omega, h, i).values))
                == fibre_map(omega, h, i).dom
                for i in range(1, h.cod + 1)
            )
            if comp and inj:
                seen_1 += 1
                assert left
            # left fop and an injective bottom-right map force the
            # composite fop: each composite fibre map then coincides with
            # a left-square fibre map
            if left and len(set(lam.values)) == lam.dom:
                seen_2 += 1
                assert comp
        assert seen_1 > 0 and seen_2 > 0


def test_fop_pasting_surjective_bottom_is_not_enough():
    # a surjective (non-injective) bottom-right map does not propagate
    # fop from the left square to the composite: the two left fibres are
    # merged by lam and the swap reappears inside a single fibre
    sigma = FinMap(2, 2, (2, 1))
    tau = identity(2)
    f = identity(2)
    g = FinMap(2, 2, (2, 1))
    omega = identity(2)
    lam = FinMap(2, 1, (1, 1))
    h = FinMap(2, 1, (1, 1))
    assert is_fop_square(sigma, tau, f, g, FIN)
    assert is_fop_square(omega, lam, g, h, FIN)
    assert len(set(lam.values)) == lam.cod
    assert not is_fop_square(
        compose(sigma, omega), compose(tau, lam), f, h, FIN
    )


def test_fop_pasting_quasibijective_exhaustive_bound_3():
    # all four horizontals bijective: composite fop iff left fop,
    # given the right square fop
    for inst in (make_fin(), make_fin_surj()):
        objs = inst.objects(3)
        maps = [f for X in objs for Y in objs for f in inst.hom(X, Y)]
        checked = 0
        for f in maps:
            for sigma in enumerate_bijections(f.dom):
                for tau in enumerate_bijections(f.cod):
                    g = compose(inverse(sigma), compose(f, tau))
                    for omega in enumerate_bijections(g.dom):
                        for lam in enumerate_bijections(g.cod):
                            h = compose(inverse(omega), compose(g, lam))
                            if not is_fop_square(omega, lam, g, h, inst):
                                continue
                            comp = is_fop_square(
                                compose(sigma, omega),
                                compose(tau, lam),
                                f,
                                h,
                                inst,
                            )
                            left = is_fop_square(sigma, tau, f, g, inst)
                            checked += 1
                            assert comp == left
        assert checked > 0


@st.composite
def _bijective_stacks(draw, max_card=4):
    g, f = draw(composable_pairs(max_card=max_card))
    perms = lambda n: st.sampled_from(list(enumerate_bijections(n)))
    sigma = draw(perms(g.dom))
    omega = draw(perms(g.cod))
    tau = draw(perms(f.cod))
    a = compose(inverse(sigma), compose(g, omega))
    b = compose(inverse(omega), compose(f, tau))
    return sigma, omega, tau, g, f, a, b


@settings(max_examples=150)
@given(_bijective_stacks())
def test_fop_stacking_sampled_bound_4(stack):
    # g is the upper vertical and f the lower one, with bijective rungs
    sigma, omega, tau, g, f, a, b = stack
    if not is_fop_square(omega, tau, f, b, FIN):
        return
    if not is_fop_square(
        sigma, tau, compose(g, f), compose(a, b), FIN
    ):
        return
    assert is_fop_square(sigma, omega, g, a, FIN)

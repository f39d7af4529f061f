import itertools
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
    WrongTerminal,
)
from pita import opcat
from pita.errors import IntegrityError, ShapeError
from pita.finskel import (
    FinMap,
    compose,
    enumerate_bijections,
    fibre_map,
    identity,
    inverse,
    is_order_preserving,
    pita,
)
from pita.instances import make_fin, make_fin_surj, make_op
from pita.opcat import (
    Report,
    is_fop_square,
    is_op_morphism,
    is_quasibijection,
    quasibijections,
    verify_axioms,
)
from strategies import composable_pairs, finmaps


# ---------------------------------------------------------------- report


def test_report_mechanics():
    rep = Report("demo", max_violations=2)
    assert rep.ok
    rep.checks = 5
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


def test_report_merge():
    a = Report("a")
    a.checks = 3
    b = Report("b")
    b.checks = 4
    b.add("law", {}, 1, 2)
    b.skip("note")
    a.merge(b)
    assert a.checks == 7
    assert len(a.violations) == 1
    assert a.skipped == ["note"]


# ------------------------------------------------------------ predicates


def test_is_quasibijection_plain():
    assert is_quasibijection(FinMap(2, 2, (2, 1)))
    assert not is_quasibijection(FinMap(2, 1, (1, 1)))
    assert not is_quasibijection(FinMap(2, 2, (1, 1)))


def test_is_quasibijection_against_instance():
    fin = make_fin()
    assert is_quasibijection(FinMap(3, 3, (2, 3, 1)), fin)
    assert not is_quasibijection(FinMap(3, 3, (1, 1, 2)), fin)
    op = make_op()
    assert is_quasibijection(identity(3), op)


def test_is_op_morphism():
    assert is_op_morphism(FinMap(3, 2, (1, 1, 2)))
    assert not is_op_morphism(FinMap(2, 2, (2, 1)))
    assert is_op_morphism(FinMap(3, 2, (1, 2, 2)), make_fin())


def test_quasibijections_helper():
    assert len(quasibijections(make_fin(), 2, 2)) == 2
    assert len(quasibijections(make_fin_surj(), 3, 3)) == 6
    assert quasibijections(make_op(), 2, 2) == [identity(2)]
    assert quasibijections(make_fin(), 2, 3) == []


def test_fop_square_requires_commutation():
    with pytest.raises(ShapeError):
        is_fop_square(
            FinMap(2, 2, (2, 1)), identity(2), identity(2), identity(2)
        )
    with pytest.raises(ShapeError):
        is_fop_square(
            identity(2), identity(3), FinMap(2, 3, (1, 2)), identity(3)
        )


def test_fop_square_with_identity_right_vertical():
    # right vertical an identity: all fibres are singletons, always fop
    sigma = FinMap(3, 3, (3, 1, 2))
    assert is_fop_square(sigma, sigma, identity(3), identity(3))


def test_fop_square_over_terminal_detects_op():
    # over the terminal square the top map is its own single fibre map
    to1 = FinMap(3, 1, (1, 1, 1))
    assert is_fop_square(FinMap(3, 3, (1, 2, 3)), identity(1), to1, to1)
    assert not is_fop_square(FinMap(3, 3, (2, 1, 3)), identity(1), to1, to1)


@given(finmaps(max_card=5))
def test_pita_triangle_is_fop(f):
    pi, eta = pita(f)
    assert is_fop_square(pi, identity(f.cod), f, eta)


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


def test_axioms_table_and_loop_paths_agree(monkeypatch):
    loop = verify_axioms(make_fin(), 2)
    monkeypatch.setattr(opcat, "_TRIPLE_LOOP_CUTOFF", 0)
    table = verify_axioms(make_fin(), 2)
    assert loop.ok and table.ok
    assert loop.checks == table.checks


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


def test_a_wrapper_never_sees_the_universe_of_its_base():
    base = make_fin()
    assert verify_axioms(base, 2).ok
    assert opcat.universe(base, 2) is opcat.universe(base, 2)
    wrapped = CorruptFibreMap(base)
    assert opcat.universe(wrapped, 2) is not opcat.universe(base, 2)
    assert not verify_axioms(wrapped, 2).ok


def test_loop_engine_reports_composites_outside_the_universe():
    rep = verify_axioms(CompositeOutsideHoms(make_fin()), 2)
    assert not rep.ok
    tags = {v["axiom"] for v in rep.violations}
    assert "cardinality-not-functorial" in tags


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
            self.finmap_backed = True

        def __getattr__(self, attr):
            return getattr(self._base, attr)

        def compose(self, g, f):
            return FinMap(g.dom, 9, (9,) * g.dom)

    monkeypatch.setattr(opcat, "_TRIPLE_LOOP_CUTOFF", 0)
    with pytest.raises(IntegrityError):
        verify_axioms(BadCompose(make_fin()), 2)


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
    assert is_fop_square(sigma, tau, f, g)
    assert is_fop_square(omega, lam, g, h)
    assert len(set(lam.values)) == lam.cod
    assert not is_fop_square(compose(sigma, omega), compose(tau, lam), f, h)


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
    if not is_fop_square(omega, tau, f, b):
        return
    if not is_fop_square(sigma, tau, compose(g, f), compose(a, b)):
        return
    assert is_fop_square(sigma, omega, g, a)

"""The acceptance gate: one test per advertised guarantee, each printing
its own pass/fail line and holding the stated time budget.  Everything
here is exact integer arithmetic on exhaustively enumerated data; there
are no tolerances to tune."""

import time

from helpers import CorruptFibre, CorruptFibreMap, WrongTerminal

from pita.decomp import (
    FactorisationGroupoid,
    comult,
    comult_closed_form,
    comult_composition_form,
    verify_decomposition_fibres,
)
from pita.factorisation import verify_eta_identities
from pita.finskel import (
    FinMap,
    compose,
    enumerate_bijections,
    enumerate_maps,
    fibre_map,
    identity,
    inverse,
    is_bijective,
    is_order_preserving,
    pita,
)
from pita.instances import make_fin, make_fin_surj
from pita.nerve import (
    verify_beta_coherence,
    verify_opfibration,
    verify_strict_identities,
)
from pita.opcat import verify_axioms

FIN = make_fin()
SURJ = make_fin_surj()


class _Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, kind, value, tb):
        elapsed = time.monotonic() - self.start
        state = "FAIL" if kind else "pass"
        print(f"{self.name}: {state} ({elapsed:.2f} s)")
        if kind is None and self.seconds is not None:
            assert elapsed < self.seconds, (
                f"{self.name} took {elapsed:.2f} s, budget {self.seconds} s"
            )


def _fold(n):
    return FinMap(n, 1, (1,) * n)


def test_criterion_1_comultiplication_tables():
    with _Budget("criterion 1 (comultiplication tables)", 5.0):
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
        for n in range(1, 8):
            assert comult(SURJ, _fold(n)) == comult_closed_form(n), n


def test_criterion_2_factorisation_example_and_uniqueness():
    with _Budget("criterion 2 (factorisation uniqueness)", 10.0):
        f = FinMap(7, 4, (3, 2, 1, 1, 4, 2, 3))
        p, e = pita(f)
        assert p.values == (5, 3, 1, 2, 7, 4, 6)
        assert e.values == (1, 1, 2, 2, 3, 3, 4)

        # every map below the bound splits in exactly one way as a
        # bijection followed by an order-preserving map with all the
        # triangle fibre maps order-preserving, and that way is pita
        for m in range(0, 6):
            bijections = list(enumerate_bijections(m))
            for n in range(1, 6):
                for f in enumerate_maps(m, n):
                    found = []
                    for q in bijections:
                        e = compose(inverse(q), f)
                        if not is_order_preserving(e):
                            continue
                        if all(
                            is_order_preserving(fibre_map(q, e, i))
                            for i in range(1, e.cod + 1)
                        ):
                            found.append((q, e))
                    assert found == [pita(f)], f


# checks per site of verify_axioms at bound 4, in the order the sites
# run: terminal-cardinality, terminal-not-terminal,
# identity-fibre-not-terminal, terminal-fibre-object,
# terminal-fibre-morphism, cardinality-fibre-size, fibre-of-fibre-map,
# iterated-fibre-map
AXIOM_CHECKS_B4 = {
    "fin": (5, 25, 10, 5, 499, 489_394, 521_066, 145_062_142),
    "fin-surj": (4, 16, 10, 4, 92, 7_008, 8_974, 220_208),
}


def test_criterion_3_axioms_pass_and_mutants_fail():
    with _Budget("criterion 3 (axioms and mutants)", 30.0):
        for inst, total in ((FIN, 146_073_146), (SURJ, 236_316)):
            rep = verify_axioms(inst, 4)
            assert rep.ok, (inst.name, rep.violations[:2])
            assert rep.checks == total, inst.name
            counts = AXIOM_CHECKS_B4[inst.name]
            assert list(rep.by_axiom.values()) == list(counts), inst.name
        for mutant in (CorruptFibre, CorruptFibreMap, WrongTerminal):
            rep = verify_axioms(mutant(make_fin()), 2)
            assert not rep.ok, mutant.__name__
            assert rep.violations[0]["witness"], mutant.__name__


def test_criterion_4_splitting_calculus():
    with _Budget("criterion 4 (splitting calculus)", None):
        for inst, total in ((FIN, 38_086_074), (SURJ, 76_707)):
            rep = verify_eta_identities(inst, 4)
            assert rep.ok, (inst.name, rep.violations[:2])
            assert rep.checks == total, inst.name
            assert not any(
                v["axiom"] == "unit-square-not-fop" for v in rep.violations
            )


def test_criterion_5_simplicial_and_coherence():
    with _Budget("criterion 5 (simplicial identities, coherence)", 60.0):
        rep = verify_strict_identities(SURJ, 3, 4)
        assert rep.ok, rep.violations[:2]
        rep = verify_beta_coherence(SURJ, 3)
        assert rep.ok, rep.violations[:2]


def test_criterion_6_unique_lifts():
    with _Budget("criterion 6 (unique lifts)", None):
        for n in range(3):
            rep = verify_opfibration(SURJ, n, 3)
            assert rep.ok, (n, rep.violations[:2])


def test_criterion_7_fibre_equivalences():
    with _Budget("criterion 7 (fibre equivalences)", None):
        counts = {1: 1, 2: 3, 3: 13, 4: 75}
        for m in range(1, 5):
            g = FactorisationGroupoid(SURJ, _fold(m), identity(1))
            for y in g.c2_objects:
                assert g.forward(g.backward(y)) == y
            for x in g.c1_objects:
                unit = g.unit_at(x)
                assert unit == pita(x[1])[0]
                assert is_bijective(unit)
                assert g.is_c1_morphism(unit, x, g.backward(g.forward(x)))
            classes = g.c1_iso_classes()
            assert len(classes) == len(g.c2_objects) == counts[m]
        rep = verify_decomposition_fibres(SURJ, 4)
        assert rep.ok, rep.violations[:2]


def test_criterion_8_negative_witnesses():
    with _Budget("criterion 8 (negative witnesses)", None):
        f = FinMap(2, 2, (2, 1))
        g = FinMap(2, 1, (1, 1))
        pi_fg, _ = pita(compose(f, g))
        pi_f, eta_f = pita(f)
        pi_g, _ = pita(g)
        pi_mid, _ = pita(compose(eta_f, pi_g))
        assert pi_fg != compose(pi_f, pi_mid)

        incidence = comult_closed_form(2)
        classical = comult_composition_form(2)
        assert incidence != classical
        assert incidence.terms[((1, 1), (2,))] == 2
        assert classical.terms[((1, 1), (2,))] == 1

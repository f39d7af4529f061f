"""Every sweep's outcome on small bounds, pinned: on each base instance,
clean and under each mutant of helpers.py, the check count, the checks
per site and a digest of the violations (sorted, so the order a sweep
meets them in is free), or the error the sweep raises. A refactor that
keeps these pins keeps every report those sweeps make.

The pins live in differential_pins.json next to this file. To rewrite
the named pins from the code as it stands, which is only right when a
change is meant to alter those sweeps' outcomes, run

    PYTHONPATH=src python tests/test_differential.py fin/clean/beta ...

It prints each named pin as old -> new. With no case named it rewrites
every pin and prints the cases that moved. To see which pins a change
moves before rewriting any, run the pin test, which names each moved
case with its old and new outcome and writes nothing:

    PYTHONPATH=src pytest tests/test_differential.py -k test_sweep_keeps_its_pin
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from helpers import (
    CompositeOutsideHoms,
    CorruptFibre,
    CorruptFibreMap,
    RemoveHom,
    ShrinkComposite,
    WidenFibreMap,
    WrongTerminal,
)
from pita.decomp import verify_decomposition_fibres
from pita.factorisation import verify_eta_identities
from pita.finskel import FinMap
from pita.instances import make_fin, make_fin_surj, make_op
from pita.nerve import (
    verify_beta_coherence,
    verify_opfibration,
    verify_strict_identities,
)
from pita.opcat import verify_axioms

PINS = Path(__file__).with_name("differential_pins.json")
EVERY = 10**6

BASES = {"fin": make_fin, "fin-surj": make_fin_surj, "op": make_op}
MUTANTS = {
    "clean": None,
    "CorruptFibre": CorruptFibre,
    "CorruptFibreMap": CorruptFibreMap,
    "WrongTerminal": WrongTerminal,
    "CompositeOutsideHoms": CompositeOutsideHoms,
    "RemoveHom": lambda base: RemoveHom(base, 2, 1, FinMap(2, 1, (1, 1))),
    "WidenFibreMap": WidenFibreMap,
    "ShrinkComposite": ShrinkComposite,
}
SWEEPS = {
    "axioms": lambda inst: verify_axioms(inst, 2, EVERY),
    "splitting": lambda inst: verify_eta_identities(inst, 2, EVERY),
    "strict": lambda inst: verify_strict_identities(inst, 2, 3, EVERY),
    "beta": lambda inst: verify_beta_coherence(inst, 2, 3, EVERY),
    "beta4": lambda inst: verify_beta_coherence(inst, 2, 4, EVERY),
    "opfibration": lambda inst: verify_opfibration(inst, 2, 2, EVERY),
}


def _fibres(inst):
    # the mutants carry a suffixed name that the sweep would refuse
    inst.name = "fin-surj"
    return verify_decomposition_fibres(inst, 3, EVERY)


CASES = {
    f"{base}/{mutant}/{sweep}": (BASES[base], MUTANTS[mutant], run)
    for base in BASES
    for mutant in MUTANTS
    for sweep, run in SWEEPS.items()
}
for _mutant in (
    "CorruptFibre", "CorruptFibreMap", "CompositeOutsideHoms", "RemoveHom",
    "ShrinkComposite", "WidenFibreMap", "WrongTerminal",
):
    CASES[f"fin-surj/{_mutant}/fibres"] = (
        make_fin_surj, MUTANTS[_mutant], _fibres,
    )


# beta at bound 3 as well: every horizontal at bound 2 permutes at most two
# points, and those commute, so no bound-2 pin tells the order in which
# two ladders compose
for _mutant in MUTANTS:
    CASES[f"fin-surj/{_mutant}/beta3"] = (
        make_fin_surj, MUTANTS[_mutant],
        lambda inst: verify_beta_coherence(inst, 3, 4, EVERY),
    )


def outcome(case: str) -> dict:
    factory, mutant, run = CASES[case]
    inst = factory() if mutant is None else mutant(factory())
    try:
        rep = run(inst)
    except Exception as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    violations = sorted(json.dumps(v, sort_keys=True) for v in rep.violations)
    return {
        "checks": rep.checks,
        "by_axiom": dict(sorted(rep.by_axiom.items())),
        "violations": len(violations),
        "sha256": hashlib.sha256(
            json.dumps(violations).encode()
        ).hexdigest(),
    }


def test_every_case_is_pinned():
    assert sorted(json.loads(PINS.read_text())) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_sweep_keeps_its_pin(case):
    assert outcome(case) == json.loads(PINS.read_text())[case]


if __name__ == "__main__":
    named = sys.argv[1:]
    unknown = sorted(set(named) - set(CASES))
    if unknown:
        sys.exit(f"no such case: {', '.join(unknown)}")
    old = json.loads(PINS.read_text())
    pins = {case: old[case] for case in CASES if case in old}
    for case in named or sorted(CASES):
        pins[case] = outcome(case)
        if named:
            before, after = (
                json.dumps(pin, sort_keys=True)
                for pin in (old.get(case), pins[case])
            )
            print(f"{case}: {before} -> {after}")
        elif pins[case] != old.get(case):
            print(f"moved: {case}")
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")

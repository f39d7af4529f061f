#!/usr/bin/env python3
"""Print the incidence comultiplication table for the connected classes
and compare it against the closed form and the classical composition
coefficients.

    python3 scripts/coalg_table.py --max-n 6
    python3 scripts/coalg_table.py --max-n 4 --defect

With --defect the script also expands both iterated coproducts of each
Delta(A_n) multiplicatively and prints the slots where the set-level
weights break coassociativity, which they do from n = 2 on; the k!-free
composition table is printed alongside as the control that stays
coassociative.
"""

import argparse

from pita.decomp import (
    comult,
    comult_closed_form,
    comult_composition_form,
    verify_coassociativity,
)
from pita.finskel import fold
from pita.instances import make_fin_surj


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=6)
    parser.add_argument(
        "--defect",
        action="store_true",
        help="show where the set-level weights break coassociativity",
    )
    args = parser.parse_args(argv)
    if args.max_n < 1:
        parser.error("--max-n must be at least 1")

    inst = make_fin_surj()
    for n in range(1, args.max_n + 1):
        direct = comult(inst, fold(n))
        closed = comult_closed_form(n)
        tag = "ok" if direct == closed else "MISMATCH"
        print(f"Delta(A_{n}) = {direct.text()}   [closed form {tag}]")
        classical = comult_composition_form(n)
        if classical != direct:
            print(f"   classical: {classical.text()}")

    if args.defect:
        print()
        for table in ("incidence", "composition"):
            rep = verify_coassociativity(
                inst, args.max_n, table=table, max_violations=3
            )
            print(rep.summary())
            for violation in rep.violations:
                witness = violation["witness"]
                slots = witness.get("differing_slots", [])
                print(f"   f={witness['f']['values']} slots={slots}")
                print(f"   lhs {violation['lhs']}")
                print(f"   rhs {violation['rhs']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

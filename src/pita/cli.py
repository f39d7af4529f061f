"""Command-line front end.

One console script, ``pita``, with a subcommand per suite::

    pita factor --instance fin --map '[3,2,1,1,4,2,3]' --cod 4
    pita axioms --instance fin-surj --bound 3
    pita nerve  --check beta --bound 3
    pita coalg  --n 4
    pita decomp --bound 3
    pita all

``factor`` and ``coalg`` are calculators and take no ``--bound``; the
rest run enumeration sweeps and print one report line per suite as it
finishes, followed by a machine-parseable ``result`` line.  Exit code 0
means every requested check passed, 1 means some check failed
(witnesses are printed) or stdout closed before the verdict, 2 is a
usage error caught before any work starts.  ``--json`` switches the
output to a single JSON document with deterministic key and term
ordering, so repeated runs are byte-identical.  PITA_THREADS is the one
thread setting: it caps the worker threads of the numpy triple sweeps
that ``axioms`` runs above 300,000 composable triples (fin, bound 4).
Unset, it is the number of CPUs the process may run on; 1 runs them
serially, and the output is the same either way.  Set to anything but a
positive integer it is a usage error.
``--timings`` on a sweep writes to stderr the effective PITA_THREADS
once, then a line per report with its title, the seconds it took and its
checks by axiom; stdout is the same with and without it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .decomp import (
    comult,
    comult_closed_form,
    comult_composition_form,
    verify_bialgebra,
    verify_counit,
    verify_decomposition_fibres,
)
from .errors import PitaError, UnsupportedInstanceError
from .factorisation import pita_general, verify_eta_identities
from .finskel import FinMap, compose, finmap_to_json, fold, pita
from .instances import make_fin_surj, make_instance
from .nerve import (
    verify_beta_coherence,
    verify_opfibration,
    verify_strict_identities,
)
from .opcat import Report, default_threads, verify_axioms


def _natural(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _add_common(sub, instance=None, sweep=True, maxlen=False):
    """--instance when it has a default, --bound on the sweeps (the
    calculators take none), --maxlen, and --json."""
    if instance:
        sub.add_argument(
            "--instance", choices=("fin", "fin-surj", "op"), default=instance
        )
    if sweep:
        sub.add_argument("--bound", type=_natural, default=3)
        sub.add_argument(
            "--timings", action="store_true",
            help="write each report's seconds and checks by axiom, and "
            "PITA_THREADS, to stderr",
        )
    if maxlen:
        sub.add_argument(
            "--maxlen", type=_natural, default=4,
            help="longest chain of the strict sweep; beta coherence runs "
            "levels m <= maxlen - 3 (level 0 always)",
        )
    sub.add_argument("--json", action="store_true")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pita",
        description="exact factorisation and verification toolkit",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    factor = subs.add_parser("factor", help="split one map")
    factor.add_argument("--map", required=True, metavar="JSON_LIST")
    factor.add_argument("--cod", type=_natural, required=True)
    _add_common(factor, "fin", sweep=False)
    factor.add_argument(
        "--mode", choices=("production", "oracle"), default="production",
        help="split the map by the closed formula or by brute-force search",
    )

    axioms = subs.add_parser(
        "axioms", help="category axioms and the splitting calculus"
    )
    _add_common(axioms, "fin")

    nerve = subs.add_parser("nerve", help="simplicial and coherence sweeps")
    nerve.add_argument(
        "--check",
        choices=("strict", "beta", "opfib", "all"),
        default="all",
    )
    _add_common(nerve, "fin-surj", maxlen=True)

    coalg = subs.add_parser("coalg", help="print one comultiplication")
    coalg.add_argument("--n", type=_natural, required=True)
    _add_common(coalg, "fin-surj", sweep=False)

    decomp = subs.add_parser("decomp", help="fibre and coalgebra sweeps")
    _add_common(decomp, "fin-surj")

    everything = subs.add_parser("all", help="the full default suite")
    _add_common(everything, maxlen=True)

    return parser


# ------------------------------------------------------------ rendering


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _emit_report(rep: Report, args, out) -> None:
    if not args.json:
        print(rep.summary(), file=out)
        for violation in rep.violations[:5]:
            print("  " + json.dumps(violation, sort_keys=True), file=out)
        out.flush()


def _finish(reports: list[Report], args, out) -> int:
    ok = all(rep.ok for rep in reports)
    checks = sum(rep.checks for rep in reports)
    violations = sum(len(rep.violations) for rep in reports)
    if args.json:
        doc = {
            "ok": ok,
            "checks": checks,
            "reports": [rep.to_json() for rep in reports],
        }
        print(_dumps(doc), file=out)
    else:
        print(
            f"result ok={str(ok).lower()} reports={len(reports)} "
            f"checks={checks} violations={violations}",
            file=out,
        )
    return 0 if ok else 1


# ------------------------------------------------------------ subcommands


def _run_factor(args, out) -> int:
    try:
        values = json.loads(args.map)
    except json.JSONDecodeError as exc:
        print(f"pita factor: --map is not valid JSON: {exc}", file=sys.stderr)
        return 2
    # JSON true and false parse to bools, which are ints to isinstance
    if not isinstance(values, list) or not all(
        isinstance(v, int) and not isinstance(v, bool) for v in values
    ):
        print("pita factor: --map must be a JSON list of integers",
              file=sys.stderr)
        return 2
    try:
        f = FinMap(len(values), args.cod, tuple(values))
    except ValueError as exc:
        print(f"pita factor: --map is not a map to {args.cod}: {exc}",
              file=sys.stderr)
        return 2
    inst = make_instance(args.instance)
    if not inst.is_morphism(f):
        print(f"pita factor: {f} is not a morphism of {args.instance}",
              file=sys.stderr)
        return 2
    split = pita_general(inst, f, mode=args.mode)
    if args.json:
        doc = {
            "f": finmap_to_json(f),
            "pi": finmap_to_json(split.pi),
            "eta": finmap_to_json(split.eta),
        }
        print(_dumps(doc), file=out)
    else:
        pi = ",".join(map(str, split.pi.values))
        eta = ",".join(map(str, split.eta.values))
        print(f"pi=[{pi}], eta=[{eta}]", file=out)
    return 0


def _run_coalg(args, out) -> int:
    inst = make_instance(args.instance)
    element = comult(inst, fold(args.n))
    if args.json:
        print(_dumps(element.to_json()), file=out)
    else:
        print(element.text(), file=out)
    return 0


def _axioms_reports(name: str, bound: int):
    inst = make_instance(name)
    yield verify_axioms(inst, bound)
    yield verify_eta_identities(inst, bound)


def _nerve_reports(name: str, bound: int, maxlen: int, check: str):
    inst = make_instance(name)
    if check in ("strict", "all"):
        yield verify_strict_identities(inst, bound, maxlen)
    if check in ("beta", "all"):
        yield verify_beta_coherence(inst, bound, maxlen)
    if check in ("opfib", "all"):
        for n in range(3):
            yield verify_opfibration(inst, n, bound)


def _decomp_reports(name: str, bound: int):
    inst = make_instance(name)
    yield verify_decomposition_fibres(inst, bound)
    yield verify_bialgebra(inst, bound)
    yield verify_counit(inst, bound)


def _closed_form_report(max_n: int) -> Report:
    rep = Report(f"comultiplication-closed-form[n<={max_n}]")
    inst = make_fin_surj()
    for n in range(1, max_n + 1):
        rep.count("closed-form")
        direct = comult(inst, fold(n))
        closed = comult_closed_form(n)
        if direct != closed:
            rep.add(
                "closed-form",
                {"n": n},
                str(direct.sorted_terms()),
                str(closed.sorted_terms()),
            )
    return rep


def _witness_report() -> Report:
    """The two inequalities the toolkit is expected to exhibit: the
    quasibijection part is not functorial on its own, and the incidence
    coefficients differ from the classical composition coefficients."""
    rep = Report("negative-witnesses")
    f = FinMap(2, 2, (2, 1))
    g = FinMap(2, 1, (1, 1))
    pi_fg, _ = pita(compose(f, g))
    pi_f, eta_f = pita(f)
    pi_g, _ = pita(g)
    pi_mid, _ = pita(compose(eta_f, pi_g))
    rep.count("quasibijection-part-unexpectedly-lawful")
    if pi_fg == compose(pi_f, pi_mid):
        rep.add(
            "quasibijection-part-unexpectedly-lawful",
            {"f": finmap_to_json(f), "g": finmap_to_json(g)},
            str(pi_fg.values),
            str(compose(pi_f, pi_mid).values),
        )
    rep.count("tables-unexpectedly-equal")
    if comult_closed_form(2) == comult_composition_form(2):
        rep.add(
            "tables-unexpectedly-equal",
            {"n": 2},
            str(comult_closed_form(2).sorted_terms()),
            str(comult_composition_form(2).sorted_terms()),
        )
    return rep


def _introduction_report() -> Report:
    rep = Report("factorisation-example")
    f = FinMap(7, 4, (3, 2, 1, 1, 4, 2, 3))
    split = pita_general(make_instance("fin"), f)
    rep.count("worked-example")
    expected_pi = (5, 3, 1, 2, 7, 4, 6)
    expected_eta = (1, 1, 2, 2, 3, 3, 4)
    if split.pi.values != expected_pi or split.eta.values != expected_eta:
        rep.add(
            "worked-example",
            {"f": finmap_to_json(f)},
            str((split.pi.values, split.eta.values)),
            str((expected_pi, expected_eta)),
        )
    return rep


def _emit_timing(rep: Report, seconds: float) -> None:
    by_axiom = json.dumps(dict(sorted(rep.by_axiom.items())))
    print(f"timings: {rep.title} {seconds:.3f} s {by_axiom}", file=sys.stderr)


def _run_sweep(report_iter, args, out) -> int:
    if args.timings:
        print(f"timings: PITA_THREADS={default_threads()}", file=sys.stderr)
    reports = []
    started = time.perf_counter()
    for rep in report_iter:
        if args.timings:
            _emit_timing(rep, time.perf_counter() - started)
        reports.append(rep)
        _emit_report(rep, args, out)
        started = time.perf_counter()
    return _finish(reports, args, out)


def _all_reports(bound: int, maxlen: int):
    yield _introduction_report()
    for name in ("fin", "fin-surj"):
        yield from _axioms_reports(name, bound)
    yield from _nerve_reports("fin-surj", bound, maxlen, "all")
    yield from _decomp_reports("fin-surj", bound)
    yield _closed_form_report(6)
    yield _witness_report()


# ------------------------------------------------------------ entry point


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        default_threads()
    except ValueError as exc:
        print(f"pita: {exc}", file=sys.stderr)
        return 2

    out = sys.stdout
    try:
        if args.subcommand == "factor":
            code = _run_factor(args, out)
        elif args.subcommand == "coalg":
            code = _run_coalg(args, out)
        elif args.subcommand == "axioms":
            reports = _axioms_reports(args.instance, args.bound)
            code = _run_sweep(reports, args, out)
        elif args.subcommand == "nerve":
            reports = _nerve_reports(
                args.instance, args.bound, args.maxlen, args.check
            )
            code = _run_sweep(reports, args, out)
        elif args.subcommand == "decomp":
            reports = _decomp_reports(args.instance, args.bound)
            code = _run_sweep(reports, args, out)
        else:
            reports = _all_reports(args.bound, args.maxlen)
            code = _run_sweep(reports, args, out)
        out.flush()
        return code
    except PitaError as exc:
        print(f"pita: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UnsupportedInstanceError) else 1
    except BrokenPipeError:
        # the reader is gone; point stdout at devnull to quiet the exit flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())

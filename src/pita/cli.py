"""Command-line front end.

One console script, ``pita``, with a subcommand per suite::

    pita factor --instance fin --map '[3,2,1,1,4,2,3]' --cod 4
    pita axioms --instance fin-surj --bound 3
    pita nerve  --check beta --bound 3
    pita coalg  --n 4
    pita decomp --bound 3
    pita all

``factor`` and ``coalg`` are calculators; the rest run enumeration
sweeps and print one report line per suite as it finishes, followed by
a machine-parseable ``result`` line.  Exit code 0 means every requested
check passed, 1 means some check failed (witnesses are printed), 2 is a
usage error caught before any work starts.  ``--json`` switches the
output to a single JSON document with deterministic key and term
ordering, so repeated runs are byte-identical.  The env var
PITA_THREADS caps worker threads in the axiom sweeps.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .decomp import (
    comult,
    comult_closed_form,
    comult_composition_form,
    verify_bialgebra,
    verify_counit,
    verify_decomposition_fibres,
)
from .errors import PitaError, ShapeError, UnsupportedInstanceError
from .factorisation import pita_general, verify_eta_identities
from .finskel import FinMap, compose, finmap_to_json, pita
from .instances import make_fin_surj, make_instance
from .nerve import (
    verify_beta_coherence,
    verify_opfibration,
    verify_strict_identities,
)
from .opcat import Report, verify_axioms

SUBCOMMANDS = ("factor", "axioms", "nerve", "coalg", "decomp", "all")
INSTANCES = ("fin", "fin-surj", "op")
MAXLEN_HELP = (
    "longest chain of the strict sweep; beta coherence runs levels "
    "m <= maxlen - 3 (level 0 always)"
)


@dataclass(frozen=True)
class RunConfig:
    """Validated invocation: what to run, where, and how far."""

    instance: str
    subcommand: str
    bound: int = 3
    maxlen: int = 4
    mode: str = "production"
    output: str = "text"

    def __post_init__(self):
        if self.subcommand not in SUBCOMMANDS:
            raise ShapeError(f"unknown subcommand {self.subcommand!r}")
        if self.instance not in INSTANCES:
            raise ShapeError(f"unknown instance {self.instance!r}")
        if self.bound < 1:
            raise ShapeError("bound must be at least 1")
        if self.maxlen < 1:
            raise ShapeError("maxlen must be at least 1")
        if self.mode not in ("production", "oracle"):
            raise ShapeError(f"unknown mode {self.mode!r}")
        if self.output not in ("text", "json"):
            raise ShapeError(f"unknown output {self.output!r}")


def _natural(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _add_common(sub, instance_default: str, with_maxlen: bool = False):
    sub.add_argument(
        "--instance", choices=INSTANCES, default=instance_default
    )
    sub.add_argument("--bound", type=_natural, default=3)
    if with_maxlen:
        sub.add_argument(
            "--maxlen", type=_natural, default=4, help=MAXLEN_HELP
        )
    sub.add_argument("--json", action="store_true")


def _add_mode(sub):
    """The splitting route of the map that factor splits, or of the
    worked example that all starts with."""
    sub.add_argument(
        "--mode", choices=("production", "oracle"), default="production"
    )


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pita",
        description="exact factorisation and verification toolkit",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    factor = subs.add_parser("factor", help="split one map")
    factor.add_argument("--map", required=True, metavar="JSON_LIST")
    factor.add_argument("--cod", type=_natural, required=True)
    _add_common(factor, "fin")
    _add_mode(factor)

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
    _add_common(nerve, "fin-surj", with_maxlen=True)

    coalg = subs.add_parser("coalg", help="print one comultiplication")
    coalg.add_argument("--n", type=_natural, required=True)
    _add_common(coalg, "fin-surj")

    decomp = subs.add_parser("decomp", help="fibre and coalgebra sweeps")
    _add_common(decomp, "fin-surj")

    everything = subs.add_parser("all", help="the full default suite")
    everything.add_argument("--bound", type=_natural, default=3)
    everything.add_argument(
        "--maxlen", type=_natural, default=4, help=MAXLEN_HELP
    )
    _add_mode(everything)
    everything.add_argument("--json", action="store_true")

    return parser


# ------------------------------------------------------------ rendering


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _label_text(label) -> str:
    if not label:
        return "1"
    return ".".join(f"A{part}" for part in label)


def _coalg_text(element) -> str:
    pieces = [
        f"{coeff} {_label_text(left)} (x) {_label_text(right)}"
        for (left, right), coeff in element.sorted_terms()
    ]
    return " + ".join(pieces) if pieces else "0"


def _emit_report(rep: Report, cfg: RunConfig, out) -> None:
    if cfg.output == "text":
        print(rep.summary(), file=out)
        for violation in rep.violations[:5]:
            print("  " + json.dumps(violation, sort_keys=True), file=out)
        out.flush()


def _finish(reports: list[Report], cfg: RunConfig, out) -> int:
    ok = all(rep.ok for rep in reports)
    checks = sum(rep.checks for rep in reports)
    violations = sum(len(rep.violations) for rep in reports)
    if cfg.output == "json":
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


def _run_factor(args, cfg: RunConfig, out) -> int:
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
    inst = make_instance(cfg.instance)
    if not inst.is_morphism(f):
        print(f"pita factor: {f} is not a morphism of {cfg.instance}",
              file=sys.stderr)
        return 2
    split = pita_general(inst, f, mode=cfg.mode)
    if cfg.output == "json":
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


def _run_coalg(args, cfg: RunConfig, out) -> int:
    inst = make_instance(cfg.instance)
    element = comult(
        inst, FinMap(args.n, 1, (1,) * args.n)
    )
    if cfg.output == "json":
        print(_dumps(element.to_json()), file=out)
    else:
        print(_coalg_text(element), file=out)
    return 0


def _axioms_reports(cfg: RunConfig):
    inst = make_instance(cfg.instance)
    yield verify_axioms(inst, cfg.bound)
    yield verify_eta_identities(inst, cfg.bound)


def _nerve_reports(cfg: RunConfig, check: str):
    inst = make_instance(cfg.instance)
    if check in ("strict", "all"):
        yield verify_strict_identities(inst, cfg.bound, cfg.maxlen)
    if check in ("beta", "all"):
        yield verify_beta_coherence(inst, cfg.bound, cfg.maxlen)
    if check in ("opfib", "all"):
        for n in range(3):
            yield verify_opfibration(inst, n, cfg.bound)


def _decomp_reports(cfg: RunConfig):
    inst = make_instance(cfg.instance)
    yield verify_decomposition_fibres(inst, cfg.bound)
    yield verify_bialgebra(inst, cfg.bound)
    yield verify_counit(inst, cfg.bound)


def _closed_form_report(max_n: int) -> Report:
    rep = Report(f"comultiplication-closed-form[n<={max_n}]")
    inst = make_fin_surj()
    for n in range(1, max_n + 1):
        rep.checks += 1
        direct = comult(inst, FinMap(n, 1, (1,) * n))
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
    rep.checks += 1
    if pi_fg == compose(pi_f, pi_mid):
        rep.add(
            "quasibijection-part-unexpectedly-lawful",
            {"f": finmap_to_json(f), "g": finmap_to_json(g)},
            str(pi_fg.values),
            str(compose(pi_f, pi_mid).values),
        )
    rep.checks += 1
    if comult_closed_form(2) == comult_composition_form(2):
        rep.add(
            "tables-unexpectedly-equal",
            {"n": 2},
            str(comult_closed_form(2).sorted_terms()),
            str(comult_composition_form(2).sorted_terms()),
        )
    return rep


def _introduction_report(mode: str) -> Report:
    rep = Report("factorisation-example")
    f = FinMap(7, 4, (3, 2, 1, 1, 4, 2, 3))
    split = pita_general(make_instance("fin"), f, mode=mode)
    rep.checks += 1
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


def _run_sweep(report_iter, cfg: RunConfig, out) -> int:
    reports = []
    for rep in report_iter:
        reports.append(rep)
        _emit_report(rep, cfg, out)
    return _finish(reports, cfg, out)


def _all_reports(cfg: RunConfig):
    yield _introduction_report(cfg.mode)
    for name in ("fin", "fin-surj"):
        sub = RunConfig(name, "axioms", cfg.bound, cfg.maxlen,
                        cfg.mode, cfg.output)
        yield from _axioms_reports(sub)
    nerve_cfg = RunConfig("fin-surj", "nerve", cfg.bound, cfg.maxlen,
                          cfg.mode, cfg.output)
    yield from _nerve_reports(nerve_cfg, "all")
    decomp_cfg = RunConfig("fin-surj", "decomp", cfg.bound, cfg.maxlen,
                           cfg.mode, cfg.output)
    yield from _decomp_reports(decomp_cfg)
    yield _closed_form_report(6)
    yield _witness_report()


# ------------------------------------------------------------ entry point


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    output = "json" if getattr(args, "json", False) else "text"
    try:
        cfg = RunConfig(
            instance=getattr(args, "instance", "fin-surj"),
            subcommand=args.subcommand,
            bound=getattr(args, "bound", 3),
            maxlen=getattr(args, "maxlen", 4),
            mode=getattr(args, "mode", "production"),
            output=output,
        )
    except ShapeError as exc:
        print(f"pita: {exc}", file=sys.stderr)
        return 2

    out = sys.stdout
    try:
        if args.subcommand == "factor":
            return _run_factor(args, cfg, out)
        if args.subcommand == "coalg":
            return _run_coalg(args, cfg, out)
        if args.subcommand == "axioms":
            return _run_sweep(_axioms_reports(cfg), cfg, out)
        if args.subcommand == "nerve":
            return _run_sweep(_nerve_reports(cfg, args.check), cfg, out)
        if args.subcommand == "decomp":
            return _run_sweep(_decomp_reports(cfg), cfg, out)
        return _run_sweep(_all_reports(cfg), cfg, out)
    except UnsupportedInstanceError as exc:
        print(f"pita: {exc}", file=sys.stderr)
        return 2
    except PitaError as exc:
        print(f"pita: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

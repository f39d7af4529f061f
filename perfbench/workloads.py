"""The four workloads, their pinned answers and the independent check.

Each workload runs one sample in the calling process: the worker imports
the program and builds ``instance``, then ``run`` makes the calls and
returns the sample's wall time and one entry per gated operation (a
report, a closed-form equality or a factorised pair) with its latency
and verdict. Verdicts compare against values pinned at the seed commit;
nothing failing is skipped. ``op_latency`` says whether latency
percentiles are taken over those operations (the factor stream) or over
whole samples (the sweeps, where the user waits for the whole verdict).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from time import perf_counter

# ------------------------------------------------------------ pinned values

SUITE_ARGV = ["all", "--json"]
SUITE_SHA256 = "03ace3a3289fcbeb5b678ff5cca3055c729e0da22f09935f34a1989370c6dd33"
SUITE_CHECKS = 271_346
SUITE_REPORTS = [
    ("factorisation-example", 1),
    ("axioms[fin, bound=3]", 153_252),
    ("splitting[fin, bound=3]", 60_862),
    ("axioms[fin-surj, bound=3]", 2_285),
    ("splitting[fin-surj, bound=3]", 1_385),
    ("strict-identities[fin-surj, bound=3, maxlen=4]", 50_968),
    ("beta-coherence[fin-surj, bound=3]", 1_093),
    ("opfibration[fin-surj, n=0, bound=3]", 9),
    ("opfibration[fin-surj, n=1, bound=3]", 15),
    ("opfibration[fin-surj, n=2, bound=3]", 37),
    ("decomposition-fibres[fin-surj, bound=3]", 1_418),
    ("bialgebra[fin-surj, bound=3]", 6),
    ("counit[fin-surj, bound=3]", 7),
    ("comultiplication-closed-form[n<=6]", 6),
    ("negative-witnesses", 2),
]
UNIVERSE_BOUND = 4
UNIVERSE_CHECKS = {"axioms": 146_073_146, "splitting": 38_086_074}
COALG_MAX_N = 7
DECOMP_BOUND = 4
DECOMP_CHECKS = 1_570

# factor-stream: pairs per sample, and the range of domain sizes
STREAM_PAIRS = 1000
STREAM_MIN_DOM, STREAM_MAX_DOM = 8, 512


def op(name, seconds, ok, checks=1, error=None):
    entry = {"name": name, "s": seconds, "ok": bool(ok), "checks": checks}
    if error:
        entry["error"] = error
    return entry


def timed(fn, *args):
    start = perf_counter()
    result = fn(*args)
    return result, perf_counter() - start


# ---------------------------------------------------------------- suite-b3


class SuiteB3:
    """``pita all --json`` at the CLI defaults (bound 3, maxlen 4)."""

    instance = "fin"
    expected_ops = len(SUITE_REPORTS)
    op_latency = False

    def run(self, pita, sample):
        cli = pita.cli
        stamps = []
        emit = cli._emit_report

        def emit_report(rep, cfg, out):
            stamps.append(perf_counter())
            return emit(rep, cfg, out)

        cli._emit_report = emit_report
        buf = io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(SUITE_ARGV))
        wall = perf_counter() - start
        text = buf.getvalue()
        doc = json.loads(text)
        reports = doc["reports"]
        # one operation per report, timed from the previous report
        bounds = [start] + stamps
        whole = (
            code == 0
            and len(reports) == len(SUITE_REPORTS)
            and doc["checks"] == SUITE_CHECKS
            and hashlib.sha256(text.encode()).hexdigest() == SUITE_SHA256
        )
        ops = []
        for k, rep in enumerate(reports):
            pinned = SUITE_REPORTS[k] if k < len(SUITE_REPORTS) else None
            ok = (
                whole
                and rep["ok"]
                and (rep["title"], rep["checks"]) == pinned
            )
            seconds = bounds[k + 1] - bounds[k] if k + 1 < len(bounds) else 0.0
            ops.append(op(rep["title"], seconds, ok, rep["checks"]))
        return wall, ops


# ------------------------------------------------------------- universe-b4


class UniverseB4:
    """verify_axioms and verify_eta_identities on fin at bound 4, sharing
    one instance."""

    instance = "fin"
    expected_ops = 2
    op_latency = False

    def run(self, pita, sample):
        inst = sample.inst
        start = perf_counter()
        axioms, t1 = timed(pita.opcat.verify_axioms, inst, UNIVERSE_BOUND)
        split, t2 = timed(
            pita.factorisation.verify_eta_identities, inst, UNIVERSE_BOUND
        )
        wall = perf_counter() - start
        return wall, [
            op(axioms.title, t1,
               axioms.ok and axioms.checks == UNIVERSE_CHECKS["axioms"],
               axioms.checks),
            op(split.title, t2,
               split.ok and split.checks == UNIVERSE_CHECKS["splitting"],
               split.checks),
        ]


# ---------------------------------------------------------------- coalg-n7


class CoalgN7:
    """comult(fold n) against the closed form for n = 1..7, then the
    fibre comparison on fin-surj at bound 4."""

    instance = "fin-surj"
    expected_ops = COALG_MAX_N + 1
    op_latency = False

    def run(self, pita, sample):
        decomp = pita.decomp
        inst = sample.inst
        # the self-test doctors the pinned count to show the gate fails
        pinned = DECOMP_CHECKS + 1 if sample.wrong else DECOMP_CHECKS
        ops = []
        start = perf_counter()
        for n in range(1, COALG_MAX_N + 1):
            fold = pita.finskel.FinMap(n, 1, (1,) * n)
            t = perf_counter()
            equal = decomp.comult(inst, fold) == decomp.comult_closed_form(n)
            ops.append(op(f"comult(fold {n})", perf_counter() - t, equal))
        rep, t = timed(decomp.verify_decomposition_fibres, inst, DECOMP_BOUND)
        wall = perf_counter() - start
        ops.append(op(rep.title, t, rep.ok and rep.checks == pinned,
                      rep.checks))
        return wall, ops


# ----------------------------------------------------------- factor-stream


# multipliers of the rank-1 lattice that pairs the strata of m, n and k;
# both are prime to STREAM_PAIRS
LATTICE = (389, 619)


def stream_pairs(seed: int, sample: int, count: int = STREAM_PAIRS):
    """Random composable value tables (f: m -> n, g: n -> k).

    m is log-uniform in 8..512, n uniform in 1..m and k uniform in 1..n.
    The three are stratified and paired by a fixed lattice, each shifted
    by a random offset, so every sample has the same mix of sizes and the
    seed changes the maps drawn, their order and the offsets only.
    """
    rng = random.Random(f"factor-stream/{seed}/{sample}")
    span = math.log(STREAM_MAX_DOM / STREAM_MIN_DOM)
    a, b, c = rng.random(), rng.random(), rng.random()
    p, q = LATTICE
    pairs = []
    for i in range(count):
        m = round(STREAM_MIN_DOM * math.exp(span * (i + a) / count))
        n = math.ceil((i * p % count + b) / count * m)
        k = math.ceil((i * q % count + c) / count * n)
        f = tuple(rng.randint(1, n) for _ in range(m))
        g = tuple(rng.randint(1, k) for _ in range(n))
        pairs.append((f, n, g, k))
    rng.shuffle(pairs)
    return pairs


def _split(values):
    """Stable sort by value: the permutation and the sorted values."""
    order = sorted(range(len(values)), key=lambda j: (values[j], j))
    pi = [0] * len(values)
    for r, j in enumerate(order, 1):
        pi[j] = r
    return tuple(pi), tuple(values[j] for j in order)


def _then(first, second):
    """Apply first, then second (1-based value tables)."""
    return tuple(second[v - 1] for v in first)


def check_pair(f, n, g, k, pi, eta, rel):
    """Independent check of one split and one relative op part, on plain
    tuples: the split recomposes to f, pi is a bijection, eta is
    order-preserving, every fibre of pi over eta is increasing, and rel
    satisfies both defining equations of the relative op part."""
    m = len(f)
    if sorted(pi) != list(range(1, m + 1)) or len(eta) != m:
        return False
    if _then(pi, eta) != f:
        return False
    if any(eta[j] > eta[j + 1] for j in range(m - 1)):
        return False
    if any(not 1 <= v <= n for v in eta):
        return False
    # pi restricted to each fibre of f lands increasingly in that fibre
    last = [0] * (n + 1)
    for j in range(m):
        if pi[j] <= last[f[j]]:
            return False
        last[f[j]] = pi[j]
    fg = _then(f, g)
    pi_fg, eta_fg = _split(fg)
    pi_g, eta_g = _split(g)
    if len(rel) != m or any(not 1 <= v <= n for v in rel):
        return False
    return (
        _then(pi_fg, rel) == _then(f, pi_g)
        and _then(rel, eta_g) == eta_fg
    )


class FactorStream:
    """pita_general(fin, f) and eta_rel(fin, f, g) on fresh random maps."""

    instance = "fin"
    expected_ops = STREAM_PAIRS
    op_latency = True

    def run(self, pita, sample):
        FinMap = pita.finskel.FinMap
        fac = pita.factorisation
        inst = sample.inst
        raw = stream_pairs(sample.seed, sample.index)
        inputs = [
            (FinMap(len(f), n, f), FinMap(n, k, g)) for f, n, g, k in raw
        ]
        results = []
        start = perf_counter()
        for F, G in inputs:
            t = perf_counter()
            try:
                split = fac.pita_general(inst, F)
                rel = fac.eta_rel(inst, F, G)
            except Exception as exc:  # an exception is a failed pair
                results.append((perf_counter() - t, None, repr(exc)))
                continue
            results.append((perf_counter() - t, (split, rel), None))
        wall = perf_counter() - start
        ops = []
        for (f, n, g, k), (seconds, answer, error) in zip(raw, results):
            ok = False
            if answer is not None:
                split, rel = answer
                pi, eta = split.pi.values, split.eta.values
                if sample.wrong and not ops:
                    # the self-test swaps two values of the first pi
                    pi = (pi[1], pi[0]) + pi[2:]
                ok = check_pair(f, n, g, k, pi, eta, rel.values)
            ops.append(op(f"pair m={len(f)}", seconds, ok, error=error))
        return wall, ops


WORKLOADS = {
    "suite-b3": SuiteB3,
    "universe-b4": UniverseB4,
    "coalg-n7": CoalgN7,
    "factor-stream": FactorStream,
}

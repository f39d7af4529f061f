"""Array views of a universe, and vectorised sweeps.

Private helper for the exhaustive checks whose triple loops get too large
for the interpreter (tens of millions of cases at bound 4). A MapTable
views the id lists of an interned Universe (see opcat) as integer arrays:
composition, fibre maps, the permutation/order-preserving splitting and
the relative order-preserving parts. The triple sweeps become chunked
numpy gathers, one chunk per middle morphism.

The splitting sweeps evaluate the identities defined in factorisation on
id arrays; only the iterated fibre-map equation is written out here.

Layout. The table keeps the universe's lists by cell a * (n + 1) + b
as they are (see opcat.Universe): CAB, the composites, RAB, the
relative op parts, and FMAB, the fibre maps, with the map over point i
at (a * (n + 1) + b) * bound + i - 1. The -1 padding comes with them: a
pair that does not compose, the last row and the last column read -1,
and so does an id -1 in either place, because numpy wraps a negative
index as Python does. One lookup is one numpy gather.

The pair screen. The pair sweep of verify_axioms compares the
instance's composites and fibre maps with finskel's, by value. Here that
comparison runs for all pairs, _PAIR_CHUNK pairs at a time, on two tables
over points x = 1 .. bound (0 in column 0 and past dom k): VAL[k, x], the
value of map k at x, and the rank table RANK[k, x], the position of x in
its fibre of k. The composite c of a pair (g, f) takes x to
VAL[f, VAL[g, x]]. Its fibre map over i runs from the points of c over i
to those of f over i, so it has their counts FS[c, i - 1] and
FS[f, i - 1] as domain and codomain, and it sends RANK[c, x] to
RANK[f, g(x)] for every point x over i. Only the pairs whose answers
fail this are rechecked with finskel.

Buffers. Each worker thread of the two triple sweeps writes the blocks
of its chunks into buffers it allocates once per sweep, through out=, and
every array it indexes with is intp, so numpy makes no temporary of a
block's size. The iterated-fibre-map kernel writes its blocks into four:
the cells of (h, g;f), kept for the whole chunk, one block of positions
to take at, one of fibre-map ids and one of comparisons. The cocycle
reads C and R through _BufferedLookups, which give each lookup of a
chunk its own result buffer. The sweeps' speed then does not depend on
how the allocator serves large blocks: with glibc's mmap threshold
pinned at 128 KB, fresh temporaries made them about 3x slower. A buffer
holds the largest block, the most maps out of one object times the most
maps into one: 120,714 elements at fin bound 4, so each worker thread
holds about 2.4 MiB for the kernel's four buffers and about 3.7 MiB for
the cocycle's keys and six results. There is one worker per available
CPU unless PITA_THREADS sets the count (see opcat.default_threads).

The universe asked the instance (not the raw finite-set functions), so a
deliberately corrupted instance poisons the tables and the sweeps still
report it.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import IntegrityError
from .factorisation import _COCYCLE, _cocycle_sides, _pair_sites, _unit_square
from .opcat import _by_pair, default_threads


# pairs per chunk of the pair screen
_PAIR_CHUNK = 4096


def _array(values) -> np.ndarray:
    return np.array(values, dtype=np.int32)


class _BufferedLookups:
    """Lookups (a, b) -> values[a * (n + 1) + b] in the table's arrays
    for one worker thread, through buffers of size elements that
    it keeps across chunks. The keys of a lookup go to a scratch buffer,
    and the k-th lookup since start() writes its values into the k-th
    result buffer, so every value looked up in a chunk stays live to its
    end."""

    def __init__(self, table, size: int):
        self.stride = table.n + 1
        self.size = size
        self.keys = np.empty(size, np.intp)
        self.results: list = []
        self.used = 0

    def start(self):
        self.used = 0

    def by_pair(self, values):
        def lookup(a, b):
            shape = np.broadcast_shapes(np.shape(a), np.shape(b))
            n = math.prod(shape)
            if self.used == len(self.results):
                self.results.append(np.empty(self.size, values.dtype))
            out = self.results[self.used][:n].reshape(shape)
            self.used += 1
            key = np.multiply(
                a, self.stride, out=self.keys[:n].reshape(shape),
                dtype=np.intp,
            )
            key += b
            return values.take(key, out=out, mode="wrap")

        return lookup


class MapTable:
    def __init__(self, universe):
        self.universe = universe
        self.bound = bound = universe.bound
        maps = universe.maps
        self.n = n = universe.n
        self.DOM = _array([f.dom for f in maps])
        self.COD = _array([f.cod for f in maps])
        self.OP = np.array(universe.order_preserving, dtype=bool)
        self.ID = _array(universe.dom_identity)
        self.by_dom = {X: _array(ks) for X, ks in universe.out_of.items()}
        self.by_cod = {Y: _array(ks) for Y, ks in universe.into.items()}

        self.pa = _array(universe.pair_first)
        self.pb = _array(universe.pair_second)
        self.pairs = len(self.pa)
        self.CAB = _array(universe.composites)
        self.FMAB = _array(universe.fibre_maps)

        # fibre sizes; the value and rank of every point
        self.FS = np.zeros((n, bound), dtype=np.int16)
        self.VAL = np.zeros((n, bound + 1), dtype=np.intp)
        self.RANK = np.zeros((n, bound + 1), dtype=np.intp)
        for k, inclusions in enumerate(universe.inclusions):
            for i, eps in enumerate(inclusions):
                self.FS[k, i] = len(eps)
                self.VAL[k, list(eps)] = i + 1
                self.RANK[k, list(eps)] = range(1, len(eps) + 1)

        self.PI = self.ETA = self.RAB = None

    def ensure_pita(self):
        """Splitting and relative order-preserving-part tables."""
        if self.PI is not None:
            return
        self.universe.require_closed()
        pis, etas, _ = self.universe.splits
        self.PI, self.ETA = _array(pis), _array(etas)
        self.RAB = _array(self.universe.relative_parts)

    def pairs_to_recheck(self):
        """The pairs of the pair sweep of verify_axioms that finskel must
        recompute, in pair order, and the cardinality-fibre-size and
        fibre-of-fibre-map checks that all other pairs make. A pair is
        rechecked when an answer (its composite, a fibre map) is -1 or
        differs by value from finskel's (see the module docstring), or
        when the instance counts a fibre of g, f or one of the fibre maps
        wrongly. Any other pair passes every site: its answers are
        finskel's, and a fibre of the fibre map over i at j has as many
        points as the fibre of g at epsilon(j)."""
        u = self.universe
        VAL, RANK, FS = self.VAL, self.RANK, self.FS
        DOM, COD = self.DOM, self.COD
        miscounted = np.array([
            F != tuple(map(len, eps))
            for F, eps in zip(u.fibres, u.inclusions)
        ] + [False])
        points = np.arange(1, self.bound + 1)
        stride, by_cell = self.n + 1, self.FMAB.reshape(-1, self.bound)
        recheck = []
        sizes = fibres = 0
        for lo in range(0, self.pairs, _PAIR_CHUNK):
            hi = min(lo + _PAIR_CHUNK, self.pairs)
            g, f = self.pa[lo:hi], self.pb[lo:hi]
            cells = g * stride + f
            C, FM = self.CAB[cells], by_cell[cells]
            # g(x) and f(g(x)) for x = 0 .. bound, 0 at 0 and past dom g
            through = VAL[g]
            composite = VAL[f[:, None], through]
            bad = (C < 0) | miscounted[g] | miscounted[f]
            bad |= (DOM[C] != DOM[g]) | (COD[C] != COD[f])
            bad |= (VAL[C] != composite).any(axis=1)
            # the fibre map over i, from the points of C to those of f
            bad |= (
                (points <= COD[f][:, None])
                & ((FM < 0) | miscounted[FM]
                   | (DOM[FM] != FS[C]) | (COD[FM] != FS[f]))
            ).any(axis=1)
            # and, at each point x of dom g, the fibre map over f(g(x))
            # sends RANK[C, x] to RANK[f, g(x)]; past dom g reads nothing
            fibre_map = FM[np.arange(hi - lo)[:, None], composite[:, 1:] - 1]
            sent = VAL[fibre_map, RANK[C, 1:]]
            bad |= (
                (composite[:, 1:] > 0)
                & (sent != RANK[f[:, None], through[:, 1:]])
            ).any(axis=1)
            good = f[~bad]
            sizes += int(COD[good].sum())
            fibres += int(DOM[good].sum())
            recheck.extend((np.flatnonzero(bad) + lo).tolist())
        return recheck, sizes, fibres

    def _merge(self, report, tag, chunk):
        """Run chunk(g) for every middle id g on default_threads() workers,
        then, in chunk order, count its checks under tag and report its
        hits. A chunk returns its check count and its hits, each
        (ids, extra, lhs, rhs): the ids of the witness morphisms by
        name, the other witness entries, and the ids of both sides."""
        threads = default_threads()
        if threads <= 1:
            results = map(chunk, range(self.n))
        else:
            with ThreadPoolExecutor(max_workers=threads) as ex:
                results = list(ex.map(chunk, range(self.n)))
        json_of = self.universe.json_of
        for checks, hits in results:
            report.count(tag, checks)
            for ids, extra, lhs, rhs in hits:
                witness = {name: json_of(k) for name, k in ids.items()}
                report.add(
                    tag, {**witness, **extra}, json_of(lhs), json_of(rhs)
                )

    # ------------------------------------------------- axiom A-style sweep

    def sweep_iterated_fibre_maps(self, report):
        """Fibre maps of fibre maps agree with fibre maps over the
        composite, across every composable triple: with pairs (h, g) and
        (g, f), the fibre map of [h over g;f at i] taken over [g over f
        at i] at j equals the fibre map of h over g at epsilon(j). One
        chunk per middle id g, f_ids down the rows and h_ids across the
        columns, walking the points e of cod g, the domain of every f:
        each row checks i = f(e) and j = RANK[f, e], the rank of e over
        i, against the fibre map of (h, g) over e, which is the same for
        every row. Where the fibre maps do not compose, the lhs reads -1,
        as on the loop route. IntegrityError unless the universe is
        closed."""
        self.universe.require_closed()
        VAL, RANK, FMAB = self.VAL, self.RANK, self.FMAB
        stride, w = self.n + 1, self.bound
        # one hit past the cap per chunk is enough for Report.add to mark
        # the list truncated
        cap = report.max_violations + 1
        # every block of a chunk fits in these (see Buffers); takes with
        # out= run in "wrap" mode, which reads an id in range as "raise"
        # does but writes into out without a buffered copy
        size = max(map(len, self.by_dom.values()), default=0) * max(
            map(len, self.by_cod.values()), default=0
        )
        local = threading.local()

        def chunk(g):
            hits = []
            h_ids = self.by_cod[self.DOM[g]]
            f_ids = self.by_dom[self.COD[g]]
            if not len(h_ids) or not len(f_ids):
                return 0, hits
            if not hasattr(local, "buffers"):
                local.buffers = [
                    np.empty(size, dtype)
                    for dtype in (np.intp, np.intp, np.int32, bool)
                ]
            # HGF is kept for the whole chunk; the other blocks are each
            # rewritten once read
            HGF, AT, V, bad = (
                buffer[: len(f_ids) * len(h_ids)].reshape(len(f_ids), -1)
                for buffer in local.buffers
            )
            # the fibre maps over point x of (h, g), per column, (g, f),
            # per row, and (h, g;f), per cell, are at HG + x, GF + x and
            # HGF + x
            HG = (h_ids * stride + g) * w - 1
            GF = (g * stride + f_ids) * w - 1
            gf = self.CAB.take(g * stride + f_ids)
            np.add(
                (gf * w - 1)[:, None], h_ids * stride * w,
                out=HGF, dtype=np.intp,
            )
            points = int(self.COD[g])
            for e in range(1, points + 1):
                i, j = VAL[f_ids, e], RANK[f_ids, e]
                B = FMAB.take(GF + i)
                A = FMAB.take(
                    np.add(HGF, i[:, None], out=AT), out=V, mode="wrap"
                )
                AB = np.multiply(A, stride * w, out=AT, dtype=np.intp)
                AB += (B * w + j - 1)[:, None]
                lhs = FMAB.take(AB, out=V, mode="wrap")
                rhs = FMAB.take(HG + e)
                diff = np.not_equal(lhs, rhs, out=bad)
                if diff.any():
                    for hk, k in np.argwhere(diff.T)[: cap - len(hits)]:
                        hits.append((
                            {"h": h_ids[hk], "g": g, "f": f_ids[k]},
                            {"i": int(i[k]), "j": int(j[k])},
                            lhs[k, hk], rhs[hk],
                        ))
            return points * HGF.size, hits

        self._merge(report, "iterated-fibre-map", chunk)

    # ------------------------------------------- splitting pairwise sweep

    def sweep_splitting_identities(self, report):
        """The pair sites of the splitting calculus and the fibrewise
        order-preservation of every unit square, evaluated on the arrays
        of all composable pairs at once, site by site."""
        self.ensure_pita()
        json_of = self.universe.json_of
        pa, pb, stride = self.pa, self.pb, self.n + 1
        C = _by_pair(stride, self.CAB)
        # the composite and relative part of each pair
        AB, ER = C(pa, pb), self.RAB[pa * stride + pb]

        def where(p):
            return {"f": json_of(pa[p]), "g": json_of(pb[p])}

        for tag, applies, lhs, rhs in _pair_sites(
            C, self.PI, self.ETA, self.ID, self.OP, pa, pb, AB, ER
        ):
            applies = np.broadcast_to(applies, pa.shape)
            report.count(tag, int(applies.sum()))
            for p in np.flatnonzero(applies & (lhs != rhs)):
                report.add(tag, where(p), json_of(lhs[p]), json_of(rhs[p]))

        top, side = _unit_square(self.PI, AB, ER)
        Q = top * stride + side
        # the universe is closed, so only a pair that does not compose
        # has composite -1
        if (self.CAB[Q] < 0).any():
            raise IntegrityError("unit square is not composable")
        F = self.FMAB.reshape(-1, self.bound)[Q]
        valid = np.arange(self.bound)[None, :] < self.COD[ER][:, None]
        report.count("unit-square-not-fop", int(valid.sum()))
        for p, i in np.argwhere(valid & ~self.OP[F]):
            report.add(
                "unit-square-not-fop", {**where(p), "i": int(i) + 1},
                json_of(F[p, i]), "an order-preserving fibre map",
            )

    # ---------------------------------------------- relative-part triples

    def sweep_relative_part_cocycle(self, report):
        """The relative-part cocycle over every composable triple (f, g,
        h), one chunk per middle id g: f_ids down the rows, h_ids across
        the columns."""
        self.ensure_pita()
        cap = report.max_violations + 1
        size = max(map(len, self.by_cod.values()), default=0) * max(
            map(len, self.by_dom.values()), default=0
        )
        local = threading.local()

        def chunk(g):
            hits = []
            f_ids = self.by_cod[self.DOM[g]]
            h_ids = self.by_dom[self.COD[g]]
            if not len(f_ids) or not len(h_ids):
                return 0, hits
            if not hasattr(local, "lookups"):
                lookups = local.lookups = _BufferedLookups(self, size)
                local.C = lookups.by_pair(self.CAB)
                local.R = lookups.by_pair(self.RAB)
            local.lookups.start()
            lhs, rhs = _cocycle_sides(
                local.C, local.R, f_ids[:, None], g, h_ids[None, :]
            )
            for fk, hk in np.argwhere(lhs != rhs)[:cap]:
                hits.append((
                    {"f": f_ids[fk], "g": g, "h": h_ids[hk]}, {},
                    lhs[fk, hk], rhs[fk, hk],
                ))
            return lhs.size, hits

        self._merge(report, _COCYCLE, chunk)

"""Array views of a universe, and vectorised sweeps.

Private helper for the exhaustive checks whose triple loops get too large
for the interpreter (tens of millions of cases at bound 4). A MapTable
views the id lists of an interned Universe (see opcat) as integer arrays:
composition, fibre maps, the permutation/order-preserving splitting and
the relative order-preserving parts. The triple sweeps become chunked
numpy gathers, one chunk per middle morphism.

The splitting sweeps evaluate the identities defined in factorisation on
id arrays; only the iterated fibre-map equation is written out here.

Layout. The arrays are the universe's own lists, in the universe's padded
layout (see opcat.Universe), so -1 reads -1 here by plain indexing, as on
the loop route, and opcat._by_pair looks composites and relative parts up
on both routes. The one layout step of this module is FMT, the fibre maps
transposed into one row per point: FMT[i - 1][p] is the fibre map of
pair p over i.

The universe asked the instance (not the raw finite-set functions), so a
deliberately corrupted instance poisons the tables and the sweeps still
report it.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import IntegrityError
from .factorisation import _COCYCLE, _cocycle_sides, _pair_sites, _unit_square
from .opcat import _by_pair, default_threads


def _array(values) -> np.ndarray:
    return np.array(values, dtype=np.int32)


class MapTable:
    def __init__(self, universe):
        universe.require_closed()
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
        self.PIDX = _array(universe.pair_index)
        self.CMP = _array(universe.composites)

        # fibre sizes and inclusions
        self.FS = np.zeros((n, bound), dtype=np.int16)
        self.EPS = np.zeros((n, bound, bound), dtype=np.int16)
        for k, inclusions in enumerate(universe.inclusions):
            for i, eps in enumerate(inclusions):
                self.FS[k, i] = len(eps)
                self.EPS[k, i, : len(eps)] = eps
        # per point, since the triple kernel makes contiguous 1-D takes;
        # the universe keeps them per pair, as freeing the per-pair array
        # here raises glibc's mmap threshold and keeps the kernel's chunk
        # temporaries on the heap (with the threshold pinned at 128 KB the
        # kernel ran about 3x slower on fin at bound 4)
        self.FMT = np.ascontiguousarray(
            _array(universe.fibre_maps).reshape(self.pairs + 1, bound).T
        )

        self.PI = self.ETA = self.ER = None

    def ensure_pita(self):
        """Splitting and relative order-preserving-part tables."""
        if self.PI is not None:
            return
        pis, etas, _ = self.universe.splits
        self.PI, self.ETA = _array(pis), _array(etas)
        self.ER = _array(self.universe.relative_parts)

    def _merge(self, report, tag, chunk):
        """Run chunk(g) for every middle id g on PITA_THREADS workers,
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
        columns; for each i and j only the rows of the f with i <= cod f
        and j <= |fibre of f over i| are looked up. Where the fibre maps
        do not compose, the lhs reads -1, as on the loop route."""
        FS, EPS, FMT, pair_of = self.FS, self.EPS, self.FMT, self.PIDX
        stride = self.n + 1
        # one hit past the cap per chunk is enough for Report.add to mark
        # the list truncated
        cap = report.max_violations + 1

        def chunk(g):
            hits = []
            checks = 0
            h_ids = self.by_cod[self.DOM[g]]
            f_ids = self.by_dom[self.COD[g]]
            if not len(h_ids) or not len(f_ids):
                return 0, hits
            # R[e - 1, hk]: the fibre map of (h, g) over e
            R = FMT[:, pair_of.take(h_ids * stride + g)]
            PGF = pair_of.take(g * stride + f_ids)
            FG = self.CMP.take(PGF)
            PHFG = pair_of.take(FG[:, None] + h_ids * stride)
            cod_f = self.COD[f_ids]
            for i in range(1, int(cod_f.max()) + 1):
                rows = np.flatnonzero(cod_f >= i)
                fibre_map = FMT[i - 1]
                B = fibre_map.take(PGF[rows])
                A = fibre_map.take(PHFG[rows])
                PAB = pair_of.take(A * stride + B[:, None])
                sizes = FS[f_ids[rows], i - 1]
                for j in range(1, int(sizes.max()) + 1):
                    keep = np.flatnonzero(sizes >= j)
                    fk = rows[keep]
                    lhs = FMT[j - 1].take(PAB[keep])
                    rhs = R[EPS[f_ids[fk], i - 1, j - 1] - 1]
                    checks += lhs.size
                    bad = lhs != rhs
                    if bad.any():
                        for hk, k in np.argwhere(bad.T)[: cap - len(hits)]:
                            hits.append((
                                {"h": h_ids[hk], "g": g, "f": f_ids[fk[k]]},
                                {"i": i, "j": j},
                                lhs[k, hk], rhs[k, hk],
                            ))
            return checks, hits

        self._merge(report, "iterated-fibre-map", chunk)

    # ------------------------------------------- splitting pairwise sweep

    def sweep_splitting_identities(self, report):
        """The pair sites of the splitting calculus and the fibrewise
        order-preservation of every unit square, evaluated on the arrays
        of all composable pairs at once, site by site."""
        self.ensure_pita()
        json_of = self.universe.json_of
        pa, pb, stride = self.pa, self.pb, self.n + 1
        # the composite and relative part of each pair, without the padding
        AB, ER = self.CMP[:-1], self.ER[:-1]

        def where(p):
            return {"f": json_of(pa[p]), "g": json_of(pb[p])}

        for tag, applies, lhs, rhs in _pair_sites(
            _by_pair(self.PIDX, stride, self.CMP),
            self.PI, self.ETA, self.ID, self.OP, pa, pb, AB, ER,
        ):
            applies = np.broadcast_to(applies, pa.shape)
            report.count(tag, int(applies.sum()))
            for p in np.flatnonzero(applies & (lhs != rhs)):
                report.add(tag, where(p), json_of(lhs[p]), json_of(rhs[p]))

        top, side = _unit_square(self.PI, AB, ER)
        Q = self.PIDX[top * stride + side]
        if (Q < 0).any():
            raise IntegrityError("unit square is not composable")
        F = self.FMT[:, Q].T
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
        stride = self.n + 1
        C = _by_pair(self.PIDX, stride, self.CMP)
        R = _by_pair(self.PIDX, stride, self.ER)

        def chunk(g):
            hits = []
            f_ids = self.by_cod[self.DOM[g]]
            h_ids = self.by_dom[self.COD[g]]
            if not len(f_ids) or not len(h_ids):
                return 0, hits
            lhs, rhs = _cocycle_sides(C, R, f_ids[:, None], g, h_ids[None, :])
            for fk, hk in np.argwhere(lhs != rhs)[:cap]:
                hits.append((
                    {"f": f_ids[fk], "g": g, "h": h_ids[hk]}, {},
                    lhs[fk, hk], rhs[fk, hk],
                ))
            return lhs.size, hits

        self._merge(report, _COCYCLE, chunk)

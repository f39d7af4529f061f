"""Array views of a universe, and vectorised sweeps.

Private helper for the exhaustive checks whose triple loops get too large
for the interpreter (tens of millions of cases at bound 4). A MapTable
views the id lists of an interned Universe (see opcat) as integer arrays:
composition, fibre maps, the permutation/order-preserving splitting and
the relative order-preserving parts. The triple sweeps become chunked
numpy gathers, one chunk per middle morphism.

The splitting sweeps evaluate the identities defined in factorisation on
id arrays; only the iterated fibre-map equation is written out here.

Layout. PIDX is the composable-pair index with one more row and column,
all -1, so that its flat view answers a * (n + 1) + b with the pair id
of (a, b), and -1 when they do not compose or either id is -1. FMT holds
the fibre maps once, transposed: FMT[i - 1][p] is the fibre map of pair
p over i, -1 past the codomain, and a last column of -1 makes pair -1
read -1. So a pair that does not compose reads -1, as on the loop route,
and every lookup of the triple kernel is a 1-D take.

The universe asked the instance (not the raw finite-set functions), so a
deliberately corrupted instance poisons the tables and the sweeps still
report it.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import IntegrityError
from .factorisation import _COCYCLE, _cocycle_sides, _pair_sites, _unit_square
from .opcat import default_threads


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

        # composition table and the composable-pair index, padded with -1
        self.pa = _array(universe.pair_first)
        self.pb = _array(universe.pair_second)
        self.pairs = len(self.pa)
        self.PIDX = np.full((n + 1, n + 1), -1, dtype=np.int32)
        self.PIDX[:n, :n] = _array(universe.pair_index).reshape(n, n)
        self.C = np.full((n, n), -1, dtype=np.int32)
        self.C[self.pa, self.pb] = universe.composites

        # fibre sizes, inclusions and fibre maps, FMT transposed and with
        # the -1 column
        self.FS = np.zeros((n, bound), dtype=np.int16)
        self.EPS = np.zeros((n, bound, bound), dtype=np.int16)
        for k, inclusions in enumerate(universe.inclusions):
            for i, eps in enumerate(inclusions):
                self.FS[k, i] = len(eps)
                self.EPS[k, i, : len(eps)] = eps
        self.FMT = np.full((bound, self.pairs + 1), -1, dtype=np.int32)
        self.FMT[:, :-1] = _array(universe.fibre_maps).reshape(
            self.pairs, bound
        ).T

        self.PI = self.ETA = self.ER = None

    def ensure_pita(self):
        """Splitting and relative order-preserving-part tables."""
        if self.PI is not None:
            return
        pis, etas, _ = self.universe.splits()
        self.PI, self.ETA = _array(pis), _array(etas)
        self.ER = _array(self.universe.relative_parts())

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
        FS, EPS, FMT = self.FS, self.EPS, self.FMT
        stride = self.n + 1
        pair_of = self.PIDX.ravel()
        # one hit past the cap per chunk is enough for Report.add to mark
        # the list truncated
        cap = report.max_violations + 1

        def chunk(g):
            hits = []
            checks = 0
            h_ids = self.by_cod.get(self.DOM[g])
            f_ids = self.by_dom.get(self.COD[g])
            if h_ids is None or f_ids is None or not len(h_ids) or not len(f_ids):
                return 0, hits
            # R[e - 1, hk]: the fibre map of (h, g) over e
            R = FMT[:, pair_of.take(h_ids * stride + g)]
            PGF = pair_of.take(g * stride + f_ids)
            FG = self.C[g].take(f_ids)
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

    def _composite(self, x, y):
        return self.C[x, y]

    def _relative_part(self, x, y):
        return self.ER[self.PIDX[x, y]]

    def sweep_splitting_identities(self, report):
        """The pair sites of the splitting calculus and the fibrewise
        order-preservation of every unit square, evaluated on the arrays
        of all composable pairs at once, site by site."""
        self.ensure_pita()
        json_of = self.universe.json_of
        pa, pb, ER = self.pa, self.pb, self.ER
        AB = self.C[pa, pb]

        def where(p):
            return {"f": json_of(pa[p]), "g": json_of(pb[p])}

        for tag, applies, lhs, rhs in _pair_sites(
            self._composite, self.PI, self.ETA, self.ID, self.OP,
            pa, pb, AB, ER,
        ):
            applies = np.broadcast_to(applies, pa.shape)
            report.count(tag, int(applies.sum()))
            for p in np.flatnonzero(applies & (lhs != rhs)):
                report.add(tag, where(p), json_of(lhs[p]), json_of(rhs[p]))

        Q = self.PIDX[_unit_square(self.PI, AB, ER)]
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

        def chunk(g):
            hits = []
            f_ids = self.by_cod.get(self.DOM[g])
            h_ids = self.by_dom.get(self.COD[g])
            if f_ids is None or h_ids is None or not len(f_ids) or not len(h_ids):
                return 0, hits
            lhs, rhs = _cocycle_sides(
                self._composite, self._relative_part,
                f_ids[:, None], g, h_ids[None, :],
            )
            for fk, hk in np.argwhere(lhs != rhs)[:cap]:
                hits.append((
                    {"f": f_ids[fk], "g": g, "h": h_ids[hk]}, {},
                    lhs[fk, hk], rhs[fk, hk],
                ))
            return lhs.size, hits

        self._merge(report, _COCYCLE, chunk)

"""Finite abstract simplicial complexes and their combinatorial operations.

Simplices are sorted tuples of vertex labels; a complex is a face-closed
finite set of simplices.  Everything is immutable, so each complex indexes
itself once, on first use: the cofaces of every vertex and the `canon_key`
order of its simplices.  Star and link then walk the cofaces of one vertex
instead of the complex, and the complex keeps each link it is asked for,
so callers share one link per simplex; the other operations return fresh
objects.

Whatever walks the whole complex reads its incidence on ranks instead,
`face_ranks` and its transpose `coface_ranks`; a link of dimension at most
one is decided on them alone (`_link_shape`).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations
from typing import Iterable, Sequence

from .errors import EmptyComplexError, NotAMemberError, StructuralError
from .geometry import canon_key, canon_sorted
from .posets import Poset, connected_classes


class Simplex(tuple):
    """A simplex as a strictly increasing tuple of vertex labels.

    A `Simplex` passed in is returned as it is, and faces, boundaries and
    links are ordered subsequences of a sorted simplex, so they are built
    without sorting again."""

    def __new__(cls, vertices: Iterable):
        if type(vertices) is Simplex:
            return vertices
        vs = tuple(sorted(vertices, key=canon_key))
        if len(set(vs)) != len(vs):
            raise StructuralError(f"repeated vertex in simplex {vs!r}")
        if not vs:
            raise StructuralError("a simplex needs at least one vertex")
        return super().__new__(cls, vs)

    @property
    def dim(self) -> int:
        return len(self) - 1

    def faces(self) -> Iterable["Simplex"]:
        """All nonempty faces, the simplex itself included."""
        for r in range(1, len(self) + 1):
            for c in combinations(self, r):
                yield tuple.__new__(Simplex, c)

    def boundary(self) -> list["Simplex"]:
        """Codimension-one faces; empty for a vertex."""
        if len(self) == 1:
            return []
        return [tuple.__new__(Simplex, self[:i] + self[i + 1:])
                for i in range(len(self))]

    def __repr__(self) -> str:
        return f"Simplex({list(self)!r})"


@dataclass(frozen=True)
class ComplexIndex:
    """Lookup tables of one complex, built together on first use."""
    ranked: tuple     # all simplices in `canon_key` order
    rank: dict        # simplex -> its position in `ranked`
    order: tuple      # simplices by (dim, canon_key): `sorted_simplices`
    vertex_cofaces: dict  # vertex -> the simplices containing it, in `ranked` order


class SimplicialComplex:
    """A face-closed set of simplices.  May be empty."""

    def __init__(self, simplices: Iterable, *, check: bool = True):
        simp = frozenset(map(Simplex, simplices))
        if check:
            for s in simp:
                for f in s.boundary():
                    if f not in simp:
                        raise StructuralError(
                            f"not face-closed: {f!r} missing under {s!r}")
        self.simplices = simp
        # simplex -> its link, kept by `link`; made on the first call
        self._links: dict | None = None

    @classmethod
    def from_facets(cls, facets: Iterable) -> "SimplicialComplex":
        """Build the face closure of the given generating simplices."""
        simp: set = set()
        for f in facets:
            simp.update(Simplex(f).faces())
        return cls(simp, check=False)

    @property
    def dimension(self) -> int:
        """Max simplex dimension; -1 for the empty complex."""
        return max(map(len, self.simplices), default=0) - 1

    @property
    def vertices(self) -> frozenset:
        return frozenset().union(*self.simplices)

    @cached_property
    def index(self) -> ComplexIndex:
        """The complex's lookup tables, built on first use."""
        ranked = tuple(canon_sorted(self.simplices))
        cofaces: dict = {}
        for s in ranked:
            for v in s:
                cofaces.setdefault(v, []).append(s)
        return ComplexIndex(
            ranked=ranked,
            rank={s: i for i, s in enumerate(ranked)},
            order=tuple(sorted(ranked, key=len)),
            vertex_cofaces={v: tuple(ts) for v, ts in cofaces.items()})

    @cached_property
    def face_ranks(self) -> tuple:
        """The ranks of each simplex's codimension-one faces, by rank.

        Built apart from `index`, on the first request for it or for
        `coface_ranks`; the lookups of a link or a star need neither."""
        rank = self.index.rank
        return tuple(tuple(rank[s[:i] + s[i + 1:]] for i in range(len(s)))
                     if len(s) > 1 else () for s in self.index.ranked)

    @cached_property
    def coface_ranks(self) -> tuple:
        """The ranks of each simplex's codimension-one cofaces, by rank and
        in increasing order: the transpose of `face_ranks`."""
        up: list = [[] for _ in self.face_ranks]
        for r, faces in enumerate(self.face_ranks):
            for q in faces:
                up[q].append(r)
        return tuple(map(tuple, up))

    def cofaces(self, sigma: Simplex) -> Sequence[Simplex]:
        """The simplices containing sigma, sigma itself included, in
        `canon_key` order: the cofaces of its first vertex that hold its
        other vertices, tested one by one on the tuple."""
        around = self.index.vertex_cofaces.get(sigma[0], ())
        if len(sigma) == 1:
            return around
        second, rest = sigma[1], sigma[2:]
        return [t for t in around
                if second in t and all(map(t.__contains__, rest))]

    @cached_property
    def _facets(self) -> tuple:
        # a simplex with a coface is a face of one a dimension up
        return tuple(s for s, up in zip(self.index.ranked, self.coface_ranks)
                     if not up)

    def facets(self) -> list[Simplex]:
        """Maximal simplices, in `canon_key` order: those that are no
        codimension-one face of another."""
        return list(self._facets)

    def simplices_of_dim(self, d: int) -> list[Simplex]:
        return [s for s in self.index.order if len(s) == d + 1]

    def sorted_simplices(self) -> list[Simplex]:
        return list(self.index.order)

    def is_pure(self) -> bool:
        if not self.simplices:
            return True
        n = self.dimension + 1
        return all(len(f) == n for f in self._facets)

    def __contains__(self, s) -> bool:
        try:
            return Simplex(s) in self.simplices
        except StructuralError:
            return False

    def __len__(self) -> int:
        return len(self.simplices)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self.simplices == other.simplices

    def __hash__(self):
        return hash(self.simplices)

    def __repr__(self) -> str:
        return f"SimplicialComplex({len(self.simplices)} simplices, dim {self.dimension})"

    def _require(self, s: Simplex):
        if s not in self.simplices:
            raise NotAMemberError(f"{s!r} is not a simplex of the complex")

    def _require_nonempty(self):
        if not self.simplices:
            raise EmptyComplexError("operation undefined on the empty complex")


def star(k: SimplicialComplex, sigma) -> SimplicialComplex:
    """Closed star: all cofaces of sigma together with their faces."""
    sigma = Simplex(sigma)
    k._require(sigma)
    return SimplicialComplex.from_facets(k.cofaces(sigma))


def open_star(k: SimplicialComplex, sigma) -> frozenset:
    """The cofaces of sigma themselves (not face-closed)."""
    sigma = Simplex(sigma)
    k._require(sigma)
    return frozenset(k.cofaces(sigma))


def link(k: SimplicialComplex, sigma) -> SimplicialComplex:
    """All simplices tau disjoint from sigma with tau + sigma in the complex.

    The link is built on the first call for sigma and kept by the complex,
    so the criticality tests and the manifold check share one link per
    simplex."""
    sigma = Simplex(sigma)
    if k._links is None:
        k._links = {}
    lk = k._links.get(sigma)
    if lk is None:
        lk = k._links[sigma] = _build_link(k, sigma)
    return lk


def _build_link(k: SimplicialComplex, sigma: Simplex) -> SimplicialComplex:
    """The link of sigma, from the cofaces of its first vertex."""
    k._require(sigma)
    ss = set(sigma)
    return SimplicialComplex(
        [tuple.__new__(Simplex, [v for v in t if v not in ss])
         for t in k.cofaces(sigma) if len(t) > len(sigma)], check=False)


def join(a: SimplicialComplex, b: SimplicialComplex) -> SimplicialComplex:
    """Simplicial join of complexes on disjoint vertex sets."""
    if a.vertices & b.vertices:
        raise StructuralError("join requires disjoint vertex sets")
    out = set(a.simplices) | set(b.simplices)
    for s in a.simplices:
        for t in b.simplices:
            out.add(Simplex(tuple(s) + tuple(t)))
    return SimplicialComplex(out, check=False)


def face_poset(k: SimplicialComplex) -> Poset:
    """The simplices of k ordered by inclusion; empty for the empty complex."""
    rel = [(f, s) for s in k.simplices for f in s.boundary()]
    return Poset(k.simplices, rel)


# ---------------------------------------------------------------------------
# manifold / sphere recognition

@dataclass(frozen=True)
class ManifoldReport:
    """Outcome of the combinatorial manifold checks.

    `link_checks` maps each simplex to a verdict "sphere" / "not-sphere" /
    "undecided"; sphere recognition is only attempted through dimension two,
    higher-dimensional links are reported undecided.
    """
    is_pure: bool
    is_weak_pseudomanifold: bool
    complex_verdict: str
    link_checks: dict
    notes: tuple = ()


def _edges(k: SimplicialComplex) -> list:
    """The edges of k in no particular order, without building its index:
    the graph tests on small built complexes only count and join them."""
    return [s for s in k.simplices if len(s) == 2]


def _is_connected(k: SimplicialComplex) -> bool:
    return len(connected_classes(k.vertices, _edges(k))) == 1


def euler_characteristic(k: SimplicialComplex) -> int:
    return sum((-1) ** s.dim for s in k.simplices)


def _graph_is_connected(verts, cofaces: tuple) -> bool:
    """Whether a graph on ranks is connected.  Its vertices are the ranks
    `verts` and its edges their cofaces in the table `cofaces`, each
    joining two of them."""
    joins = [(q, t) for q in verts for t in cofaces[q]]
    return len(connected_classes(chain(verts, (t for _, t in joins)), joins)) == 1


def _is_cycle(verts, edges, cofaces: tuple) -> bool:
    """Whether the graph of `_graph_is_connected`, with the ranks `edges`
    for its edges, is a single cycle: every vertex has two cofaces, so
    there are as many edges as vertices, and the edges are one class when
    each vertex joins its two."""
    ends = [cofaces[q] for q in verts]
    return all(len(up) == 2 for up in ends) and len(connected_classes(edges, ends)) == 1


def _link_shape(cofaces: tuple, r: int):
    """(dimension, sphere verdict) of the link of the simplex of rank r,
    read off the `coface_ranks` of its complex; None when the link has
    dimension two or more, which only a built link decides.

    The link's vertices are the codimension-one cofaces of the simplex and
    its edges the codimension-two ones, each joining the two
    codimension-one faces that contain the simplex.  So the link is the
    empty sphere when there is no coface, a 0-sphere when it is exactly two
    points, and a 1-sphere when it is a single cycle."""
    link_verts = cofaces[r]
    if not link_verts:
        return -1, "sphere"
    link_edges = {t for q in link_verts for t in cofaces[q]}
    if not link_edges:
        return 0, "sphere" if len(link_verts) == 2 else "not-sphere"
    if any(cofaces[t] for t in link_edges):
        return None
    return 1, "sphere" if _is_cycle(link_verts, link_edges, cofaces) else "not-sphere"


def sphere_verdict(k: SimplicialComplex) -> str:
    """Classify a complex as a sphere of dimension <= 2 when possible.

    The empty complex counts as the (-1)-sphere, matching its role as the
    link of a facet in a closed pseudomanifold.
    """
    return _sphere_verdict(k, lambda r: _link_shape(k.coface_ranks, r) == (1, "sphere"))


def _sphere_verdict(k: SimplicialComplex, cycle_link) -> str:
    """`sphere_verdict` on the rank tables of k, told by `cycle_link(r)`
    whether the link of the vertex of rank r is a single cycle; it is asked
    only in a connected pure 2-complex with two triangles at every edge,
    where each vertex link is a nonempty graph of degree two, so a single
    cycle iff a 1-sphere."""
    d = k.dimension
    if d == -1:
        return "sphere"
    if d == 0:
        return "sphere" if len(k.simplices) == 2 else "not-sphere"
    if d > 2:
        return "undecided"
    ranked, cofaces = k.index.ranked, k.coface_ranks
    verts = [r for r, s in enumerate(ranked) if len(s) == 1]
    edges = [r for r, s in enumerate(ranked) if len(s) == 2]
    if d == 1:
        return "sphere" if _is_cycle(verts, edges, cofaces) else "not-sphere"
    if (not k.is_pure() or any(len(cofaces[e]) != 2 for e in edges)
            or not _graph_is_connected(verts, cofaces)
            or not all(map(cycle_link, verts))):
        return "not-sphere"
    return "sphere" if euler_characteristic(k) == 2 else "not-sphere"


def manifold_check(k: SimplicialComplex) -> ManifoldReport:
    """Weak pseudomanifold check plus per-link sphere verdicts.

    Weak means: pure, every ridge in exactly two facets, all links connected.
    A non-pure complex is reported (never raised) with the failure noted.
    Purity, the facets at each ridge and the verdict on every link of
    dimension at most one are read off the coface table (`coface_ranks`,
    `_link_shape`).  Only a link of dimension two or more is built, unless
    the complex keeps it already, and it goes through `sphere_verdict`.
    The verdict on the complex reads its vertex-link verdicts.
    """
    k._require_nonempty()
    notes: list[str] = []
    pure = k.is_pure()
    if not pure:
        notes.append("complex is not pure")
    n = k.dimension
    ranked, cofaces = k.index.ranked, k.coface_ranks
    # the cofaces of a ridge are the facets that hold it
    closed = all(len(up) in (0, 2) for s, up in zip(ranked, cofaces) if len(s) == n)
    if not closed and pure:
        notes.append("some ridge is not shared by exactly two facets")

    verdicts: list[str] = []
    links_connected = True
    kept = k._links or {}
    for r, s in enumerate(ranked):
        shape = _link_shape(cofaces, r)
        if shape is None:
            lk = kept.get(s)
            if lk is None:
                lk = _build_link(k, s)
            verdict = sphere_verdict(lk)
            # spheres of dimension one and up are connected
            if verdict != "sphere" and not _is_connected(lk):
                links_connected = False
        else:
            dim, verdict = shape
            # a graph that is no cycle may still be connected
            if (dim == 1 and verdict != "sphere"
                    and not _graph_is_connected(cofaces[r], cofaces)):
                links_connected = False
        verdicts.append(verdict)
    if not links_connected:
        notes.append("some link is disconnected")

    return ManifoldReport(
        is_pure=pure,
        is_weak_pseudomanifold=pure and closed and links_connected,
        complex_verdict=_sphere_verdict(k, lambda r: verdicts[r] == "sphere"),
        link_checks=dict(zip(ranked, verdicts)),
        notes=tuple(notes),
    )

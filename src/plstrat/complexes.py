"""Finite abstract simplicial complexes and their combinatorial operations.

Simplices are sorted tuples of vertex labels; a complex is a face-closed
finite set of simplices.  Everything is immutable, so each complex indexes
itself once, on first use: the cofaces of every vertex and the `canon_key`
order of its simplices.  Star and link walk the cofaces of one vertex
instead of the complex; they and the other operations return fresh
objects.

Whatever walks the whole complex reads its incidence on ranks instead,
`face_ranks` and its transpose `coface_ranks`.  One function splits a set
of ranks into its components under face incidence (`rank_components`),
for the fibers and the domain stratification alike.  One function decides
the sphere shape of every link, once per complex (`link_shapes`), and of
the complex itself on them (`_shape`): a link is the set of its simplex's
cofaces and a complex the set of its vertices, so no link is built.
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

    @cached_property
    def link_shapes(self) -> tuple:
        """The `_shape` of each simplex's link by rank, decided once."""
        return tuple(_shape(self.coface_ranks, up) for up in self.coface_ranks)

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
    """All simplices tau disjoint from sigma with tau + sigma in the complex,
    from the cofaces of sigma's first vertex."""
    sigma = Simplex(sigma)
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


def rank_components(ranks, faces) -> list[list[int]]:
    """Connected components under face incidence of a set of simplices
    given as ranks, each as the list of its ranks in the order of `ranks`;
    classes come in the order of their first member.

    Each member is joined only to its codimension-one faces, `faces[rank]`,
    so every member must reach its class through faces among the members:
    with a face and a coface, the set holds every simplex between them.  A
    fiber support is upward-closed in the face order, since a coface's image
    contains its face's image, and so is every union of its components and
    the complement of a subcomplex.  The simplices whose least vertex value
    is one value are closed between a face and a coface too: all of them
    hold the face's least vertex."""
    members = set(ranks)
    return connected_classes(ranks, [(r, q) for r in ranks for q in faces[r]
                                     if q in members])


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


def euler_characteristic(k: SimplicialComplex) -> int:
    return sum((-1) ** s.dim for s in k.simplices)


def _graph_is_connected(verts, cofaces: tuple) -> bool:
    """Whether a graph on ranks is connected.  Its vertices are the ranks
    `verts` and its edges their cofaces in the table `cofaces`, each
    joining two of them."""
    joins = [(q, t) for q in verts for t in cofaces[q]]
    return len(connected_classes(chain(verts, (t for _, t in joins)), joins)) == 1


def _shape(cofaces: tuple, verts) -> tuple:
    """(dimension, sphere verdict) of the complex whose vertices are the
    ranks `verts` of the coface table `cofaces`, its edges their cofaces
    and its triangles the edges' cofaces; the dimension is 3 for any of
    three or more, whose verdict is "undecided".

    The link of the simplex of rank r is the complex on `cofaces[r]`, and
    a whole complex the one on its vertex ranks.  So is the link of a
    vertex q inside such a complex, on `cofaces[q]`, and a 2-complex is
    decided by counts: it is a sphere when every edge has two triangles,
    chi = 2, it is connected (so every vertex has an edge) and every
    vertex link is a cycle.  A graph is a cycle when every vertex has two
    edges and it is connected; points are a sphere when there are two."""
    if not verts:
        return -1, "sphere"
    edges = {t for q in verts for t in cofaces[q]}
    if not edges:
        return 0, "sphere" if len(verts) == 2 else "not-sphere"
    triangles = {t for e in edges for t in cofaces[e]}
    if not triangles:
        cycle = (all(len(cofaces[q]) == 2 for q in verts)
                 and _graph_is_connected(verts, cofaces))
        return 1, "sphere" if cycle else "not-sphere"
    if any(cofaces[t] for t in triangles):
        return 3, "undecided"
    sphere = (all(len(cofaces[e]) == 2 for e in edges)
              and len(verts) - len(edges) + len(triangles) == 2
              and _graph_is_connected(verts, cofaces)
              and all(_shape(cofaces, cofaces[q]) == (1, "sphere") for q in verts))
    return 2, "sphere" if sphere else "not-sphere"


def sphere_verdict(k: SimplicialComplex) -> str:
    """Classify a complex as a sphere of dimension <= 2 when possible.

    The empty complex counts as the (-1)-sphere, matching its role as the
    link of a facet in a closed pseudomanifold.
    """
    verts = [r for r, s in enumerate(k.index.ranked) if len(s) == 1]
    return _shape(k.coface_ranks, verts)[1]


def manifold_check(k: SimplicialComplex) -> ManifoldReport:
    """Weak pseudomanifold check plus per-link sphere verdicts.

    Weak means: pure, every ridge in exactly two facets, all links connected.
    A non-pure complex is reported (never raised) with the failure noted.
    Purity, the facets at each ridge, every link verdict and the verdict on
    the complex are read off the coface table (`coface_ranks`, `_shape`);
    no link is built.
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
    for up, (dim, verdict) in zip(cofaces, k.link_shapes):
        # spheres of dimension one and up are connected, other links may be
        if dim > 0 and verdict != "sphere" and not _graph_is_connected(up, cofaces):
            links_connected = False
        verdicts.append(verdict)
    if not links_connected:
        notes.append("some link is disconnected")

    return ManifoldReport(
        is_pure=pure,
        is_weak_pseudomanifold=pure and closed and links_connected,
        complex_verdict=sphere_verdict(k),
        link_checks=dict(zip(ranked, verdicts)),
        notes=tuple(notes),
    )

"""Finite posets carrying the upward-closed topology, monotone maps between
them, and stratified spaces assigning cells of a carrier to poset elements.

Open sets are exactly the up-closed subsets, so monotone maps are the
continuous ones and nothing here is Hausdorff in any interesting case.
A poset is stored as the up-set of each element, computed once from the
generating pairs, or for a product, cone or wedge extension straight from
the up-sets of its inputs; the covers of an element are its strict up-set
minus the strict up-sets of the elements in it, unless a graded
stratification hands them over with its up-sets.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Mapping

from .errors import NotAMemberError, StructuralError
from .geometry import canon_sorted

Label = Hashable


def _closure_upsets(elements, pairs):
    """The up-set of every element: one depth-first pass, each up-set the
    union of its successors' up-sets in post-order.  A pair back into an
    element still being expanded closes a cycle."""
    succ: dict = {e: [] for e in elements}
    for a, b in pairs:
        if a not in succ or b not in succ:
            raise NotAMemberError(f"relation pair ({a!r}, {b!r}) mentions unknown element")
        if a != b:
            succ[a].append(b)
    up: dict = {}   # None while the element is being expanded
    stack = [(None, iter(succ))]   # a root below every element
    while stack:
        x, todo = stack[-1]
        for y in todo:
            if y not in up:
                up[y] = None
                stack.append((y, iter(succ[y])))
                break
            if up[y] is None:
                raise StructuralError("relation closure violates antisymmetry")
        else:
            stack.pop()
            if stack:
                up[x] = frozenset((x,)).union(*map(up.__getitem__, succ[x]))
    return up


def is_partial_order(elements: Iterable[Label], pairs: Iterable[tuple]) -> bool:
    """Check whether the reflexive-transitive closure of the given relation
    is antisymmetric, i.e. generates a partial order on the elements."""
    try:
        Poset(elements, pairs)
    except (NotAMemberError, StructuralError):
        return False
    return True


def connected_classes(elements: Iterable[Label], pairs: Iterable[tuple]) -> list[list]:
    """Classes of the equivalence relation the pairs generate, by union-find.

    Members keep the order of `elements`, and classes come in the order of
    their first member.
    """
    parent = {e: e for e in elements}

    def find(x):
        # path halving: each step points x at its grandparent
        while (up := parent[x]) != x:
            parent[x] = x = parent[up]
        return x

    for a, b in pairs:
        # the hottest loop of the k=1 sweep, so find is inlined here
        while (up := parent[a]) != a:
            parent[a] = a = parent[up]
        while (up := parent[b]) != b:
            parent[b] = b = parent[up]
        parent[a] = b
    classes: dict = {}
    for e in parent:
        classes.setdefault(find(e), []).append(e)
    return list(classes.values())


class Poset:
    """A finite partial order.

    `relations` is any generating set of pairs (a, b) meaning a <= b; the
    constructor closes it reflexively and transitively and rejects a
    closure that violates antisymmetry.
    """

    def __init__(self, elements: Iterable[Label], relations: Iterable[tuple] = ()):
        self.elements = frozenset(elements)
        self._up = _closure_upsets(self.elements, relations)
        self._covers: frozenset | None = None

    @classmethod
    def _of_upsets(cls, up: dict, covers: frozenset | None = None) -> "Poset":
        """The poset whose up-sets `up` are already closed and antisymmetric,
        and whose covers are `covers` when the caller already knows them."""
        p = cls.__new__(cls)
        p.elements, p._up, p._covers = frozenset(up), up, covers
        return p

    def leq(self, a: Label, b: Label) -> bool:
        if a not in self.elements or b not in self.elements:
            raise NotAMemberError(f"{a!r} or {b!r} not in poset")
        return b in self._up[a]

    def comparable(self, a: Label, b: Label) -> bool:
        return self.leq(a, b) or self.leq(b, a)

    def up_set(self, p: Label) -> frozenset:
        """The minimal open neighbourhood {q : p <= q}."""
        if p not in self.elements:
            raise NotAMemberError(f"{p!r} not in poset")
        return self._up[p]

    def is_open(self, subset: Iterable[Label]) -> bool:
        """True iff the subset is up-closed, i.e. open in the topology."""
        s = set(subset)
        if not s <= self.elements:
            raise NotAMemberError("subset mentions elements outside the poset")
        return all(self._up[p] <= s for p in s)

    @property
    def covers(self) -> frozenset:
        """Covering pairs (a, b): a < b with nothing strictly between."""
        if self._covers is None:
            strict = {a: up - {a} for a, up in self._up.items()}
            self._covers = frozenset(
                (a, b) for a, above in strict.items()
                for b in above.difference(*map(strict.__getitem__, above)))
        return self._covers

    def minima(self) -> frozenset:
        """The elements strictly above nothing."""
        return self.elements.difference(*(up - {x} for x, up in self._up.items()))

    def maxima(self) -> frozenset:
        return frozenset(e for e in self.elements if self._up[e] == frozenset({e}))

    def sorted_elements(self) -> list:
        return canon_sorted(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poset):
            return NotImplemented
        return self.elements == other.elements and self._up == other._up

    def __hash__(self):
        return hash((self.elements,
                     tuple((e, self._up[e]) for e in canon_sorted(self._up))))

    def __repr__(self) -> str:
        return f"Poset({len(self.elements)} elements, {len(self.covers)} covers)"

    def relation_pairs(self) -> frozenset:
        return frozenset((a, b) for a in self.elements for b in self._up[a])


def validate_poset(p: Poset) -> bool:
    """Re-check reflexivity, transitivity and antisymmetry of the cached closure."""
    up = p._up
    if set(up) != set(p.elements):
        return False
    for a in p.elements:
        if a not in up[a]:
            return False
        for b in up[a]:
            if not up[b] <= up[a]:
                return False
            if a != b and a in up[b]:
                return False
    return True


def chain_poset(values: Iterable[Label]) -> Poset:
    """The linear order on the given values, smallest first."""
    vals = list(values)
    return Poset(vals, [(vals[i], vals[i + 1]) for i in range(len(vals) - 1)])


def product(p: Poset, q: Poset) -> Poset:
    """Categorical product: pairs ordered componentwise."""
    return Poset._of_upsets({(a, b): frozenset(itertools.product(ua, ub))
                             for a, ua in p._up.items() for b, ub in q._up.items()})


def _fresh_label(p: Poset, label: Label) -> Label:
    if label in p.elements:
        raise StructuralError(f"cone label {label!r} already used in the poset")
    return label


def left_cone(p: Poset, label: Label = "cone_min") -> Poset:
    """Adjoin a new global minimum."""
    _fresh_label(p, label)
    return Poset._of_upsets({**p._up, label: p.elements | {label}})


def right_cone(p: Poset, label: Label = "cone_max") -> Poset:
    """Adjoin a new global maximum."""
    _fresh_label(p, label)
    return wedge_extend(p, (label,), [(e, label) for e in p.elements])


def wedge_extend(q: Poset, components: Iterable[Label],
                 closure_pairs: Iterable[tuple]) -> Poset:
    """Extend a stratification poset by the connected components of the
    ambient complement.

    Each component label becomes a new element sitting strictly above every
    base element it is paired with; pairs (l, a) say that the l-stratum lies
    in the closure of component a.  Components end up maximal.
    """
    comps = set(components)
    if comps & set(q.elements):
        raise StructuralError("component labels collide with base elements")
    over: dict = {}
    for l, a in closure_pairs:
        if l not in q.elements:
            raise NotAMemberError(f"closure pair base {l!r} not in the poset")
        if a not in comps:
            raise NotAMemberError(f"closure pair component {a!r} unknown")
        over.setdefault(l, set()).add(a)
    up = {}
    for x, ux in q._up.items():
        extra = [over[l] for l in ux if l in over]
        up[x] = ux.union(*extra) if extra else ux
    up.update((a, frozenset((a,))) for a in comps)
    return Poset._of_upsets(up)


def collapse_to_point(p: Poset, subset: Iterable[Label], new_label: Label) -> Poset:
    """Quotient poset identifying the whole subset to a single element.

    The quotient relation [x] <= [y] holds iff some representatives satisfy
    x' <= y'.  Antisymmetry of the result is checked by construction; callers
    normally collapse a set of maximal elements, where it always holds.
    """
    sub = set(subset)
    if not sub <= set(p.elements):
        raise NotAMemberError("subset mentions elements outside the poset")
    if new_label in p.elements - sub:
        raise StructuralError(f"label {new_label!r} already present")

    def cls(x):
        return new_label if x in sub else x

    rel = {(cls(a), cls(b)) for a in p.elements for b in p.up_set(a)}
    return Poset({cls(e) for e in p.elements}, rel)


def _maximal_chains(p: Poset):
    """The maximal chains of p, yielded lazily in `canon_key` order: depth
    first from the least minimum, each element's covers sorted once, when
    the walk first reaches it.  No maximal chain is a prefix of another, so
    the walk's order is the sorted one."""
    covers: dict = {}
    for a, b in p.covers:
        covers.setdefault(a, []).append(b)
    ordered: dict = {}    # element -> its covers, largest first
    stack = [(m,) for m in reversed(canon_sorted(p.minima()))]
    while stack:
        chain = stack.pop()
        if (x := chain[-1]) not in ordered:
            ordered[x] = canon_sorted(covers.get(x, ()))[::-1]
        if ordered[x]:
            stack.extend(chain + (b,) for b in ordered[x])
        else:
            yield chain


def linear_subposets(p: Poset) -> list[tuple]:
    """All maximal chains, in deterministic label order."""
    return list(_maximal_chains(p))


# ---------------------------------------------------------------------------
# monotone maps

@dataclass(frozen=True)
class MonotoneMap:
    """A continuous (= monotone) map between finite posets."""
    source: Poset
    target: Poset
    mapping: Mapping

    def __post_init__(self):
        missing = set(self.source.elements) - set(self.mapping)
        if missing:
            raise StructuralError(f"map not total, missing {canon_sorted(missing)!r}")
        for v in self.mapping.values():
            if v not in self.target.elements:
                raise NotAMemberError(f"image {v!r} not in target poset")
        for a, b in self.source.covers:
            if not self.target.leq(self.mapping[a], self.mapping[b]):
                raise StructuralError(
                    f"not monotone on cover ({a!r}, {b!r})")

    def __call__(self, x):
        return self.mapping[x]

    def then(self, other: "MonotoneMap") -> "MonotoneMap":
        """Composite self followed by other."""
        if other.source.elements != self.target.elements:
            raise StructuralError("composition carrier mismatch")
        return MonotoneMap(self.source, other.target,
                           {x: other.mapping[y] for x, y in self.mapping.items()})

    def is_surjective(self) -> bool:
        return set(self.mapping.values()) == set(self.target.elements)


# ---------------------------------------------------------------------------
# stratified spaces

@dataclass(frozen=True)
class StratifiedSpace:
    """A carrier of discrete cells, a closure relation between cells, and a
    continuous assignment of cells to elements of a stratification poset.

    `closure` holds pairs (face, cell): the face cell lies in the closure of
    the other.  Continuity means assignment(face) <= assignment(cell).
    """
    poset: Poset
    cells: frozenset
    closure: frozenset
    assignment: Mapping = field(hash=False)

    def __post_init__(self):
        if set(self.assignment) != set(self.cells):
            raise StructuralError("assignment must cover exactly the carrier cells")
        for c, s in self.assignment.items():
            if s not in self.poset.elements:
                raise NotAMemberError(f"stratum {s!r} of cell {c!r} not in the poset")
        strata, up = self.assignment, self.poset._up
        # the assignment's keys are the cells, so its lookup is the
        # membership test, and the up-sets answer `leq` without its checks
        for lo, hi in self.closure:
            try:
                continuous = strata[hi] in up[strata[lo]]
            except KeyError:
                raise NotAMemberError("closure pair mentions unknown cell") from None
            if not continuous:
                raise StructuralError(
                    f"assignment not continuous on closure pair ({lo!r}, {hi!r})")

    def strata(self) -> dict:
        out: dict = {e: set() for e in self.poset.elements}
        for c, s in self.assignment.items():
            out[s].add(c)
        return out


def check_stratified_map(cell_map: Mapping, source: StratifiedSpace,
                         target: StratifiedSpace):
    """Decide whether a map of carrier cells induces a monotone map of
    stratification posets.

    Returns (True, MonotoneMap) on success and (False, None) when the induced
    assignment is ill-defined or order-violating.  Every source poset element
    must carry at least one cell, otherwise the induced map is underdetermined
    and a structural error is raised.
    """
    if set(cell_map) != set(source.cells):
        raise StructuralError("cell map must be defined on exactly the source cells")
    for v in cell_map.values():
        if v not in target.cells:
            raise NotAMemberError(f"cell image {v!r} not in target carrier")
    strata = source.strata()
    empty = [e for e, cs in strata.items() if not cs]
    if empty:
        raise StructuralError(f"source strata without cells: {canon_sorted(empty)!r}")
    induced: dict = {}
    for e, cs in strata.items():
        images = {target.assignment[cell_map[c]] for c in cs}
        if len(images) != 1:
            return False, None
        induced[e] = images.pop()
    for a, b in source.poset.covers:
        if not target.poset.leq(induced[a], induced[b]):
            return False, None
    return True, MonotoneMap(source.poset, target.poset, induced)


def is_refinement(fine: StratifiedSpace, coarse: StratifiedSpace) -> bool:
    """True when the identity on a shared carrier induces a monotone
    surjection from the fine stratification poset onto the coarse one."""
    if fine.cells != coarse.cells:
        raise StructuralError("refinement requires identical carriers")
    ok, mono = check_stratified_map({c: c for c in fine.cells}, fine, coarse)
    return ok and mono.is_surjective()


# ---------------------------------------------------------------------------
# serialization

def poset_to_json_dict(p: Poset) -> dict:
    """Elements and cover pairs in `canon_key` order, labels as they are;
    `io.canonical_dumps` writes tuple labels as arrays."""
    els = p.sorted_elements()
    return {"elements": els, "covers": sorted_pairs(p.covers, els)}


def sorted_pairs(pairs: Iterable[tuple], ordered: list) -> list:
    """`pairs` in the lexicographic order of their ends' positions in
    `ordered`, which lists every end once."""
    rank = {e: i for i, e in enumerate(ordered)}
    n = len(ordered)
    return sorted(pairs, key=lambda ab: rank[ab[0]] * n + rank[ab[1]])

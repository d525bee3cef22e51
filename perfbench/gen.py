"""Seeded inputs for the benchmark workloads.

Every generator draws from `random.Random` seeded with a string, so the
same seed gives the same inputs on every machine and interpreter, and the
JSON text is written with sorted keys so the files are byte-identical too.

Each torus workload has one base map, drawn once from a fixed stream, and
the benchmark seed jitters it.  Independent random maps of these sizes
differ too much in cost for runs on different seeds to be compared: on a
2-core x86-64 VM with Python 3.11.7, the codomain arrangement of a random
6x6 torus projection took 1.2 s to 3.6 s over 12 draws, and the fiber
audit of a random 10x10 height map 1.5 s to 2.6 s.
Jittered copies of one base keep the combinatorics nearly fixed while every
seed still gives different coordinates, critical values and bundles.
"""
from __future__ import annotations

import json
import os
import random
from fractions import Fraction
from itertools import combinations

# the seed the recorded bundle digests in expected.json belong to
DEFAULT_SEED = 1
# kept out of every tuning run; a later gain claim must also hold here
HOLDOUT_SEED = 2

TORUS_K1_SIZE = 10      # 10x10 torus: 100 vertices, 600 simplices
TORUS_K2_SIZE = 6       # 6x6 torus: 36 vertices, 216 simplices
K2_COORD_RANGE = 1000   # planar images are integer points in [0, 1000)^2
K2_JITTER = 10          # each coordinate moves by at most this much
# draw 1 of the base stream gives an arrangement of about 400 vertices and
# 800 edges under the H notion, the scale this workload is meant to have
K2_BASE_DRAW = 1
K1_SWAP = 3             # vertices this many base ranks apart may trade places
MAPS_PER_WORKLOAD = 6   # inputs per workload; a round runs each once


def torus_facets(n: int) -> list[list[str]]:
    """Triangles of the n x n grid torus: each square (i, j) is cut along
    its diagonal from (i, j) to (i + 1, j + 1)."""
    def label(i, j):
        return f"v{i % n}_{j % n}"
    out = []
    for i in range(n):
        for j in range(n):
            out.append([label(i, j), label(i + 1, j), label(i + 1, j + 1)])
            out.append([label(i, j), label(i, j + 1), label(i + 1, j + 1)])
    return out


def closure_size(facets) -> int:
    """Number of nonempty faces of the complex the facets generate."""
    faces = set()
    for f in facets:
        verts = sorted(f)
        for r in range(1, len(verts) + 1):
            faces.update(combinations(verts, r))
    return len(faces)


def _vertices(facets) -> list[str]:
    return sorted({v for f in facets for v in f})


def torus_height_map(n: int, rng: random.Random) -> dict:
    """Scalar map with values 0 .. V-1 on the n x n torus: a fixed random
    ranking of the vertices, with ranks less than K1_SWAP apart reordered
    at random."""
    facets = torus_facets(n)
    verts = _vertices(facets)
    base = list(range(len(verts)))
    base_rng(f"torus_k1:{n}").shuffle(base)
    key = {v: 1000 * b + rng.randrange(1000 * K1_SWAP) for v, b in zip(verts, base)}
    order = sorted(verts, key=lambda v: (key[v], v))
    return {"kind": "map", "k": 1, "facets": facets,
            "values": {v: i for i, v in enumerate(order)}}


def _orient(a, b, c) -> int:
    s = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (s > 0) - (s < 0)


def _crossing(a, b, c, d):
    """The point where segments ab and cd cross properly, or None."""
    if (_orient(a, b, c) * _orient(a, b, d) >= 0
            or _orient(c, d, a) * _orient(c, d, b) >= 0):
        return None
    r = (b[0] - a[0], b[1] - a[1])
    s = (d[0] - c[0], d[1] - c[1])
    t = Fraction((c[0] - a[0]) * s[1] - (c[1] - a[1]) * s[0],
                 r[0] * s[1] - r[1] * s[0])
    return (a[0] + t * r[0], a[1] + t * r[1])


def planar_position_is_general(facets, values) -> bool:
    """No three vertex images collinear (or equal), and no three images of
    domain edges through one crossing point.

    Every codomain arrangement is built from images of domain edges, so
    this keeps `stratify-codomain` from rejecting the input as degenerate
    whatever the critical locus turns out to be.
    """
    pts = list(values.values())
    if any(_orient(a, b, c) == 0 for a, b, c in combinations(pts, 3)):
        return False
    edges = sorted({tuple(sorted(e)) for f in facets
                    for e in combinations(f, 2)})
    seen = set()
    for (p, q), (r, s) in combinations(edges, 2):
        if {p, q} & {r, s}:
            continue
        x = _crossing(values[p], values[q], values[r], values[s])
        if x is None:
            continue
        if x in seen:
            return False
        seen.add(x)
    return True


def _random_points(verts, rng):
    return {v: (rng.randrange(K2_COORD_RANGE), rng.randrange(K2_COORD_RANGE))
            for v in verts}


def torus_projections(n: int, rngs, check_generic) -> list[dict]:
    """Planar maps of the n x n torus with integer coordinates, one per
    generator in `rngs`: a fixed random base map with every coordinate
    moved by at most K2_JITTER, drawn until it is in general position and
    `check_generic` (the package's own genericity audit, given as a
    callable on the JSON dict) accepts it."""
    facets = torus_facets(n)
    verts = _vertices(facets)
    brng = base_rng(f"torus_k2:{n}:{K2_BASE_DRAW}")
    base = _random_points(verts, brng)
    while not planar_position_is_general(facets, base):
        base = _random_points(verts, brng)
    docs = []
    for rng in rngs:
        while True:
            values = {v: (x + rng.randint(-K2_JITTER, K2_JITTER),
                          y + rng.randint(-K2_JITTER, K2_JITTER))
                      for v, (x, y) in base.items()}
            if not planar_position_is_general(facets, values):
                continue
            doc = {"kind": "map", "k": 2, "facets": facets,
                   "values": {v: list(p) for v, p in values.items()}}
            if check_generic(doc):
                docs.append(doc)
                break
    return docs


def dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def write_maps(directory: str, stem: str, docs) -> list[str]:
    os.makedirs(directory, exist_ok=True)
    paths = []
    for i, doc in enumerate(docs):
        path = os.path.join(directory, f"{stem}{i}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dumps(doc))
        paths.append(path)
    return paths


def map_rng(seed: int, workload: str, index: int) -> random.Random:
    return random.Random(f"{seed}:{workload}:{index}")


def base_rng(name: str) -> random.Random:
    """The fixed stream a workload's base map comes from."""
    return random.Random(f"base:{name}")

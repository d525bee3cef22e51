"""Correctness checks on the files a CLI run writes.

Nothing here imports the package: every invariant is recomputed from the
JSON the run wrote, so a bug in the package cannot hide itself.  Each check
returns a list of problems, empty when the output is correct.
"""
from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected.json")


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def digest_files(paths) -> str:
    """sha256 over (base name, bytes) of the files, in name order."""
    h = hashlib.sha256()
    for path in sorted(paths, key=os.path.basename):
        h.update(os.path.basename(path).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def bundle_files(directory: str) -> list[str]:
    return [os.path.join(directory, n) for n in sorted(os.listdir(directory))]


def _read(directory, name):
    path = os.path.join(directory, name)
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _components(nodes, edges) -> int:
    parent = {n: n for n in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x
    for a, b in edges:
        parent[find(a)] = find(b)
    return len({find(n) for n in nodes})


def reeb_problems(reeb: dict, jacobi: dict, torus: bool) -> list[str]:
    """Cycle rank recomputed from the graph (1 on a torus), and one node per
    H-critical vertex of the verdict table."""
    out = []
    nodes, edges = reeb["nodes"], [tuple(e) for e in reeb["edges"]]
    rank = len(edges) - len(nodes) + _components(nodes, edges)
    if rank != reeb["cycle_rank"]:
        out.append(f"reeb cycle rank recomputes to {rank}, file says "
                   f"{reeb['cycle_rank']}")
    if torus and rank != 1:
        out.append(f"reeb cycle rank {rank} on a torus")
    h_crit = sum(1 for v in jacobi["verdicts"]
                 if len(v["simplex"]) == 1 and v["h_critical"])
    if len(nodes) != h_crit:
        out.append(f"{len(nodes)} reeb nodes but {h_crit} H-critical vertices")
    return out


def _pt(p) -> tuple:
    return tuple(Fraction(c) for c in p)


def euler_problems(codomain: dict) -> list[str]:
    """V - E + F = 1 + C for a planar codomain, with every count taken from
    the stratum geometry rather than from the file's own tally."""
    geom = codomain["geometry"]
    if "euler" not in codomain:
        return []
    points, segments = set(), []
    faces = 0
    for label, g in geom.items():
        if label[0] in "vz":
            points.add(_pt(g))
        elif label[0] == "e":
            segments.append((_pt(g[0]), _pt(g[1])))
        elif label[0] == "c":
            segments.extend((_pt(a), _pt(b)) for a, b in g)
        elif label[0] == "f":
            faces += 1
    for a, b in segments:
        points.update((a, b))
    v, e = len(points), len(segments)
    c = _components(points, segments)
    out = []
    if v - e + faces != 1 + c:
        out.append(f"V - E + F = {v} - {e} + {faces} but 1 + C = {1 + c}")
    told = codomain["euler"]
    if (told["vertices"], told["edges"], told["faces"], told["components"]) \
            != (v, e, faces, c):
        out.append(f"euler block {told} disagrees with geometry "
                   f"({v}, {e}, {faces}, {c})")
    return out


def bundle_problems(directory: str, torus: bool) -> list[str]:
    """Every invariant that applies to the files present in a bundle."""
    out = []
    reeb = _read(directory, "reeb.json")
    if reeb is not None:
        out += reeb_problems(reeb, _read(directory, "jacobi.json"), torus)
    codomain = _read(directory, "codomain_strat.json")
    if codomain is not None:
        out += euler_problems(codomain)
    audit = _read(directory, "audit.json")
    if audit is not None and audit.get("passed") is not True:
        out.append("audit.json does not pass")
    return out


def max_coord_bits(codomain: dict) -> int:
    """Largest numerator or denominator bit length over the arrangement
    vertices of a planar codomain; 0 for a codomain on the line."""
    best = 0
    for label, g in codomain["geometry"].items():
        if label[0] in "vz":
            for c in g:
                x = Fraction(c)
                best = max(best, x.numerator.bit_length(),
                           x.denominator.bit_length())
    return best


def covering_pairs(scaffold: dict) -> int:
    return len(scaffold["codomain"]["stratification"]["poset"]["covers"])

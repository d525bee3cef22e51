"""Serialization round-trips and the command line surface."""
import argparse
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import plstrat
from helpers import (naive_dumps, naive_witness, random_complex, random_planar_map,
                     random_surface_map, torus_height_map, torus_projection)
from plstrat import errors
from plstrat import (InputError, Simplex, build_codomain_stratification,
                     check_generic, jacobi_set, manifold_check)
from plstrat.cli import main
from plstrat.geometry import format_frac
from plstrat.io import (canonical_dumps, codomain_to_dict, example_input,
                        example_map, example_names, filtration_text,
                        input_from_dict, jacobi_report_dict, load_example,
                        locus_from_dict, map_from_dict, parse_fraction,
                        reeb_to_dot)

F = Fraction


class TestFractions:
    def test_parse_forms(self):
        assert parse_fraction("3/4") == F(3, 4)
        assert parse_fraction("-2") == F(-2)
        assert parse_fraction(7) == F(7)

    def test_rejects_floats_and_garbage(self):
        with pytest.raises(InputError):
            parse_fraction(0.25)
        with pytest.raises(InputError):
            parse_fraction("abc")
        with pytest.raises(InputError):
            parse_fraction(True)


class TestRoundTrips:
    def test_example_input_dispatch(self):
        from plstrat import PLMap, SingularLocus
        assert isinstance(example_input("octahedron"), PLMap)
        assert isinstance(example_input("oval_contour"), SingularLocus)

    def test_map_rejects_float_values(self):
        data = load_example("octahedron")
        data["values"]["m"] = 0.5
        with pytest.raises(InputError):
            map_from_dict(data)

    def test_emitted_reports_are_canonical_json(self):
        f = example_map("torus_grid")
        j = jacobi_set(f)
        for doc in (jacobi_report_dict(f, j),
                    codomain_to_dict(build_codomain_stratification(f, j))):
            text = canonical_dumps(doc)
            assert text.endswith("\n")
            assert canonical_dumps(json.loads(text)) == text


# quotes, backslashes, control, non-ASCII and astral characters, a lone
# surrogate and a comma: each escape the ASCII encoder knows
_CHARS = ["a", "Z", "0", " ", ",", '"', "\\", "/", "\n", "\t", "\x00", "\x1f",
          "\x7f", "\u00e9", "\u2603", "\U0001F600", "\ud800"]


def _random_text(rng) -> str:
    return "".join(rng.choice(_CHARS) for _ in range(rng.randrange(5)))


def _random_scalar(rng):
    return rng.choice([lambda: _random_text(rng),
                       lambda: rng.randint(-2 ** 100, 2 ** 100),
                       lambda: rng.randint(-2, 2),
                       lambda: rng.choice([True, False]),
                       lambda: None])()


def _random_texts(rng, n) -> list:
    """Up to n distinct texts in an order drawn from `rng` alone, not
    from the string hash."""
    texts = sorted({_random_text(rng) for _ in range(n)})
    rng.shuffle(texts)
    return texts


def _random_array(rng, n):
    return rng.choice([list, tuple, Simplex])(_random_texts(rng, n + 1))


def _label_pool(rng) -> list:
    """A few labels, strs and tuples and `Simplex` of strs and an empty
    array, shared by one document so that a label recurs at several
    indents."""
    pool = [()]
    for _ in range(4):
        texts = _random_texts(rng, rng.randrange(1, 4))
        pool.append(rng.choice([lambda: texts[0], lambda: tuple(texts),
                                lambda: Simplex(texts)])())
    return pool


def _random_row(rng, pool):
    """A row of labels from `pool`, at times with an empty list or a list
    of strs among them."""
    row = [rng.choice(pool) for _ in range(rng.choice([0, 1, 2, 2, 3]))]
    if rng.random() < 0.1:
        row.insert(rng.randrange(len(row) + 1),
                   rng.choice([[], [_random_text(rng)]]))
    return rng.choice([list, tuple])(row)


def _odd_item(rng):
    text = _random_text(rng)
    return rng.choice([lambda: {text: text}, lambda: {text},
                       lambda: frozenset({text}), lambda: 0.5,
                       lambda: (text, [text])])()


def _random_document(rng, depth: int = 0, pool=None):
    """Nested dicts, lists, tuples and `Simplex`, empty ones among them,
    with runs of strings, of ints, of string arrays and rows of labels
    drawn from one pool per document (the shapes the writer writes at
    once), some with one odd item to break the run."""
    if pool is None:
        pool = _label_pool(rng)
    if depth == 4:
        return _random_scalar(rng)
    n = rng.randrange(5)
    kind = rng.randrange(9)
    if kind == 0:
        return {_random_text(rng): _random_document(rng, depth + 1, pool)
                for _ in range(n)}
    if kind in (1, 2):
        items = [_random_document(rng, depth + 1, pool) for _ in range(n)]
        return items if kind == 1 else tuple(items)
    if kind == 3:
        items = [_random_text(rng) for _ in range(n)]
    elif kind == 4:
        items = [rng.randint(-2 ** 70, 2 ** 70) for _ in range(n)]
    elif kind == 5:
        items = [rng.choice([[], ()]) if rng.random() < 0.2 else _random_array(rng, 2)
                 for _ in range(n)]
    elif kind == 6:
        return _random_array(rng, n)
    elif kind == 7:
        items = [_random_row(rng, pool) for _ in range(n)]
        if items and rng.random() < 0.3:
            # one odd item in one row
            i = rng.randrange(len(items))
            row = list(items[i])
            row.insert(rng.randrange(len(row) + 1), _odd_item(rng))
            items[i] = row
    else:
        return _random_scalar(rng)
    if items and rng.random() < 0.3:
        items[rng.randrange(len(items))] = _random_scalar(rng)
    return items


def _writable(doc) -> bool:
    """False when `doc` holds a float or a set, which `canonical_dumps`
    refuses."""
    if isinstance(doc, (float, set, frozenset)):
        return False
    if isinstance(doc, dict):
        return all(map(_writable, doc.values()))
    return not isinstance(doc, (list, tuple)) or all(map(_writable, doc))


class TestCanonicalDumps:
    def test_random_documents_match_json_dumps(self, rng):
        for _ in range(2000):
            doc = _random_document(rng)
            if _writable(doc):
                assert canonical_dumps(doc) == naive_dumps(doc), doc
            else:
                with pytest.raises(TypeError):
                    canonical_dumps(doc)

    @pytest.mark.parametrize("example", example_names())
    def test_cli_documents_match_json_dumps(self, monkeypatch, tmp_path,
                                            example):
        import plstrat.io
        docs = []

        def recorded(obj):
            docs.append(obj)
            return naive_dumps(obj)
        monkeypatch.setattr(plstrat.io, "canonical_dumps", recorded)
        main(["example", example])
        for notion in ("H", "D", "L"):
            main(["pipeline", "--example", example, "--notion", notion,
                  "--out", str(tmp_path / notion), "--filtration"])
            main(["reeb", "--example", example, "--notion", notion,
                  "--out", str(tmp_path / f"reeb_{notion}.json")])
        assert len(docs) >= 4     # the input and a bundle per notion at least
        for doc in docs:
            assert canonical_dumps(doc) == naive_dumps(doc)

    @pytest.mark.parametrize("doc", [
        0.5, [1, 2.0], {"a": [float("nan")]}, {1: "a"}, {"a": {2: "b"}},
        {"a": 1, 2: "b"}, {"a"}, [frozenset()], [("a", frozenset("b"))],
        [(Simplex("a"), 0.5)], F(1, 2)],
        ids=["float", "float-item", "nan", "int-key", "nested-int-key",
             "mixed-keys", "set", "frozenset-item", "frozenset-in-row",
             "float-in-row", "fraction"])
    def test_refuses_what_it_cannot_write_exactly(self, doc):
        with pytest.raises(TypeError):
            canonical_dumps(doc)


class TestExamples:
    def test_bundled_names(self):
        assert example_names() == ["double_cone", "figure_eight_contour",
                                   "octahedron", "oval_contour",
                                   "saddle_patch", "solid_tetrahedron",
                                   "torus_grid"]

    def test_unknown_name_is_input_error(self):
        with pytest.raises(InputError):
            load_example("nope")

    def test_a_relative_path_is_no_name(self, tmp_path):
        # a JSON file outside the package, named relative to the examples
        (tmp_path / "outside.json").write_text('{"kind": "map"}')
        data = os.path.join(os.path.dirname(os.path.realpath(plstrat.__file__)),
                            "data")
        name = os.path.relpath(os.path.realpath(tmp_path / "outside"), data)
        assert os.path.isfile(os.path.join(data, name + ".json"))
        with pytest.raises(InputError, match="no bundled example named"):
            load_example(name)


class TestTextFormats:
    def test_reeb_dot_shape(self):
        from plstrat import reeb_graph
        dot = reeb_to_dot(reeb_graph(example_map("torus_grid")))
        assert dot.startswith("graph reeb {")
        assert dot.count(" -- ") == 4
        assert "rank=same" in dot

    def test_filtration_lines(self):
        text = filtration_text(("v0", "e2", "f0"))
        assert text == "v0 0 0\ne2 1 1\nf0 2 2\n"


class TestCliCommands:
    def test_validate_generic_input(self, capsys):
        assert main(["validate", "--example", "octahedron"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["genericity"]["passed"] is True

    def test_validate_non_generic_exits_2(self, capsys):
        assert main(["validate", "--example", "double_cone"]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["genericity"]["passed"] is False

    def test_genericity_failure_names_its_first_violation(self, tmp_path, capsys):
        # validate.json is written and the exit code stays 2; stderr gets
        # the rule and the first witness in the input's labels
        assert main(["validate", "--example", "double_cone"]) == 2
        assert capsys.readouterr().err == (
            "error: G2 duplicate vertex value at e0 and e2 (3 violations)\n")
        out = tmp_path / "bundle"
        assert main(["pipeline", "--example", "double_cone", "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("error: stage validate: G2 duplicate "
                                           "vertex value at e0 and e2 (3 violations)\n")
        path = tmp_path / "in.json"
        path.write_text(json.dumps({"k": 2, "facets": [["a", "b"]],
                                    "values": {"a": [0, 0], "b": [0, 0]}}))
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: G1 image not affinely independent at {a, b} (1 violation)\n")

    def test_shared_locus_image_names_labels_and_point(self, tmp_path, capsys):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(
            {"k": 2, "facets": [["a", "b", "c"]],
             "values": {"a": [0, 0], "b": [0, 0], "c": [1, 1]}}))
        assert main(["stratify-codomain", str(path), "--notion", "D"]) == 2
        assert capsys.readouterr().err == (
            "error: locus vertices 'a' and 'b' share the image point (0, 0)\n")

    def test_jacobi_report(self, tmp_path):
        out = tmp_path / "j.json"
        assert main(["jacobi", "--example", "octahedron",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        verts = {s[0] for s in doc["critical"]["simplices"] if len(s) == 1}
        assert verts == {"m", "w"}
        table = {v["simplex"][0]: v for v in doc["verdicts"]}
        assert set(table) == {"a", "b", "c", "d", "m", "w"}
        assert table["m"] == {"simplex": ["m"], "h_critical": True,
                              "d_critical": True, "l_critical": True}
        assert table["a"]["h_critical"] is False

    def test_reeb_command(self, capsys):
        assert main(["reeb", "--example", "torus_grid"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["reeb"]["nodes"]) == 4

    def test_locus_command(self, capsys):
        assert main(["morse2-locus", "--example", "oval_contour"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["coarse"] is True

    def test_example_listing(self, capsys):
        assert main(["example"]) == 0
        assert "torus_grid" in capsys.readouterr().out

    def test_missing_input_is_exit_1(self, capsys):
        assert main(["jacobi"]) == 1

    def test_unknown_example_is_exit_1(self, capsys):
        assert main(["validate", "--example", "nope"]) == 1

    @pytest.mark.parametrize("argv", [["validate", "--example"], ["example"]])
    def test_a_path_to_an_example_is_exit_1(self, capsys, argv):
        # it names the octahedron's file, but is not an example name
        assert main(argv + ["../data/octahedron"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "no bundled example named '../data/octahedron'" in err

    def test_usage_error_is_exit_1(self, capsys):
        assert main(["no-such-command"]) == 1

    @pytest.mark.parametrize("command, example", [
        ("validate", "octahedron"), ("morse2-locus", "oval_contour")])
    def test_a_file_and_an_example_is_exit_1(self, monkeypatch, tmp_path,
                                             capsys, command, example):
        import plstrat.io

        def unread(*args):
            raise AssertionError("an input was read")
        monkeypatch.setattr(plstrat.io, "_load_json", unread)
        monkeypatch.setattr(plstrat.io, "load_example", unread)
        missing = str(tmp_path / "missing.json")
        assert main([command, missing, "--example", example]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert missing in err and f"--example {example}" in err

    @pytest.mark.parametrize("command, example", [
        ("validate", "oval_contour"), ("reeb", "figure_eight_contour"),
        ("morse2-locus", "torus_grid")])
    def test_wrong_input_kind_is_exit_1(self, tmp_path, capsys, command,
                                        example):
        path = tmp_path / "input.json"
        path.write_text(canonical_dumps(load_example(example)))
        for source in (["--example", example], [str(path)]):
            assert main([command] + source) == 1
            assert "is not a" in capsys.readouterr().err


_CUSP, _POINT, _LABEL = ("cusps", 0, 1), ("strands", 0, 1), ("facets", 0, 0)
_MALFORMED = [pytest.param(command, "figure_eight_contour", where, value,
                           id=f"{command}-{name}")
              for command in ("morse2-locus", "pipeline")
              for name, where, value in (
                  ("cusp-str", _CUSP, "a"), ("cusp-float", _CUSP, 1.7),
                  ("cusp-bool", _CUSP, True), ("point-int", _POINT, 5),
                  ("point-1d", _POINT, ["0"]), ("point-3d", _POINT, [-3, 2, 0]))]
_MALFORMED += [pytest.param("pipeline", "octahedron", _LABEL, ["x"], id="label-list"),
               pytest.param("pipeline", "octahedron", _LABEL, {"a": 1}, id="label-dict")]


@pytest.mark.parametrize("command, example, where, value", _MALFORMED)
def test_malformed_input_is_exit_1(tmp_path, capsys, command, example, where,
                                   value):
    doc = load_example(example)
    key, i, j = where
    doc[key][i][j] = value
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    assert main([command, str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err, err


@pytest.mark.parametrize("command", ["validate", "pipeline",
                                     "export-filtration"])
def test_comma_in_a_vertex_label_is_exit_1(tmp_path, capsys, command):
    # "a,b" and the edge (a, b) would share one key of validate.json's links
    path = tmp_path / "comma.json"
    path.write_text(json.dumps({"k": 1, "facets": [["a", "b", "a,b"]],
                                "values": {"a": "0", "b": "1", "a,b": "3"}}))
    assert main([command, str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == ("error: vertex labels must not "
                                       "contain ','\n")
    assert not (tmp_path / "out").exists()


# one map per genericity rule: a triangle with collinear vertex images
# (G1), two vertices at one value (G2), and an apex on the line of the
# image of its edge (G3)
_NON_GENERIC = {
    "G1": {"k": 2, "facets": [["a", "b", "c"]],
           "values": {"a": ["0", "0"], "b": ["1", "1"], "c": ["3", "3"]}},
    "G2": {"k": 1, "facets": [["a", "b"], ["b", "c"]],
           "values": {"a": "0", "b": "1", "c": "0"}},
    "G3": {"k": 2, "facets": [["a", "b", "c"], ["a", "b", "d"]],
           "values": {"a": ["0", "0"], "b": ["2", "0"], "c": ["1", "1"],
                      "d": ["3", "0"]}}}


@pytest.mark.parametrize("rule", sorted(_NON_GENERIC))
def test_validate_writes_each_witness_as_json_dumps_would(tmp_path, rule):
    """The writer takes the witnesses as `check_generic` gives them and
    writes the bytes `json.dumps` writes for them as arrays."""
    from plstrat.cli import _validate_doc
    path, out = tmp_path / "map.json", tmp_path / "validate.json"
    path.write_text(json.dumps(_NON_GENERIC[rule]))
    assert main(["validate", str(path), "--out", str(out)]) == 2
    f = map_from_dict(_NON_GENERIC[rule])
    gen = check_generic(f)
    assert rule in {code for code, _, _ in gen.violations}
    doc = _validate_doc(f, gen, manifold_check(f.domain))
    for row in doc["genericity"]["violations"]:
        row["witness"] = naive_witness(row["witness"])
    assert out.read_text() == naive_dumps(doc)


@pytest.mark.parametrize("hash_seed", ["0", "1", "2", "3"])
def test_a_missing_value_names_the_least_vertex_under_any_hash_seed(tmp_path, hash_seed):
    # the domain's vertices are a frozenset of strs, whose order follows the
    # string hash seed, so each seed runs in a process of its own
    path = tmp_path / "partial.json"
    path.write_text(json.dumps({"k": 1, "facets": [["a", "b", "c"], ["c", "d"]],
                                "values": {"a": "0"}}))
    src = os.path.dirname(os.path.dirname(os.path.realpath(plstrat.__file__)))
    run = subprocess.run([sys.executable, "-m", "plstrat.cli", "validate", str(path)],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src})
    assert (run.returncode, run.stdout, run.stderr) == (
        1, "", "error: no value for vertex 'b'\n")


@pytest.mark.parametrize("notion", ["H", "L"])
def test_tie_names_the_value_and_direction(tmp_path, capsys, notion):
    # the boundary of a tetrahedron, with b and c at one height
    path = tmp_path / "tie.json"
    path.write_text(json.dumps({
        "kind": "map", "k": 1,
        "facets": [["a", "b", "c"], ["a", "b", "d"], ["a", "c", "d"],
                   ["b", "c", "d"]],
        "values": {"a": 0, "b": "1/2", "c": "1/2", "d": 1}}))
    assert main(["jacobi", str(path), "--notion", notion]) == 2
    err = capsys.readouterr().err
    assert ("error: vertex 'c' ties with ('b',) at value 1/2 along direction (1)\n"
            in err), err


@pytest.mark.parametrize("example, component, key", [
    ("torus_grid", "{v00, v01, v11} at value 1001/500", "(6, 0)"),
    ("saddle_patch", "{a, b} at value 0", "(4, 0)"),
    ("double_cone", "{e0, e1} at value 0", "(2, 0)")])
def test_reeb_internal_error_names_value_and_simplex(capsys, example,
                                                     component, key):
    # the D locus misses a vertex where the fiber changes, so a node of the
    # Reeb graph lies over no critical value: a degeneracy, exit 2, named
    # in one line in input labels, not as the internal (level, index) key
    assert main(["reeb", "--example", example, "--notion", "D"]) == 2
    err = capsys.readouterr().err
    assert err == (f"error: fiber component through {component} is a node "
                   "of the Reeb graph over no critical value of the D "
                   "locus\n"), err
    assert key not in err


def _two_triangles(b) -> dict:
    """The planar map of the triangle a0=(0,0), a1=(4,0), a2=(0,4) and a
    second triangle with vertices b0, b1, b2 at the points b."""
    values = {"a0": ["0", "0"], "a1": ["4", "0"], "a2": ["0", "4"]}
    values.update((f"b{i}", [str(x), str(y)]) for i, (x, y) in enumerate(b))
    return {"kind": "map", "k": 2, "values": values,
            "facets": [["a0", "a1", "a2"], ["b0", "b1", "b2"]]}


_NONGENERIC_EDGE_IMAGES = {
    "endpoint inside": (
        _two_triangles([(2, 0), (2, -2), (5, -1)]),
        "edge images {b0, b1} and {a0, a1} meet at (2, 0), inside {a0, a1}"),
    "overlap": (
        _two_triangles([(1, 0), (3, 0), (2, -2)]),
        "edge images {a0, a1} and {b0, b1} overlap along a line"),
    "three through a point": (
        {"kind": "map", "k": 2, "facets": [["a0", "a1"], ["b0", "b1"], ["c0", "c1"]],
         "values": {"a0": ["-1", "0"], "a1": ["1", "0"], "b0": ["0", "-1"],
                    "b1": ["0", "1"], "c0": ["-1", "-1"], "c1": ["1", "1"]}},
        "edge images {a0, a1}, {b0, b1} and {c0, c1} meet at (0, 0)"),
}


@pytest.mark.parametrize("command", ["stratify-codomain", "pipeline"])
@pytest.mark.parametrize("case", sorted(_NONGENERIC_EDGE_IMAGES))
def test_nongeneric_edge_images_name_their_edges(tmp_path, capsys, command, case):
    # the map passes validation, and its edge images cut the plane out of
    # general position: exit 2, named by the domain edges in input labels
    document, message = _NONGENERIC_EDGE_IMAGES[case]
    path = tmp_path / "map.json"
    path.write_text(json.dumps(document))
    assert main(["validate", str(path)]) == 0
    capsys.readouterr()
    out = ["--out", str(tmp_path / "out")] if command == "pipeline" else []
    assert main([command, str(path), *out]) == 2
    stage = "stage codomain: " if command == "pipeline" else ""
    assert capsys.readouterr().err == f"error: {stage}{message}\n"


@pytest.mark.parametrize("command", ["reeb", "pipeline"])
@pytest.mark.parametrize("notion", ["H", "D", "L"])
def test_no_bundled_map_exits_3(tmp_path, capsys, command, notion):
    # every scalar and planar example ends with a result or a clean failure
    for name in example_names():
        if load_example(name).get("kind") == "locus":
            continue
        out = ["--out", str(tmp_path / name)] if command == "pipeline" else []
        code = main([command, "--example", name, "--notion", notion, *out])
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (name, err)
        assert (code == 0) == (err == ""), (name, err)


@pytest.mark.parametrize("example", ["torus_grid", "saddle_patch"])
def test_pipeline_stops_at_reeb_when_a_node_lies_over_no_critical_value(
        tmp_path, capsys, example):
    out = tmp_path / "bundle"
    assert main(["pipeline", "--example", example, "--notion", "D",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: stage reeb: fiber component through ")
    assert err.count("\n") == 1, err
    assert (out / "codomain_strat.json").exists()
    assert not (out / "reeb.json").exists() and not (out / "audit.json").exists()


def _map_document(f) -> dict:
    """The input document of a map, values as rational strings."""
    def value(v):
        point = [str(c) for c in f.value(v)]
        return point[0] if f.k == 1 else point
    return {"kind": "map", "k": f.k,
            "facets": [list(s) for s in f.domain.facets()],
            "values": {v: value(v) for v in sorted(f.domain.vertices)}}


class TestExitCodeFuzz:
    def test_random_maps_exit_0_1_or_2_and_say_why(self, rng, tmp_path, capsys):
        # scalar maps of closed surfaces, planar maps that may be far from
        # generic, and a generic torus projection, under every notion
        maps = ([random_surface_map(rng) for _ in range(6)]
                + [random_planar_map(rng) for _ in range(4)]
                + [torus_projection(rng, 3)])
        for i, f in enumerate(maps):
            path = tmp_path / f"map{i}.json"
            path.write_text(json.dumps(_map_document(f)))
            for notion in ("H", "D", "L"):
                out = str(tmp_path / f"bundle{i}{notion}")
                for argv in (["reeb", str(path)], ["pipeline", str(path), "--out", out]):
                    code = main([*argv, "--notion", notion])
                    err = capsys.readouterr().err
                    assert code in (0, 1, 2), (argv, notion, err)
                    if code:
                        assert any(line.startswith("error: ")
                                   for line in err.splitlines()), (argv, notion, err)

    def test_every_command_on_random_complexes(self, rng, tmp_path, capsys):
        # mixed-dimension complexes with one to three parameters and values
        # from a small integer range, so ties and collinear images are common
        for i in range(40):
            dom, k = random_complex(rng, max_simplices=20), rng.randint(1, 3)
            def value():
                point = [str(rng.randint(-2, 2)) for _ in range(k)]
                return point[0] if k == 1 else point
            path = tmp_path / f"map{i}.json"
            path.write_text(json.dumps({
                "kind": "map", "k": k,
                "facets": [[f"v{v}" for v in s] for s in dom.facets()],
                "values": {f"v{v}": value() for v in sorted(dom.vertices)}}))
            _fuzz(capsys, path, tmp_path / f"bundle{i}", _MAP_COMMANDS)

    def test_every_contour_command_on_random_contours(self, rng, tmp_path, capsys):
        # strands on a small grid, some closed, some with a point repeated
        # or a vertical segment, and cusp marks mostly in range
        for i in range(60):
            strands = []
            for _ in range(rng.randint(1, 3)):
                points = [[rng.randint(-6, 6), rng.randint(-2, 2)]
                          for _ in range(rng.randint(2, 5))]
                strands.append(points + points[:1] if rng.random() < 0.5 else points)
            marked = [rng.randrange(len(strands)) for _ in range(rng.randint(0, 2))]
            cusps = [[j, rng.randint(0, len(strands[j]))] for j in marked]
            path = tmp_path / f"contour{i}.json"
            path.write_text(json.dumps({"kind": "locus", "strands": strands, "cusps": cusps}))
            _fuzz(capsys, path, tmp_path / f"bundle{i}", _CONTOUR_COMMANDS)


# every command a map goes through, under every notion that applies, and
# every command that reads a contour; those in _JSON_OUT write JSON to stdout
_MAP_COMMANDS = [["validate"]] + [
    [command, "--notion", notion]
    for command in ("jacobi", "stratify-domain", "stratify-codomain",
                    "export-filtration", "reeb", "pipeline")
    for notion in ("H", "D", "L")]
_CONTOUR_COMMANDS = [["morse2-locus"], ["pipeline"], ["export-filtration"]]
_JSON_OUT = {"validate", "jacobi", "stratify-domain", "stratify-codomain",
             "reeb", "morse2-locus"}


def _fuzz(capsys, path, out, commands):
    """Run each command on the input at path and check its exit: 0, 1 or
    2; an error: line and no traceback when it fails, and JSON on stdout
    when it succeeds and writes JSON there."""
    for command in commands:
        argv = [command[0], str(path), *command[1:]]
        if command[0] == "pipeline":
            argv += ["--out", str(out)]
        code = main(argv)
        stdout, err = capsys.readouterr()
        assert code in (0, 1, 2), (argv, err)
        assert "Traceback" not in err, (argv, err)
        if code:
            assert any(line.startswith("error: ") for line in err.splitlines()), (argv, err)
        elif command[0] in _JSON_OUT:
            json.loads(stdout)


@pytest.mark.parametrize("command", ["reeb", "pipeline"])
@pytest.mark.parametrize("example", ["torus_grid", "solid_tetrahedron"])
@pytest.mark.parametrize("samples", ["0", "-1"])
def test_samples_below_one_is_a_usage_error(tmp_path, capsys, command,
                                            example, samples):
    assert main([command, "--example", example, "--samples", samples,
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "--samples" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_one_parser_per_process_and_no_option_leaks(monkeypatch, capsys):
    import plstrat.cli as cli
    roots = []
    original = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        if kwargs.get("prog") == "plstrat":
            roots.append(self)
        original(self, *args, **kwargs)
    monkeypatch.setattr(cli._Parser, "__init__", counted)
    # as in a fresh process: no tree built yet
    monkeypatch.setattr(cli, "_parser", None, raising=False)
    per_interval = []
    for extra in (["--samples", "5"], [], ["--notion", "L"]):
        assert main(["reeb", "--example", "torus_grid"] + extra) == 0
        doc = json.loads(capsys.readouterr().out)
        per_interval.append({len(s) for s in doc["fiber_audit"]["samples"]})
    assert len(roots) == 1
    assert per_interval == [{5}, {3}, {3}]


_ERRORS = [(errors.PLStratError, 1), (errors.InputError, 1),
           (errors.StructuralError, 1), (errors.NotAMemberError, 1),
           (errors.EmptyComplexError, 1), (errors.GenericityError, 2),
           (errors.DegeneracyError, 2), (errors.InternalError, 3)]


@pytest.mark.parametrize("cls, code", _ERRORS,
                         ids=[cls.__name__ for cls, _ in _ERRORS])
def test_exit_code_is_the_error_class_code(monkeypatch, tmp_path, capsys,
                                            cls, code):
    import plstrat.cli as cli

    def failing(*args, **kwargs):
        raise cls("no locus at 1/2")
    monkeypatch.setattr(cli, "jacobi_set", failing)
    assert main(["jacobi", "--example", "octahedron"]) == code
    assert capsys.readouterr().err == "error: no locus at 1/2\n"
    assert main(["pipeline", "--example", "octahedron",
                 "--out", str(tmp_path / "out")]) == code
    assert capsys.readouterr().err == "error: stage jacobi: no locus at 1/2\n"
    assert cls.exit_code == code


def test_an_error_outside_the_package_propagates(monkeypatch):
    import plstrat.cli as cli

    def failing(*args, **kwargs):
        raise ZeroDivisionError("not a package error")
    monkeypatch.setattr(cli, "jacobi_set", failing)
    with pytest.raises(ZeroDivisionError, match="not a package error"):
        main(["jacobi", "--example", "octahedron"])


class TestPipeline:
    def test_planar_bundle_contents(self, tmp_path):
        out = tmp_path / "bundle"
        assert main(["pipeline", "--example", "solid_tetrahedron",
                     "--out", str(out)]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["audit.json", "codomain_strat.json",
                         "codomain_strat.svg", "domain_strat.json",
                         "jacobi.json", "scaffold.json", "validate.json"]
        scaffold = json.loads((out / "scaffold.json").read_text())
        assert scaffold["stein"]["passed"] is True

    def test_interval_bundle_has_reeb(self, tmp_path):
        out = tmp_path / "bundle"
        assert main(["pipeline", "--example", "torus_grid",
                     "--out", str(out)]) == 0
        names = {p.name for p in out.iterdir()}
        assert {"reeb.json", "reeb.dot", "audit.json"} <= names
        audit = json.loads((out / "audit.json").read_text())
        assert audit["passed"] is True

    def test_locus_bundle_is_stratification_only(self, tmp_path):
        out = tmp_path / "bundle"
        assert main(["pipeline", "--example", "oval_contour",
                     "--out", str(out)]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["codomain_strat.json", "codomain_strat.svg"]

    def test_non_generic_input_stops_after_validate(self, tmp_path):
        out = tmp_path / "bundle"
        assert main(["pipeline", "--example", "double_cone",
                     "--out", str(out)]) == 2
        assert [p.name for p in out.iterdir()] == ["validate.json"]

    def test_flags_suppress_optional_artifacts(self, tmp_path):
        out = tmp_path / "bundle"
        assert main(["pipeline", "--example", "torus_grid", "--out", str(out),
                     "--no-svg", "--no-dot"]) == 0
        names = {p.name for p in out.iterdir()}
        assert "reeb.dot" not in names
        assert "codomain_strat.svg" not in names

    def test_filtration_flag_adds_chain_file(self, tmp_path):
        out = tmp_path / "bundle"
        assert main(["pipeline", "--example", "solid_tetrahedron",
                     "--out", str(out), "--filtration"]) == 0
        text = (out / "filtration.txt").read_text()
        assert text == "v0 0 0\ne0 1 1\nf0 2 2\n"


# each stage function at every module binding the CLI reaches it through
_STAGE_BINDINGS = {"jacobi_set": ("cli", "jacobi", "reeb"),
                   "build_codomain_stratification": ("cli", "reeb")}


@pytest.mark.parametrize("command, example, expected", [
    ("pipeline", "torus_grid", (1, 1)),
    ("pipeline", "solid_tetrahedron", (1, 1)),
    ("reeb", "torus_grid", (1, 0)),
    ("reeb", "solid_tetrahedron", (1, 1)),
])
def test_each_artifact_is_computed_once(monkeypatch, tmp_path, command, example,
                                        expected):
    """(jacobi_set calls, build_codomain_stratification calls) per command."""
    import importlib
    calls = {name: 0 for name in _STAGE_BINDINGS}
    for name, modules in _STAGE_BINDINGS.items():
        original = getattr(importlib.import_module("plstrat.cli"), name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        for mod in modules:
            monkeypatch.setattr(importlib.import_module(f"plstrat.{mod}"),
                                name, counted)
    cli = importlib.import_module("plstrat.cli")
    assert cli.main([command, "--example", example,
                     "--out", str(tmp_path / "out")]) == 0
    assert (calls["jacobi_set"], calls["build_codomain_stratification"]) == expected


@pytest.mark.parametrize("notion", ["H", "L"])
def test_sweep_levels_and_h_tests_run_once(monkeypatch, tmp_path, notion):
    """A k=1 pipeline splits into components once per vertex value and
    once per gap where the sweep joins a component again, for the Reeb
    graph and the interval audit together, and runs the H test once per
    candidate."""
    import importlib
    calls = {"_components": 0, "is_h_critical": 0}
    for mod, name in (("reeb", "_components"), ("jacobi", "is_h_critical")):
        module = importlib.import_module(f"plstrat.{mod}")

        def counted(*args, _name=name, _fn=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    f = example_map("torus_grid")
    assert main(["pipeline", "--example", "torus_grid", "--notion", notion,
                 "--out", str(tmp_path / "out")]) == 0
    made = dict(calls)   # building `f.sweep` below calls the patch too
    # the gaps where the sweep's record turns some component into fresh
    # ids, neither itself nor nothing
    rejoined = sum(any(ids not in ([], [c]) for c, ids in record.items())
                   for (kind, _), record in f.sweep.events.items() if kind == "f")
    assert rejoined
    assert made["_components"] == len(f.sweep.values) + rejoined
    assert made["is_h_critical"] == len(f.domain.simplices_of_dim(0))


def test_each_link_shape_is_decided_once(monkeypatch, tmp_path):
    """A k=1 pipeline on a 10x10 torus decides the shape of each of its 600
    links once, in the table the manifold check and the L verdicts share,
    plus the shape of the whole complex: each of the 100 vertex links is
    a cycle, whose one connectivity test is the only one made."""
    from plstrat import complexes
    f = torus_height_map(random.Random(1), 10)
    path = tmp_path / "torus.json"
    path.write_text(json.dumps({
        "k": 1, "facets": [list(s) for s in f.domain.facets()],
        "values": {v: format_frac(x) for v, (x,) in f.values.items()}}))
    calls = {"_shape": 0, "_graph_is_connected": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(complexes, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(complexes, name, counted)
    assert main(["pipeline", str(path), "--out", str(tmp_path / "out")]) == 0
    assert len(f.domain) == 600
    assert calls == {"_shape": 601, "_graph_is_connected": 100}


@pytest.mark.parametrize("notion, test", [("D", "is_d_critical"),
                                          ("L", "is_l_critical_surface")])
def test_the_notion_test_runs_once_per_candidate(monkeypatch, tmp_path,
                                                 notion, test):
    """The verdict table reads the notion's own column off the locus that
    `jacobi_set` has just decided, as it does for H."""
    import importlib
    jacobi = importlib.import_module("plstrat.jacobi")
    calls = []
    original = getattr(jacobi, test)

    def counted(f, s):
        calls.append(s)
        return original(f, s)
    monkeypatch.setattr(jacobi, test, counted)
    f = example_map("torus_grid")
    # the exit code is not at issue here: under D the Reeb stage after
    # jacobi.json fails on torus_grid
    main(["pipeline", "--example", "torus_grid", "--notion", notion,
          "--out", str(tmp_path / "out")])
    assert (tmp_path / "out" / "jacobi.json").exists()
    assert len(calls) == len(f.domain.simplices_of_dim(0))


class TestFiltrationExport:
    def test_default_chain(self, capsys):
        assert main(["export-filtration", "--example",
                     "solid_tetrahedron"]) == 0
        assert capsys.readouterr().out == "v0 0 0\ne0 1 1\nf0 2 2\n"

    def test_explicit_chain(self, capsys):
        assert main(["export-filtration", "--example", "torus_grid",
                     "--chain", "p0,i1"]) == 0
        assert capsys.readouterr().out == "p0 0 0\ni1 1 1\n"

    def test_the_last_chain_is_found(self, capsys):
        assert main(["export-filtration", "--example", "torus_grid",
                     "--chain", "p3,i4"]) == 0
        assert capsys.readouterr().out == "p3 0 0\ni4 1 1\n"

    def test_unknown_chain_is_exit_1(self, capsys):
        assert main(["export-filtration", "--example", "torus_grid",
                     "--chain", "p0,i3"]) == 1

    def test_a_prefix_of_a_chain_is_exit_1(self, capsys):
        assert main(["export-filtration", "--example", "torus_grid",
                     "--chain", "p0"]) == 1
        assert capsys.readouterr().out == ""

    def test_locus_input_uses_locus_strata(self, capsys):
        assert main(["export-filtration", "--example", "oval_contour"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("z") and lines[-1].split()[1] == "2"


@pytest.mark.parametrize("example", example_names())
def test_stratify_domain_writes_the_bundles_document(tmp_path, capsys, example):
    # under each notion whose pipeline gets as far as domain_strat.json
    reached = 0
    for notion in ("H", "D", "L"):
        bundle = tmp_path / f"bundle_{notion}"
        main(["pipeline", "--example", example, "--notion", notion,
              "--out", str(bundle)])
        if not (bundle / "domain_strat.json").exists():
            continue
        out = tmp_path / f"domain_{notion}.json"
        assert main(["stratify-domain", "--example", example, "--notion",
                     notion, "--out", str(out)]) == 0
        assert out.read_bytes() == (bundle / "domain_strat.json").read_bytes()
        reached += 1
    # a contour has no domain, and double_cone fails validation
    assert reached or example.endswith("_contour") or example == "double_cone"


@pytest.mark.parametrize("example", [n for n in example_names()
                                     if n.endswith("_contour")])
def test_locus_svg_is_the_bundles_picture(tmp_path, capsys, example):
    assert main(["pipeline", "--example", example, "--out",
                 str(tmp_path / "b")]) == 0
    assert main(["morse2-locus", "--example", example, "--svg",
                 str(tmp_path / "o.svg")]) == 0
    assert (tmp_path / "o.svg").read_bytes() == \
        (tmp_path / "b" / "codomain_strat.svg").read_bytes()


def test_filtration_of_three_parameters_is_exit_1(tmp_path, capsys):
    path = tmp_path / "k3.json"
    path.write_text(json.dumps({"k": 3, "facets": [["a", "b", "c"]],
                                "values": {"a": ["0", "0", "0"],
                                           "b": ["1", "0", "0"],
                                           "c": ["0", "1", "0"]}}))
    assert main(["export-filtration", str(path)]) == 1
    assert capsys.readouterr() == (
        "", "error: filtration export needs one or two parameters\n")


_EDGE = '"facets": [["a", "b"]]'
_BAD_INPUTS = [
    ("not-an-object", '[1, 2]', "expected a JSON object"),
    ("missing-field", '{"k": 1, ' + _EDGE + '}', "missing field 'values'"),
    ("k-zero", '{"k": 0, ' + _EDGE + ', "values": {}}', "k must be a positive"),
    ("k-string", '{"k": "1", ' + _EDGE + ', "values": {}}', "k must be a positive"),
    ("k-true", '{"k": true, ' + _EDGE + ', "values": {}}', "k must be a positive"),
    ("facets-not-lists", '{"k": 1, "facets": ["ab"], "values": {}}',
     "facets must be a list of label lists"),
    ("facets-object", '{"k": 1, "facets": {"a": ["b"]}, "values": {}}',
     "facets must be a list of label lists"),
    ("values-list", '{"k": 1, ' + _EDGE + ', "values": ["0", "1"]}',
     "values must map vertex labels"),
    ("value-too-short", '{"k": 2, ' + _EDGE + ', "values": {"a": ["0"]}}',
     "value of 'a' must be a list of 2 rationals"),
    ("value-scalar", '{"k": 2, ' + _EDGE + ', "values": {"a": "0"}}',
     "value of 'a' must be a list of 2 rationals"),
    ("strands-not-list", '{"kind": "locus", "strands": 5}',
     "strands must be a list of polylines"),
    ("strand-not-points", '{"strands": [5]}', "each strand must be a list of points"),
    ("cusps-not-pairs", '{"strands": [[[0, 0], [1, 1]]], "cusps": 5}',
     "cusps must be a list of [strand, vertex] pairs"),
    ("cusp-triple", '{"strands": [[[0, 0], [1, 1]]], "cusps": [[0, 1, 1]]}',
     "cusps must be a list of [strand, vertex] pairs"),
    ("unknown-kind", '{"kind": "surface"}', "unknown input kind 'surface'"),
    ("invalid-json", '{"k": 1,', "invalid JSON in "),
]


@pytest.mark.parametrize("text, message", [p[1:] for p in _BAD_INPUTS],
                         ids=[p[0] for p in _BAD_INPUTS])
def test_each_bad_document_is_exit_1_with_one_error_line(tmp_path, capsys,
                                                         text, message):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["export-filtration", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
    assert message in err, err


@pytest.mark.parametrize("name", ["missing.json", "."], ids=["missing", "directory"])
def test_an_unreadable_path_is_exit_1_with_one_error_line(tmp_path, capsys, name):
    path = str(tmp_path / name)
    assert main(["export-filtration", path]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: cannot read {path}: ")
    assert err.count("\n") == 1, err


@pytest.mark.parametrize("parse", [map_from_dict, locus_from_dict, input_from_dict])
def test_a_document_that_is_no_object_is_an_input_error(parse):
    with pytest.raises(InputError, match="^expected a JSON object$"):
        parse(["k", 1])


@pytest.mark.parametrize("argv", [
    ["pipeline", "--example", "torus_grid", "--out", "FILE"],
    ["reeb", "--example", "torus_grid", "--out", "missing/x.json"],
    ["stratify-codomain", "--example", "solid_tetrahedron",
     "--svg", "missing/x.svg"],
], ids=["bundle-onto-a-file", "out-in-a-missing-directory",
        "svg-in-a-missing-directory"])
def test_unusable_output_path_is_exit_1(tmp_path, capsys, argv):
    (tmp_path / "FILE").write_text("")
    path = str(tmp_path / argv[-1])
    assert main(argv[:-1] + [path]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {path}: "), err

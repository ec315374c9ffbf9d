"""CLI plumbing and the two built-in verification pipelines."""

import builtins
import hashlib
import io
import json
import os
import subprocess
import sys
import time

import pytest

import vfree
import vfree.defspace as ds
import vfree.fingroup as fg
import vfree.gogwords as gw
from fixtures import (build_A, build_counterexample_gog, build_sl2z_gog,
                      build_z2_z3)
from vfree.bstree import standard_frame
from vfree.cli import (
    AXIS_VERTEX_CAP,
    BUILTIN_GROUPS,
    WALK_STEP_CAP,
    _sample_reduced_forms,
    load_group,
    main,
    report_from_json,
    verify_counterexample,
    verify_sl2z,
)
from vfree.folog import SL2Z_RELATORS, emit_theta_sl2z, pretty_print


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh(*argv):
    """Exit code and stdout of the same command in a new interpreter."""
    src = os.path.dirname(os.path.dirname(vfree.__file__))
    proc = subprocess.run([sys.executable, "-m", "vfree.cli", *argv],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    return proc.returncode, proc.stdout


def check_by_id(report, cid):
    return next(c for c in report.checks if c.check_id == cid)


# -- verification pipelines ---------------------------------------------------


def test_verify_sl2z_passes():
    report = verify_sl2z()
    assert report.overall == "pass"
    assert len(report.checks) == 5
    assert check_by_id(report, "c").witness["classes"] == 1
    assert check_by_id(report, "d").witness["new_splittings"] == 0
    assert check_by_id(report, "e").witness["classification"] == "existential"


def test_verify_counterexample_passes():
    report = verify_counterexample()
    assert report.overall == "pass"
    assert len(report.checks) == 6
    c = check_by_id(report, "c")
    assert c.witness["permutation"] == "(e1 e3)(e2 e4)"
    assert c.witness["agreements"] == 16
    f = check_by_id(report, "f")
    assert f.witness["order_with_x"] == 6
    assert f.witness["order_with_y"] == 24
    assert f.witness["f_x"] == "(e1 e2)"
    assert f.witness["h_z"] == "(e1 e2 e3)"
    e = check_by_id(report, "e")
    assert e.witness["sampled"] == e.witness["no_collapse"] >= 150


def test_counterexample_sample_is_seeded_reduced_and_covers_lengths():
    gog = load_group("counterexample")
    loops = {v: standard_frame(gog, v).stabilizer for v in gog.vertices}
    sample = _sample_reduced_forms(gog, loops, 6, 240, 20250814)
    assert sample == _sample_reduced_forms(gog, loops, 6, 240, 20250814)
    assert len(set(sample)) == len(sample) == 240
    for w in sample:
        assert not gw.is_identity(gog, w) and w.syllable_length() <= 6
        assert gw.normal_form(gog, w) == w
    assert {w.syllable_length() for w in sample} == {0, 2, 4, 6}


def test_report_json_round_trip():
    report = verify_sl2z()
    data = report.to_json()
    assert report_from_json(data) == report
    assert data["overall"] == "pass"
    bad = json.loads(json.dumps(data))
    bad["overall"] = "fail"
    with pytest.raises(gw.GogError):
        report_from_json(bad)


def test_verify_sl2z_fault_injection():
    tampered = gw.build_free_product(fg.build_cyclic(3, "a"),
                                     fg.build_cyclic(6, "b"))
    report = verify_sl2z(tampered)
    assert report.overall == "fail"
    b = check_by_id(report, "b")
    assert b.status == "fail"
    assert b.witness["order_a"] == 3


def test_verify_counterexample_fault_injection():
    # z acting as a single swap collapses both conjugation actions
    a = build_A()
    c = fg.build_boolean_vectors(4)
    b = fg.build_semidirect(c, fg.build_cyclic(2, "z"),
                            {"z": fg.basis_cycle_perm("(e1 e2)", 4)})
    names = ["e1", "e2", "e3", "e4"]
    ia = fg.GroupHom.from_generator_images(c, a, {n: a.generator(n) for n in names})
    ib = fg.GroupHom.from_generator_images(c, b, {n: b.generator(n) for n in names})
    tampered = gw.build_amalgam(a, b, c, ia, ib)
    report = verify_counterexample(tampered)
    assert report.overall == "fail"
    f = check_by_id(report, "f")
    assert f.status == "fail"
    assert f.witness["order_with_x"] <= 4
    assert f.witness["order_with_y"] <= 4


def test_verify_outputs_are_byte_stable(capsys):
    code1, out1, _ = run(capsys, "verify", "sl2z")
    code2, out2, _ = run(capsys, "verify", "sl2z")
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["overall"] == "pass"


# -- subcommands ----------------------------------------------------------------


def test_nf_command(capsys):
    code, out, _ = run(capsys, "nf", "--group", "sl2z",
                       "--word", "a a b b b b b b")
    assert code == 0
    assert out.strip() == "a^2"
    code, out, _ = run(capsys, "nf", "--group", "sl2z", "--word", "b^6")
    assert code == 0
    assert out.strip() == "1"
    code, out, _ = run(capsys, "nf", "--group", "sl2z", "--word", "a b",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["syllables"] == 2


def test_nf_rejects_bare_caret(capsys):
    code, out, err = run(capsys, "nf", "--group", "sl2z", "--word", "a^")
    assert code == 1 and out == ""
    assert "malformed exponent in 'a^'" in err


def test_nf_of_a_huge_exponent(capsys):
    code, huge, _ = run(capsys, "nf", "--group", "sl2z",
                        "--word", "a^99999999999")
    _, small, _ = run(capsys, "nf", "--group", "sl2z", "--word", "a^3")
    assert code == 0 and huge == small


def test_nf_caps_edge_traversals(capsys, tmp_path):
    rose = tmp_path / "rose.json"
    rose.write_text(json.dumps(gw.gog_to_json(gw.build_rose(["x"]))))
    code, out, err = run(capsys, "nf", "--group", str(rose),
                         "--word", "x^99999999999")
    assert code == 1 and out == ""
    assert "letter 'x' takes the word past 100000 edge traversals" in err


Z2Z3_JSON = gw.gog_to_json(load_group("z2z3"))


@pytest.mark.parametrize("field,bad,message", [
    ("table", True, "table[0][1] is not an integer"),
    ("table", 1.0, "table[0][1] is not an integer"),
    ("table", "1", "table[0][1] is not an integer"),
    ("generator", True, "generator 's' index is not an integer"),
    ("generator", 1.0, "generator 's' index is not an integer"),
    ("generator", "1", "generator 's' index is not an integer"),
])
def test_table_json_needs_integers(capsys, tmp_path, field, bad, message):
    data = json.loads(json.dumps(Z2Z3_JSON))
    group = data["vertices"][0]["group"]
    if field == "table":
        group["table"][0][1] = bad
    else:
        group["generators"]["s"] = bad
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "nf", "--group", str(path), "--word", "s")
    assert code == 1 and out == ""
    assert message in err


def test_group_file_fields_are_type_checked(capsys, tmp_path):
    data = json.loads(json.dumps(Z2Z3_JSON))
    data["tree"] = 7
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "nf", "--group", str(path), "--word", "s")
    assert code == 1 and out == ""
    assert "field 'tree' is not a list (got an integer)" in err


def test_group_file_past_the_order_cap_exits_quickly(capsys, tmp_path):
    data = json.loads(json.dumps(Z2Z3_JSON))
    data["vertices"][0]["group"] = {"kind": "cyclic", "n": 10_000_000,
                                    "name": "s"}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    start = time.perf_counter()
    code, out, err = run(capsys, "nf", "--group", str(path), "--word", "s")
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert "cyclic order 10000000 is above the order cap 512" in err


def test_main_called_repeatedly_matches_fresh_processes(capsys):
    calls = [("nf", "--group", "sl2z", "--word", "a b b"),
             ("classify", "--group", "counterexample", "--word", "x z"),
             ("nf", "--group", "sl2z", "--wrd", "a"),
             ("group", "--group", "z2z3"),
             ("no-such-command",),
             ("nf", "--group", "sl2z", "--word", "a b", "--format", "json")]
    for argv in calls:
        code, out, _ = run(capsys, *argv)
        assert (code, out) == run_fresh(*argv), argv
    assert [run(capsys, *argv)[0] for argv in calls] == [0, 0, 2, 0, 2, 0]


def test_classify_and_axis(capsys):
    code, out, _ = run(capsys, "classify", "--group", "sl2z", "--word", "a b")
    assert code == 0
    assert out.strip() == "hyperbolic: translation length 2"
    code, out, _ = run(capsys, "classify", "--group", "sl2z", "--word", "a",
                       "--format", "json")
    assert json.loads(out) == {
        "kind": "elliptic", "translation_length": 0,
        "fixed_vertex": {"orbit": "vA", "rep": "1"}}
    code, out, _ = run(capsys, "axis", "--group", "sl2z", "--word", "a b",
                       "--periods", "2")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "vA[1]"
    assert lines[-1] == "vA[a e+ b e- a e+ b e-]"
    assert len(lines) == 5


def test_group_dump_round_trips(capsys):
    code, out, _ = run(capsys, "group", "--group", "z2z3", "--format", "json")
    assert code == 0
    loaded = gw.gog_from_json(out)
    builtin = load_group("z2z3")
    assert {v: loaded.vertices[v].order for v in loaded.vertices} \
        == {v: builtin.vertices[v].order for v in builtin.vertices}
    code, out, _ = run(capsys, "group", "--group", "counterexample")
    assert "vA: order 64" in out and "vB: order 48" in out


# sha256 of json.dumps(gog_to_json(load_group(name)), sort_keys=True), as
# the builtins were when they were read from shipped JSON tables.
BUILTIN_DIGESTS = {
    "sl2z": "f4aee93edc8209177df2e9afb01bb136a70d4711c86466faa0d4804373b51adb",
    "counterexample":
        "d7f584b7353fe44463953edd021073c839a5b480b4c0e1bf68805d17ef12ae20",
    "z2z3": "0dee33378e830f03bf7693e67f414c8fe1675d87a5b64c9a3cd60cd99aae0a15",
}
REFERENCE_BUILDS = {"sl2z": build_sl2z_gog,
                    "counterexample": build_counterexample_gog,
                    "z2z3": build_z2_z3}


def test_builtins_keep_their_names_and_order():
    assert list(BUILTIN_GROUPS) == list(BUILTIN_DIGESTS)


@pytest.mark.parametrize("name", list(BUILTIN_DIGESTS))
def test_builtin_definition_is_pinned(name):
    text = json.dumps(gw.gog_to_json(load_group(name)), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == BUILTIN_DIGESTS[name]


@pytest.mark.parametrize("name", list(REFERENCE_BUILDS))
def test_builtin_equals_its_reference_build(name):
    # Without sort_keys the dump also keeps each group's generator order.
    assert json.dumps(gw.gog_to_json(load_group(name))) == \
        json.dumps(gw.gog_to_json(REFERENCE_BUILDS[name]()))


@pytest.mark.parametrize("name", list(BUILTIN_GROUPS))
def test_each_builtin_load_builds_a_new_graph(name):
    # No caller's edits to a graph, or facts kept on it, reach another.
    first, second = load_group(name), load_group(name)
    assert first is not second
    assert first.vertices["vA"] is not second.vertices["vA"]


@pytest.mark.parametrize("name", list(BUILTIN_DIGESTS))
def test_builtin_load_opens_no_file(monkeypatch, name):
    def refuse(path, *args, **kwargs):
        raise AssertionError(f"opened {path!r}")

    monkeypatch.setattr(builtins, "open", refuse)
    monkeypatch.setattr(io, "open", refuse)
    assert load_group(name).base_vertex == "vA"
    with pytest.raises(AssertionError, match="opened 'no-such-group'"):
        load_group("no-such-group")


@pytest.mark.parametrize("fmt, expected", [
    ("text", "0 non-redundant expansions within depth 1\n"),
    ("json", "[]\n"),
], ids=["text", "json"])
def test_expand_counterexample_within_budget(capsys, fmt, expected):
    # Automorphisms of the order-64 vertex group dominate this command;
    # 4 s is the budget for it on one core.
    start = time.perf_counter()
    code, out, _ = run(capsys, "defspace", "expand", "--group",
                       "counterexample", "--depth", "1", "--format", fmt)
    assert time.perf_counter() - start < 4.0
    assert code == 0 and out == expected


@pytest.mark.parametrize("word, message", [
    ("q^0", "unknown letter 'q'"),
    ("e^0", "'e' is a spanning-tree edge and carries no letter"),
], ids=["unknown", "tree-edge"])
def test_zero_power_of_a_bad_letter_exits_1(capsys, word, message):
    code, out, err = run(capsys, "nf", "--group", "sl2z", "--word", word)
    assert code == 1 and out == "" and message in err
    code, out, _ = run(capsys, "nf", "--group", "sl2z", "--word", "a^0")
    assert code == 0 and out == "1\n"


def test_a_token_without_a_letter_exits_1(capsys):
    assert run(capsys, "nf", "--group", "sl2z", "--word", "a ^3") == (
        1, "", "vfree: malformed token '^3'\n")


def test_defspace_commands(capsys):
    code, out, _ = run(capsys, "defspace", "reduced", "--group", "sl2z")
    assert code == 0
    assert "reduced: True" in out
    code, out, _ = run(capsys, "defspace", "expand", "--group", "sl2z",
                       "--depth", "2")
    assert code == 0
    assert out.strip() == "0 non-redundant expansions within depth 2"
    code, out, _ = run(capsys, "defspace", "enumerate", "--vertices", "1",
                       "--edges", "0", "--max-order", "1", "--format", "json")
    assert code == 0
    assert len(json.loads(out)) == 1
    code, _, err = run(capsys, "defspace", "reduced")
    assert code == 1
    assert "--group" in err


@pytest.mark.parametrize("argv, message", [
    (["enumerate", "--vertices", "0"],
     "vertex_count is 0, below 1 (allowed 1..3)"),
    (["enumerate", "--vertices", "4"],
     "vertex_count is 4, capped at 3 (allowed 1..3)"),
    (["enumerate", "--edges", "-1"], "edge_count is -1, below 0 (allowed 0..3)"),
    (["enumerate", "--max-order", "0"],
     "max_order is 0, below 1 (allowed 1..12)"),
    (["enumerate", "--max-order", "13"],
     "max_order is 13, capped at 12 (allowed 1..12)"),
    (["expand", "--group", "sl2z", "--depth", "-1"],
     "depth is -1, below 0 (allowed 0..3)"),
    (["expand", "--group", "sl2z", "--depth", "4"],
     "depth is 4, capped at 3 (allowed 0..3)"),
], ids=["vertices-0", "vertices-4", "edges-neg", "order-0", "order-13",
        "depth-neg", "depth-4"])
def test_defspace_range_errors_name_the_argument(capsys, argv, message):
    code, out, err = run(capsys, "defspace", *argv)
    assert code == 1 and out == "" and message in err
    if "below" in message:
        assert "capped" not in err


def test_multi_edge_enumeration_is_capped_at_order_7(capsys):
    # (1, 2, 8) ran past 150 s; the cap refuses it before listing any
    # candidate, and (1, 2, 7) still answers.
    start = time.perf_counter()
    code, out, err = run(capsys, "defspace", "enumerate", "--vertices", "1",
                         "--edges", "2", "--max-order", "8")
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert "max_order is 8, capped at 7 with edge_count 2 (allowed 1..7)" \
        in err
    code, out, _ = run(capsys, "defspace", "enumerate", "--vertices", "1",
                       "--edges", "2", "--max-order", "7")
    assert code == 0 and out.strip() == "103 isomorphism classes"


def one_vertex_file(tmp_path, group: dict) -> str:
    path = tmp_path / "point.json"
    path.write_text(json.dumps({"vertices": [{"id": "v", "group": group}],
                                "edges": [], "base": "v", "tree": []}))
    return str(path)


def test_expand_refuses_a_vertex_group_above_the_cap(capsys, tmp_path):
    # (Z/2)^7 has 29,212 subgroups; the cap refuses it before listing any.
    path = one_vertex_file(tmp_path, {"kind": "boolean", "k": 7})
    start = time.perf_counter()
    code, out, err = run(capsys, "defspace", "expand", "--group", path,
                         "--depth", "1")
    assert time.perf_counter() - start < 2.0
    assert code == 1 and out == ""
    assert "vertex 'v' has order 128, above the expansion order cap 64" in err


@pytest.mark.parametrize("cap, code", [(5, 0), (4, 1)],
                         ids=["at-cap", "above-cap"])
def test_expand_order_cap_boundary(capsys, tmp_path, monkeypatch, cap, code):
    monkeypatch.setattr(ds, "EXPANSION_ORDER_CAP", cap)
    path = one_vertex_file(tmp_path, {"kind": "cyclic", "n": 5})
    got, out, err = run(capsys, "defspace", "expand", "--group", path)
    assert got == code
    if code:
        assert "order 5, above the expansion order cap 4" in err
    else:
        assert out == "0 non-redundant expansions within depth 2\n"


def test_defspace_help_names_the_expansion_cap(capsys):
    code, out, _ = run(capsys, "defspace", "--help")
    assert code == 0
    assert "above 64" in " ".join(out.split())


def test_fold_command(capsys, tmp_path):
    rose = tmp_path / "rose2.json"
    rose.write_text(json.dumps(gw.gog_to_json(gw.build_rose(["x", "y"]))))
    marking = tmp_path / "marking.json"
    marking.write_text(json.dumps({"marking": "basis", "words": ["x", "x y"]}))
    code, out, _ = run(capsys, "fold", "--source", str(marking),
                       "--target", str(rose), "--format", "json")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["kind"] == "pair"
    assert record["edge_orbits_after"] == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"marking": "mystery"}))
    code, _, err = run(capsys, "fold", "--source", str(bad),
                       "--target", str(rose))
    assert code == 1
    assert "marking" in err


def test_whitehead_command(capsys):
    code, out, _ = run(capsys, "whitehead", "--group", "sl2z", "--word", "a b",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["fills"] is True
    assert {g["orbit"] for g in data["graphs"]} == {"vA", "vB"}
    code, out, _ = run(capsys, "whitehead", "--group", "z2z3",
                       "--word", "s t", "--vertex", "vA")
    assert code == 0
    assert "fills: yes" in out
    code, _, err = run(capsys, "whitehead", "--group", "sl2z", "--word", "a")
    assert code == 1
    assert "elliptic" in err


def test_walk_determinism(capsys, monkeypatch):
    code, out1, _ = run(capsys, "walk", "--lengths", "8", "--trials", "10",
                        "--seed", "1")
    assert code == 0
    assert out1.splitlines()[0] == "n,trials,hyperbolic_count,filling_count,filling_rate"
    assert out1.splitlines()[1] == "8,10,8,8,0.800000"
    code, out2, _ = run(capsys, "walk", "--lengths", "8", "--trials", "10",
                        "--seed", "1")
    assert out2 == out1
    monkeypatch.setenv("VFREE_SEED", "1")
    code, out3, _ = run(capsys, "walk", "--lengths", "8", "--trials", "10",
                        "--seed", "99")
    assert out3 == out1


def test_walk_custom_measure(capsys, tmp_path):
    measure = tmp_path / "m.json"
    measure.write_text(json.dumps({
        "support": ["s", "t", "t^-1"],
        "weights": ["1/2", "1/4", "1/4"]}))
    code, out, _ = run(capsys, "walk", "--group", "z2z3", "--measure",
                       str(measure), "--lengths", "4,8", "--trials", "5",
                       "--seed", "3", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert [r["n"] for r in rows] == [4, 8]
    assert all(r["trials"] == 5 for r in rows)


@pytest.mark.parametrize("weights,lengths,seed,message", [
    (["1/0", "1/2", "1/2"], "4", None,
     "weights[0] is not a rational number: '1/0'"),
    ([0.5, "x", 0.25], "4", None, "weights[1] is not a rational number: 'x'"),
    (None, "8,x", None, "--lengths entry is not an integer: 'x'"),
    (None, "4", "abc", "VFREE_SEED is not an integer: 'abc'"),
])
def test_walk_input_errors_name_the_field(capsys, tmp_path, monkeypatch,
                                          weights, lengths, seed, message):
    argv = ["walk", "--group", "z2z3", "--lengths", lengths, "--trials", "2"]
    if weights is not None:
        measure = tmp_path / "m.json"
        measure.write_text(json.dumps({"support": ["s", "t", "t^-1"],
                                       "weights": weights}))
        argv += ["--measure", str(measure)]
    if seed is not None:
        monkeypatch.setenv("VFREE_SEED", seed)
    else:
        monkeypatch.delenv("VFREE_SEED", raising=False)
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert message in err


@pytest.mark.parametrize("measure,message", [
    ({"support": ["s", "t"], "weights": 5},
     "field 'weights' is not a list (got an integer)"),
    ([1, 2], "measure JSON is not an object (got a list)"),
    ({"support": "s t"}, "field 'support' is not a list (got a string)"),
    ({"support": ["s", 3]}, "support[1] is not a string (got an integer)"),
    ({"support": []}, "measure support must be nonempty"),
])
def test_walk_measure_shape_errors_name_the_field(capsys, tmp_path, measure,
                                                  message):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(measure))
    code, out, err = run(capsys, "walk", "--group", "z2z3", "--measure",
                         str(path), "--lengths", "4", "--trials", "2")
    assert code == 1 and out == ""
    assert message in err


def test_walk_work_is_capped_before_any_walk(capsys):
    """--trials × Σ(--lengths entry + 1) may reach the cap but not pass
    it.  1000 length-0 entries over 1000 trials sit at the cap and walk no
    step; one step past it is refused before any walk, so the last case
    returns at once instead of walking a million steps."""
    assert WALK_STEP_CAP == 10**6
    zeros = ",".join(["0"] * 1000)
    code, out, err = run(capsys, "walk", "--group", "z2z3", "--lengths",
                         zeros, "--trials", "1000")
    assert code == 0 and err == ""
    assert out.splitlines()[1:] == ["0,1000,0,0,0.000000"] * 1000
    for lengths, trials in (("9900", "101"), ("0", "1000001"),
                            ("1000000", "1")):
        start = time.perf_counter()
        code, out, err = run(capsys, "walk", "--group", "z2z3", "--lengths",
                             lengths, "--trials", trials)
        assert time.perf_counter() - start < 2
        assert code == 1 and out == ""
        assert "--trials × Σ(--lengths entry + 1) is 1000001, above the " \
               "walk cap 1000000" in err


@pytest.mark.parametrize("group, budget", [("sl2z", 1.5),
                                           ("counterexample", 3.5)])
def test_largest_accepted_walk_in_budget(group, budget):
    """--lengths 1000 --trials 999 sits at the walk cap.  It runs in a
    fresh interpreter, so no earlier test has compiled the picks on a
    graph, and only the call is timed.  On a 2-vCPU x86-64 VM it took
    0.31-0.56 s on sl2z and 0.80-1.45 s on counterexample."""
    code = ("import contextlib, io, sys, time\n"
            "from vfree.cli import main\n"
            "out = io.StringIO()\n"
            "start = time.perf_counter()\n"
            "with contextlib.redirect_stdout(out):\n"
            f"    code = main(['walk', '--group', {group!r}, '--lengths',\n"
            "                 '1000', '--trials', '999'])\n"
            "elapsed = time.perf_counter() - start\n"
            "print(code, out.getvalue().splitlines()[1], elapsed)\n")
    src = os.path.dirname(os.path.dirname(vfree.__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, check=True,
                          env=dict(os.environ, PYTHONPATH=src))
    code, row, elapsed = proc.stdout.split()
    assert code == "0" and row == "1000,999,999,999,1.000000"
    assert float(elapsed) < budget


def test_axis_work_is_capped_before_any_window(capsys, monkeypatch):
    """--periods × translation length may reach the cap but not pass it;
    past it the command exits 1 at once, naming --periods."""
    assert AXIS_VERTEX_CAP == 2000
    start = time.perf_counter()
    code, out, err = run(capsys, "axis", "--group", "sl2z", "--word", "a b",
                         "--periods", "100000000")
    assert time.perf_counter() - start < 2
    assert code == 1 and out == ""
    assert "--periods × translation length is 200000000, above the axis " \
           "cap 2000" in err
    monkeypatch.setattr("vfree.cli.AXIS_VERTEX_CAP", 4)
    code, out, _ = run(capsys, "axis", "--group", "sl2z", "--word", "a b",
                       "--periods", "2")
    assert code == 0 and len(out.splitlines()) == 5
    code, out, err = run(capsys, "axis", "--group", "sl2z", "--word", "a b",
                         "--periods", "3")
    assert code == 1 and out == ""
    assert "--periods × translation length is 6, above the axis cap 4" in err


@pytest.mark.parametrize("lengths", [",", "", ",,"])
def test_walk_needs_a_length(capsys, lengths):
    code, out, err = run(capsys, "walk", "--group", "z2z3", "--lengths",
                         lengths, "--trials", "5")
    assert code == 1 and out == ""
    assert "--lengths lists no length" in err


def test_emit_formula_command(capsys, tmp_path):
    code, out, _ = run(capsys, "emit-formula", "theta")
    assert code == 0
    assert out.strip() == pretty_print(emit_theta_sl2z(SL2Z_RELATORS, ["x"]))
    params = tmp_path / "mu.json"
    params.write_text(json.dumps({
        "g": {"generators": 2, "relators": ["x1^4", "x2^6", "x1^2 x2^-3"]},
        "u": {"generators": 1, "relators": ["y1^6"]},
        "embedding": ["x1 x2"], "tests": ["x1^2"], "kill": ["y1^3"],
        "inner": {"kind": "delta", "n": 1, "blocks": [["x1"]]}}))
    code, out, _ = run(capsys, "emit-formula", "mu", "--params", str(params),
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["classification"] == "forall_exists"
    assert data["free_variables"] == ["z1"]
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"blocks": [["x1"]]}))
    code, _, err = run(capsys, "emit-formula", "delta", "--params", str(missing))
    assert code == 1
    assert "'n'" in err


MU_PARAMS = {
    "g": {"generators": 2, "relators": ["x1^4", "x2^6", "x1^2 x2^-3"]},
    "u": {"generators": 1, "relators": ["y1^6"]},
    "tests": ["x1^2"], "kill": ["y1^3"]}


@pytest.mark.parametrize("argv, spec, message", [
    (["fold", "--target", "sl2z", "--source"], [1, 2],
     "marking JSON is not an object (got a list)"),
    (["fold", "--target", "sl2z", "--source"],
     {"marking": "basis", "words": 5},
     "field 'words' is not a list (got an integer)"),
    (["emit-formula", "theta", "--params"], [1, 2],
     "parameter JSON is not an object (got a list)"),
    (["emit-formula", "theta", "--params"], {"words": 5},
     "field 'words' is not a list (got an integer)"),
    (["emit-formula", "theta", "--params"], {"relators": 5},
     "field 'relators' is not a list (got an integer)"),
    (["emit-formula", "delta", "--params"], {"n": "x", "blocks": [["x1"]]},
     "field 'n' is not an integer (got a string)"),
    (["emit-formula", "theta", "--params"], {"words": ["x^a"]},
     "vfree: malformed exponent in 'x^a'\n"),
    (["emit-formula", "mu", "--params"], {
        "g": {"generators": 2, "relators": ["x1^4", "x2^6", "x1^2 x2^-3"]},
        "u": {"generators": 1, "relators": ["y1^6"]},
        "embedding": ["x1 x2"], "tests": ["x1^2"], "kill": ["y1^3"],
        "inner": {"kind": "text", "formula": "FREE x1 x2 . x1^x2 = 1"}},
     "vfree: malformed exponent in 'x1^x2'\n"),
    (["emit-formula", "mu", "--params"],
     {**MU_PARAMS, "embedding": ["x1 x2"], "inner": {"kind": "zz"}},
     "vfree: unknown inner formula kind 'zz'\n"),
    (["emit-formula", "mu", "--params"],
     {**MU_PARAMS, "embedding": ["x1 x2"],
      "inner": {"kind": "text", "formula": "(("}},
     "vfree: unexpected end of formula\n"),
    (["emit-formula", "theta", "--params"], {"orders": [4, 6, 8]},
     "vfree: field 'orders' must list 2 orders (got 3)\n"),
], ids=["fold-list", "fold-words", "params-list", "theta-words",
        "theta-relators", "delta-n", "theta-exponent", "mu-inner-exponent",
        "mu-inner-kind", "mu-inner-end", "theta-three-orders"])
def test_fold_and_formula_json_errors_name_the_field(capsys, tmp_path, argv,
                                                     spec, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, *argv, str(path))
    assert code == 1 and out == ""
    assert message in err


@pytest.mark.parametrize("which, params, code, message", [
    ("delta", {"n": 1, "blocks": [["x1^1000000"]]}, 0,
     "x1^1000000 u1 x2^-1000000 u1^-1 = 1"),
    ("delta", {"n": 2, "blocks": [["x1^10000000000 x2^-99999999999"]]}, 0,
     "x4^99999999999 x3^-10000000000"),
    ("theta", {"orders": [4, 512]}, 0, "y^511 ~= 1"),
    ("theta", {"orders": [4, 6000]}, 1,
     "field 'orders' entry 6000 is above the order cap 512"),
    ("theta", {"orders": [10**12, 6]}, 1,
     "field 'orders' entry 1000000000000 is above the order cap 512"),
    ("mu", {**MU_PARAMS, "embedding": ["x1 x2 x1^-1"],
            "inner": {"kind": "delta", "n": 1, "blocks": [["x1^10000000"]]}},
     0, "x1 x2^10000000 x1^-1"),
    ("mu", {**MU_PARAMS, "embedding": ["x1 x2"],
            "inner": {"kind": "delta", "n": 1, "blocks": [["x1^20000"]]}},
     0, "x1 x2 " * 20000 + "u1 y1^-20000 u1^-1 = 1"),
    ("mu", {**MU_PARAMS, "embedding": ["x1 x2"],
            "inner": {"kind": "delta", "n": 1, "blocks": [["x1^10000000"]]}},
     1, "power 10000000 of x1 x2 would have 20000000 syllables, above the "
        "cap of 100000"),
    ("delta", {"n": 10000, "blocks": [["x1"]]}, 0, "x1 u1 x10001^-1 u1^-1"),
    ("delta", {"n": 10000000, "blocks": [["x1"]]}, 1,
     "field 'n' 10000000 is above the generator cap 10000"),
    ("delta", {"n": 10**9, "blocks": [["x1"]]}, 1,
     "field 'n' 1000000000 is above the generator cap 10000"),
    ("mu", {**MU_PARAMS, "embedding": ["x1 x2"],
            "g": {"generators": 10000000, "relators": []},
            "inner": {"n": 1, "blocks": [["x1"]]}}, 1,
     "field 'g.generators' 10000000 is above the generator cap 10000"),
    ("mu", {**MU_PARAMS, "embedding": ["x1 x2"],
            "u": {"generators": 10000000, "relators": []},
            "inner": {"n": 1, "blocks": [["x1"]]}}, 1,
     "field 'u.generators' 10000000 is above the generator cap 10000"),
    ("mu", {**MU_PARAMS, "embedding": ["x1 x2"],
            "inner": {"n": 10000000, "blocks": [["x1"]]}}, 1,
     "field 'inner.n' 10000000 is above the generator cap 10000"),
], ids=["delta-1e6", "delta-1e10", "theta-512", "theta-6000", "theta-1e12",
        "mu-one-syllable-core", "mu-long-core", "mu-past-the-cap",
        "delta-n-at-the-cap", "delta-n-1e7", "delta-n-1e9",
        "mu-g-generators-1e7", "mu-u-generators-1e7", "mu-inner-n-1e7"])
def test_formula_powers_finish_quickly(capsys, tmp_path, which, params, code,
                                       message):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(params))
    start = time.perf_counter()
    got, out, err = run(capsys, "emit-formula", which, "--params", str(path))
    assert time.perf_counter() - start < 1.0
    assert got == code
    assert message in (out if code == 0 else err)


@pytest.mark.parametrize("option", ["--group", "--target"])
def test_unknown_group_names_the_option(capsys, tmp_path, option):
    source = tmp_path / "marking.json"
    source.write_text('{"marking": "identity"}')
    argv = {"--group": ["group", "--group", "nosuch"],
            "--target": ["fold", "--source", str(source), "--target",
                         "nosuch"]}[option]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == (f"vfree: {option} 'nosuch' is neither a builtin group "
                   "(sl2z, counterexample, z2z3) nor a readable file (No "
                   "such file or directory)\n")


def test_group_file_refuses_a_stray_parenthesis(capsys, tmp_path):
    group = {"kind": "semidirect", "c": {"kind": "boolean", "k": 2},
             "q": {"kind": "cyclic", "n": 2, "name": "t"},
             "action": {"t": ")(e1 e2)"}}
    path = tmp_path / "stray.json"
    path.write_text(json.dumps({"vertices": [{"id": "v", "group": group}],
                                "edges": [], "base": "v"}))
    assert run(capsys, "group", "--group", str(path)) == (
        1, "", "vfree: unbalanced parentheses in cycle notation\n")


def test_group_file_refuses_a_matrix_action_on_z4(capsys, tmp_path):
    # Z/4 has order 2^2, but its indices are not bitmasks, so a matrix over
    # F₂ does not act on it.
    path = one_vertex_file(tmp_path, {
        "kind": "semidirect", "c": {"kind": "cyclic", "n": 4},
        "q": {"kind": "cyclic", "n": 2, "name": "t"},
        "action": {"t": [[1, 0], [1, 1]]}})
    assert run(capsys, "group", "--group", path) == (
        1, "", "vfree: action['t'] is a matrix action, which needs a (Z/2)^k "
        "factor with index = bitmask\n")


def file_option_argv(option: str, path: str, marking: str) -> list:
    """A command that reads path through option, its other files valid."""
    return {"--group": ["group", "--group", path],
            "--source": ["fold", "--source", path, "--target", "sl2z"],
            "--target": ["fold", "--source", marking, "--target", path],
            "--measure": ["walk", "--measure", path, "--lengths", "4"],
            "--params": ["emit-formula", "theta", "--params", path]}[option]


@pytest.mark.parametrize("option", ["--group", "--source", "--target",
                                    "--measure", "--params"])
def test_malformed_json_names_the_option(capsys, tmp_path, option):
    marking = tmp_path / "marking.json"
    marking.write_text('{"marking": "identity"}')
    bad = tmp_path / "bad.json"
    bad.write_text("{\n")
    code, out, err = run(capsys, *file_option_argv(option, str(bad),
                                                   str(marking)))
    assert code == 1 and out == ""
    assert err == (f"vfree: {option} {str(bad)!r} is not valid JSON "
                   "(Expecting property name enclosed in double quotes: "
                   "line 2 column 1 (char 2))\n")


@pytest.mark.parametrize("option", ["--source", "--measure", "--params"])
def test_missing_file_names_the_option(capsys, tmp_path, option):
    missing = str(tmp_path / "x.json")
    code, out, err = run(capsys, *file_option_argv(option, missing, ""))
    assert code == 1 and out == ""
    assert err == (f"vfree: {option} {missing!r} is not a readable file "
                   "(No such file or directory)\n")


def test_too_deeply_nested_json_exits_cleanly(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    code, out, err = run(capsys, "emit-formula", "theta", "--params",
                         str(deep))
    assert code == 1 and out == ""
    assert err.startswith(f"vfree: --params {str(deep)!r} is not valid JSON "
                          "(maximum recursion depth exceeded")


def test_exit_codes(capsys):
    code, _, _ = run(capsys, "no-such-command")
    assert code == 2
    code, _, err = run(capsys, "nf", "--group", "sl2z", "--word", "q")
    assert code == 1 and "q" in err
    code, _, _ = run(capsys, "nf", "--group", "no-such-file.json", "--word", "a")
    assert code == 1
    code, _, _ = run(capsys, "verify", "counterexample")
    assert code == 0

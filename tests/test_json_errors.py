"""Every field of every JSON document vfree reads is named by its place
when it is missing or mistyped (FORMATS.md, "JSON input errors").

One table-driven test walks each document: it deletes each field, and
replaces it with a value of each other JSON type.  The library reader
must raise a ValueError whose message names the field's place, and the
command that reads the document must exit 1 with one `vfree: ` line.
"""

import json

import pytest

import vfree.fingroup as fg
import vfree.gogwords as gw
from vfree.cli import main, report_from_json

VALUES = [None, True, 3, 1.5, "x", [], {}]
"""One value of each JSON type: null, boolean, integer, number, string,
list and object."""

GROUPS = [
    {"kind": "cyclic", "n": 4, "name": "a"},
    {"kind": "boolean", "k": 2, "names": ["p", "q"]},
    {"kind": "semidirect", "c": {"kind": "boolean", "k": 2},
     "q": {"kind": "cyclic", "n": 2, "name": "t"},
     "action": {"t": "(e1 e2)"}},
    {"kind": "direct", "factors": [{"kind": "cyclic", "n": 2, "name": "a"},
                                   {"kind": "cyclic", "n": 3, "name": "b"}]},
    {"kind": "dicyclic", "n": 2},
    {"kind": "permutations", "perms": {"s": [1, 2, 0], "t": [1, 0, 2]}},
    {"kind": "table", "table": [[0, 1], [1, 0]], "generators": {"a": 1},
     "labels": ["1", "a"]},
]

GRAPH = {
    "vertices": [{"id": "vA", "group": {"kind": "cyclic", "n": 4, "name": "a"}},
                 {"id": "vB", "group": {"kind": "cyclic", "n": 6, "name": "b"}}],
    "edges": [{"id": "e", "group": {"kind": "cyclic", "n": 2, "name": "c"},
               "ends": ["vA", "vB"], "maps": [{"c": "a a"}, {"c": "b b b"}]}],
    "base": "vA", "tree": ["e"]}

MU = {"g": {"generators": 2, "relators": ["x1^4", "x2^6", "x1^2 x2^-3"]},
      "u": {"generators": 1, "relators": ["y1^6"]},
      "embedding": ["x1 x2"], "tests": ["x1^2"], "kill": ["y1^3"]}

REPORT = {"case_name": "c", "overall": "pass",
          "checks": [{"check_id": "a", "description": "d", "status": "pass",
                      "witness": {"k": 1}}]}


class Doc:
    """A valid JSON document and how vfree reads it.

    name is the document's name in errors; read is its library reader,
    if it has one; argv is the command that reads it from a file.
    optional lists the fields that have a default, keyed the fields whose
    object (or list of objects) maps names to values, each entry named
    where['key'], and free the fields whose contents are not read.
    accepts maps a keyed field to the entry types it reads, and required
    lists the keyed fields whose every entry is required, so that a
    missing one reads where has no field 'key'."""

    def __init__(self, name, data, read=None, argv=None, optional=(),
                 keyed=(), free=(), accepts=None, root=(), required=()):
        self.name, self.data, self.read, self.argv = name, data, read, argv
        self.optional, self.keyed, self.free = (set(optional), set(keyed),
                                                set(free))
        self.required = set(required)
        self.accepts = accepts or {}
        self.root = root


GROUP_SETS = {"optional": {"name", "names", "labels"},
              "keyed": {"action", "perms", "generators"},
              "accepts": {"action": (str, list)}}


def one_vertex(group):
    return {"vertices": [{"id": "v", "group": group}], "edges": [],
            "base": "v"}


def docs(rose):
    group_argv = ["group", "--group"]
    out = []
    for g in GROUPS:
        kind = g["kind"]
        out.append((f"group-{kind}", Doc("group", g, fg.group_from_json,
                                         **GROUP_SETS)))
        out.append((f"group-{kind}-in-graph",
                    Doc("graph of groups", one_vertex(g), gw.gog_from_json,
                        group_argv, root=("vertices", 0, "group"),
                        **GROUP_SETS)))
    graph_sets = {**GROUP_SETS, "optional": GROUP_SETS["optional"] | {"tree"},
                  "keyed": GROUP_SETS["keyed"] | {"maps"},
                  "required": {"maps"}}
    out += [
        ("graph", Doc("graph of groups", GRAPH, gw.gog_from_json, group_argv,
                      **graph_sets)),
        ("marking-basis",
         Doc("marking JSON", {"marking": "basis", "words": ["x", "x y"],
                              "hub": "u"},
             argv=["fold", "--target", rose, "--source"],
             optional={"hub"})),
        ("marking-identity",
         Doc("marking JSON", {"marking": "identity"},
             argv=["fold", "--target", rose, "--source"])),
        ("measure",
         Doc("measure JSON", {"support": ["s", "t", "t^-1"],
                              "weights": ["1/2", "1/4", "1/4"]},
             argv=["walk", "--group", "z2z3", "--lengths", "2",
                   "--trials", "2", "--measure"],
             optional={"weights"})),
        ("theta",
         Doc("parameter JSON", {"relators": ["x^4", "y^6"], "words": ["x"],
                                "orders": [4, 6]},
             argv=["emit-formula", "theta", "--params"],
             optional={"relators", "words", "orders"})),
        ("delta",
         Doc("parameter JSON", {"n": 2, "blocks": [["x1"], ["x2"]]},
             argv=["emit-formula", "delta", "--params"])),
        ("mu-delta",
         Doc("parameter JSON",
             {**MU, "inner": {"kind": "delta", "n": 1, "blocks": [["x1"]]}},
             argv=["emit-formula", "mu", "--params"], optional={"kind"})),
        ("mu-text",
         Doc("parameter JSON",
             {**MU, "inner": {"kind": "text",
                              "formula": "FREE x1 x2 . x1 x2 = 1"}},
             argv=["emit-formula", "mu", "--params"], optional={"kind"})),
        ("report", Doc("report", REPORT, report_from_json, free={"witness"},
                       optional={"overall"})),
    ]
    return out


def place(path) -> str:
    """A path as errors spell it: vertices[0].group.n."""
    text = ""
    for key in path:
        text += f"[{key}]" if isinstance(key, int) else f".{key}"
    return text.lstrip(".")


def _at(data, path):
    for key in path:
        data = data[key]
    return data


def mutations(doc: Doc):
    """(description, mutated document, text its error must hold) for each
    field of doc below doc.root, and for doc.root itself."""
    def changed(path, bad):
        data = json.loads(json.dumps(doc.data))
        if not path:
            return bad
        parent = _at(data, path[:-1])
        if bad is DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = bad
        return data

    def walk(obj, path, keyed):
        if isinstance(obj, list):
            for i, item in enumerate(obj):
                yield from walk(item, path + (i,), keyed)
            return
        if not isinstance(obj, dict):
            return
        where = place(path) or doc.name
        for key, val in obj.items():
            sub = path + (key,)
            if keyed:
                if keyed in doc.required:
                    yield (f"delete {where}[{key!r}]", changed(sub, DELETE),
                           f"{where} has no field {key!r}")
                name = f"{where}[{key!r}]"
                types = doc.accepts.get(keyed, ())
            else:
                if key not in doc.optional:
                    yield (f"delete {place(sub)}", changed(sub, DELETE),
                           f"{where} has no field {key!r}")
                name = f"field {key!r}" if not path else place(sub)
                types = ()
            for bad in VALUES:
                if type(bad) is not type(val) and type(bad) not in types:
                    yield (f"{place(sub)} = {json.dumps(bad)}",
                           changed(sub, bad), name)
            if key not in doc.free:
                yield from walk(val, sub, key if key in doc.keyed else None)

    root = doc.root
    top = place(root) or doc.name
    for bad in VALUES:
        if type(bad) is not dict and (root or type(bad) is not str):
            yield (f"{top} = {json.dumps(bad)}", changed(root, bad),
                   f"{top} is not an object")
    yield from walk(_at(doc.data, root), root, None)


DELETE = object()

DOC_IDS = [doc_id for doc_id, _ in docs("rose.json")]


@pytest.mark.parametrize("doc_id", DOC_IDS)
def test_every_field_error_names_its_place(capsys, tmp_path, doc_id):
    rose = tmp_path / "rose.json"
    rose.write_text(json.dumps(gw.gog_to_json(gw.build_rose(["x", "y"]))))
    doc = dict(docs(str(rose)))[doc_id]
    path = tmp_path / "doc.json"

    def cli(data):
        path.write_text(json.dumps(data))
        code = main(doc.argv + [str(path)])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    if doc.read is not None:
        doc.read(doc.data)
    if doc.argv is not None:
        assert cli(doc.data)[0] == 0
    wrong = []
    cases = list(mutations(doc))
    assert len(cases) >= 8
    for what, data, message in cases:
        if doc.read is not None:
            try:
                doc.read(data)
                wrong.append(f"{what}: accepted")
            except ValueError as exc:
                if message not in str(exc):
                    wrong.append(f"{what}: {exc}")
        if doc.argv is not None:
            code, out, err = cli(data)
            if (code, out) != (1, "") or not err.startswith("vfree: ") \
                    or err.count("\n") != 1 or message not in err:
                wrong.append(f"{what}: cli {code} {err!r}")
    assert wrong == []

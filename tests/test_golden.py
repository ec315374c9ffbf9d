"""Byte-for-byte golden output of every command in README.md.

Each case runs one command through vfree.cli.main and compares its stdout
with tests/golden/<name>.out and its exit code with the entry in
tests/golden/exit_codes.json.  The README commands run in their text
form, and nf, classify, axis, whitehead and walk also with --format json.
verify defaults to JSON, so its second form is --format text.  The fold
case writes the rose and the basis marking it reads into a scratch
directory, as test_cli.test_fold_command does.  Each case runs twice in
one process, so what the process keeps between calls (defspace's catalog,
the CLI parser) cannot change what a later call prints.

To regenerate after an intended output change, run this file:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import pathlib
import tempfile

import pytest

import vfree.gogwords as gw
from vfree.cli import main

GOLDEN = pathlib.Path(__file__).with_name("golden")

CASES = {
    "group": ["group", "--group", "sl2z"],
    "nf": ["nf", "--group", "sl2z", "--word", "a a b b b b b b"],
    "nf_json": ["nf", "--group", "sl2z", "--word", "a a b b b b b b",
                "--format", "json"],
    "classify": ["classify", "--group", "sl2z", "--word", "a b"],
    "classify_json": ["classify", "--group", "sl2z", "--word", "a b",
                      "--format", "json"],
    "axis": ["axis", "--group", "sl2z", "--word", "a b", "--periods", "3"],
    "axis_json": ["axis", "--group", "sl2z", "--word", "a b", "--periods",
                  "3", "--format", "json"],
    "defspace_reduced": ["defspace", "reduced", "--group", "sl2z"],
    "defspace_enumerate": ["defspace", "enumerate", "--vertices", "2",
                           "--edges", "1", "--max-order", "6"],
    "defspace_expand": ["defspace", "expand", "--group", "sl2z",
                        "--depth", "2"],
    "fold": ["fold", "--source", "{dir}/marking.json",
             "--target", "{dir}/rose.json", "--max-steps", "50"],
    "whitehead": ["whitehead", "--group", "sl2z", "--word", "a b"],
    "whitehead_json": ["whitehead", "--group", "sl2z", "--word", "a b",
                       "--format", "json"],
    "walk": ["walk", "--group", "sl2z", "--lengths", "8,32,128",
             "--trials", "200", "--seed", "7"],
    "walk_json": ["walk", "--group", "sl2z", "--lengths", "8,32,128",
                  "--trials", "200", "--seed", "7", "--format", "json"],
    "walk_unsorted": ["walk", "--group", "sl2z", "--lengths", "32,8,32",
                      "--trials", "5", "--seed", "7"],
    "walk_counterexample": ["walk", "--group", "counterexample", "--lengths",
                            "4,16", "--trials", "20", "--seed", "3"],
    "walk_z2z3": ["walk", "--group", "z2z3", "--lengths", "4,16",
                  "--trials", "20", "--seed", "3"],
    "emit_formula_theta": ["emit-formula", "theta"],
    "verify_sl2z": ["verify", "sl2z"],
    "verify_sl2z_text": ["verify", "sl2z", "--format", "text"],
    "verify_counterexample": ["verify", "counterexample"],
    "verify_counterexample_text": ["verify", "counterexample",
                                   "--format", "text"],
}


def write_fold_inputs(directory: pathlib.Path) -> None:
    rose = gw.gog_to_json(gw.build_rose(["x", "y"]))
    (directory / "rose.json").write_text(json.dumps(rose))
    (directory / "marking.json").write_text(
        json.dumps({"marking": "basis", "words": ["x", "x y"]}))


def run_case(name: str, directory: pathlib.Path) -> tuple[int, str]:
    """Exit code and stdout of one case, with fold inputs in directory."""
    write_fold_inputs(directory)
    argv = [a.format(dir=directory) for a in CASES[name]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_readme_command_output_is_byte_stable(name, tmp_path):
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    golden = (GOLDEN / f"{name}.out").read_text()
    for _ in range(2):
        assert run_case(name, tmp_path) == (codes[name], golden)


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            codes[name], out = run_case(name, pathlib.Path(tmp))
            (GOLDEN / f"{name}.out").write_text(out)
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(codes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()

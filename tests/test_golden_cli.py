"""Golden CLI corpus: replays argv lists through ``cli.main`` in-process and
checks stdout, stderr and the exit code byte for byte against
``golden_cli.json``.

The corpus covers compute and gamma for every family x class x engine x
format at n = 2, 3, 5 (rotated, not the full product), table and conjugacy,
the usage-error paths, and ``verify --suite all --max-n 4``.  Re-record only
when a change to the CLI output is intended:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import json
import pathlib

import pytest

from gammaexc.cli import main

GOLDEN = pathlib.Path(__file__).with_name("golden_cli.json")

FAMILIES = ("a_des", "aexc", "aderexc", "conjexc", "b_des", "bexc", "dexc",
            "bdexc", "sgn_aexc", "sgn_bexc", "sgn_dexc", "sgnb_des_u",
            "qrefined")
CLASSES = ("all", "plus", "minus")
ENGINES = (None, "oracle", "closed")
FORMATS = ("text", "json")
RANKS = (2, 3, 5)
LAMBDAS = {2: "2", 3: "2,1", 5: "3,2"}


def _family_args(family, n, i):
    if family == "conjexc":
        return ["--lambda", LAMBDAS[n]]
    if family == "qrefined":
        return ["--stat", ("inv", "cyc")[i % 2]]
    if family == "aderexc" and i % 3 == 2:
        return ["--fixed", "1"]
    return []


def corpus():
    commands = []
    i = 0
    for family in FAMILIES:
        for cls in CLASSES:
            for e, engine in enumerate(ENGINES):
                for command in ("compute", "gamma"):
                    n = RANKS[(e + CLASSES.index(cls)) % 3]
                    argv = [command, "--family", family, "--n", str(n),
                            "--class", cls]
                    argv += _family_args(family, n, i)
                    if engine is not None:
                        argv += ["--engine", engine]
                    argv += ["--format", FORMATS[i % 2]]
                    commands.append(argv)
                    i += 1
    for mode in ("uni", "biv", "q"):
        for family in ("aexc", "aderexc", "qrefined"):
            argv = ["gamma", "--family", family, "--n", "4", "--mode", mode]
            if family == "qrefined":
                argv += ["--stat", "cyc"]
            commands.append(argv)
    for family, extra in (("aexc", ["--class", "plus"]), ("dexc", []),
                          ("aderexc", ["--class", "minus"]),
                          ("qrefined", ["--stat", "inv"]),
                          ("sgn_bexc", []), ("b_des", ["--class", "minus"])):
        for out in ("csv", "json"):
            commands.append(["table", "--family", family, "--n-range", "2..5",
                             "--out", out] + extra)
    for lam in ("2,2", "3,1", "1,1,1", "4,2,1"):
        for fmt in FORMATS:
            commands.append(["conjugacy", "--lambda", lam, "--format", fmt])
    commands += [
        ["compute", "--family", "conjexc", "--n", "4"],
        ["gamma", "--family", "conjexc", "--n", "4", "--engine", "closed"],
        ["compute", "--family", "qrefined", "--n", "4"],
        ["gamma", "--family", "qrefined", "--n", "4", "--engine", "oracle"],
        ["compute", "--family", "qrefined", "--n", "4", "--stat", "inv",
         "--engine", "closed"],
        ["verify", "--suite", "all", "--max-n", "4"],
    ]
    return commands


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


# an absent recording still fails, in test_corpus_matches_recording
CASES = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else []


def test_corpus_matches_recording():
    recorded = json.loads(GOLDEN.read_text())
    assert [case["argv"] for case in recorded] == corpus()


@pytest.mark.parametrize("case", CASES, ids=lambda c: " ".join(c["argv"]))
def test_golden(case):
    assert run(case["argv"]) == case


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([run(argv) for argv in corpus()], indent=1)
                      + "\n")
    print(f"recorded {len(corpus())} commands to {GOLDEN}")

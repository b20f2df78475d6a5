from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import walkup
from walkup import core
from walkup.cli import build_parser, run

# The directory holding the imported `walkup` package, so a child interpreter
# runs the code under test whatever the working directory or install state.
_PACKAGE_ROOT = str(Path(walkup.__file__).resolve().parent.parent)


def _invoke_python(*argv: str, stdin: str | bytes | None = None):
    """Run `python ARGV` in a real process that imports the code under test,
    piping `stdin` in; the outputs come back as text."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_PACKAGE_ROOT, env.get("PYTHONPATH")) if p
    )
    data = stdin.encode() if isinstance(stdin, str) else stdin
    done = subprocess.run([sys.executable, *argv], capture_output=True, input=data, env=env)
    return subprocess.CompletedProcess(
        done.args, done.returncode, done.stdout.decode(), done.stderr.decode()
    )


def _report_schema() -> dict:
    from importlib import resources

    return json.loads(resources.files("walkup").joinpath("data", "report.schema.json").read_text())


def _invoke(*argv: str, stdin: str | bytes | None = None):
    """Run `python -m walkup ARGV` in a real process, piping `stdin` in."""
    return _invoke_python("-m", "walkup", *argv, stdin=stdin)


def test_run_info_k39():
    outcome = run(["info", "k39"])
    assert outcome.exit_code == 0
    assert outcome.report["data"]["f_vector"] == [9, 36, 54, 27]
    assert outcome.report["data"]["euler_characteristic"] == 0


def test_malformed_walkup_threads_exits_1(monkeypatch):
    # `info` starts no census workers, whatever the thread count
    monkeypatch.setenv("WALKUP_THREADS", "abc")
    outcome = run(["info", "k39"])
    assert outcome.exit_code == 1
    assert "--threads" in outcome.report["error"] and "'abc'" in outcome.report["error"]
    assert outcome.text.startswith("error: ")
    assert run(["--json", "info", "k39"]).json_requested
    # an explicit flag overrides the variable, which is then never parsed
    assert run(["info", "k39", "--threads", "1"]).exit_code == 0
    monkeypatch.setenv("WALKUP_THREADS", "3")
    assert build_parser().parse_args(["info", "k39"]).threads == 3


@pytest.mark.parametrize("value", ["0", "-2"])
def test_threads_below_one_exits_1(monkeypatch, value):
    outcome = run(["enumerate", "spheres2", "--n", "5", "--threads", value])
    assert outcome.exit_code == 1
    assert "--threads" in outcome.report["error"] and "at least 1" in outcome.report["error"]
    assert outcome.text.startswith("error: ") and "usage:" in outcome.text
    monkeypatch.setenv("WALKUP_THREADS", value)
    assert run(["info", "k39"]).exit_code == 1


_MALFORMED = {
    "truncated JSON": b"{",
    "facets not an array": b'{"facets": 5}',
    "facet not an array": b'{"facets": [5]}',
    "array label": b'{"facets": [[[1], 2]]}',
    "null label": b'{"facets": [[null, 2]]}',
    "top-level array": b"[[null, 2]]",
    "not UTF-8": b"\xff\xfe1 2 3\n",
    "directory": None,
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_complex_input_exits_1(tmp_path, case):
    """Each malformed file exits 1 with a precondition message and a
    schema-valid report, never with a traceback."""
    import jsonschema

    schema = _report_schema()
    path = tmp_path / "input"
    if _MALFORMED[case] is None:
        path.mkdir()
    else:
        path.write_bytes(_MALFORMED[case])
    outcome = run(["--json", "info", str(path)])
    assert outcome.exit_code == 1 and outcome.json_requested
    jsonschema.validate(outcome.report, schema)
    assert outcome.report["command"] == "info" and outcome.report["error"]
    if _MALFORMED[case] is not None:
        piped = _invoke("info", "-", stdin=_MALFORMED[case])
        assert piped.returncode == 1 and piped.stdout.startswith("error: ")
        assert "Traceback" not in piped.stderr


def test_bistellar_imports_only_what_it_needs():
    """Loading `walkup.bistellar`, the reduction's entry point, imports no
    other walkup module: each one costs milliseconds of start-up."""
    probe = _invoke_python(
        "-c",
        "import sys, walkup.bistellar; "
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'walkup')))"
    )
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.split() == [
        "walkup", "walkup.bistellar", "walkup.core", "walkup.recognition",
    ]


def test_enumeration_imports_only_what_it_needs():
    """Loading `walkup.enumeration` imports only the modules the census
    runs: the core kernels, canonical forms and homology."""
    probe = _invoke_python(
        "-c",
        "import sys, walkup.enumeration; "
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'walkup')))"
    )
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.split() == [
        "walkup", "walkup.core", "walkup.enumeration", "walkup.homology", "walkup.isomorphism",
    ]


def test_unknown_subcommand_exits_1():
    outcome = run(["frobnicate"])
    assert outcome.exit_code == 1
    outcome = run(["info", "nosuchcomplex"])
    assert outcome.exit_code == 1


def test_gen_info_round_trip(tmp_path):
    for name in ("S5", "k39", "m10", "c37"):
        path = tmp_path / f"{name}.facets"
        outcome = run(["gen", name, "-o", str(path)])
        assert outcome.exit_code == 0
        direct = run(["info", name]).report["data"]["f_vector"]
        from_file = run(["info", str(path)]).report["data"]["f_vector"]
        assert direct == from_file


def test_gen_text_is_canonical():
    outcome = run(["gen", "S4"])
    K = core.from_text(outcome.text)
    assert core.to_text(K) == outcome.text


def test_cli_subprocess_pipeline():
    gen = _invoke("gen", "k39")
    assert gen.returncode == 0
    hom = _invoke("homology", "-", stdin=gen.stdout)
    assert hom.returncode == 0
    assert hom.stdout.strip() == "H0=Z  H1=Z  H2=Z/2  H3=0"


def test_cli_json_reports_validate_against_schema():
    import jsonschema

    schema = _report_schema()
    commands = [
        ["info", "k39"],
        ["check", "S5"],
        ["homology", "c37"],
        ["iso", "S3", "S4"],
        ["aut", "S7"],
        ["alpha", "--k", "6"],
        ["moves", "list", "--complex", "k39", "--type", "2"],
        ["verify", "eq1", "--complex", "k39"],
        ["verify", "lemma3.1", "--complex", "S7"],
        ["nonsense"],
    ]
    for argv in commands:
        outcome = run(argv)
        jsonschema.validate(outcome.report, schema)
        assert outcome.report["exit_code"] == outcome.exit_code


def test_check_text_and_json_carry_same_facts():
    text_outcome = run(["check", "k39"])
    data = text_outcome.report["data"]
    for key, value in data.items():
        if isinstance(value, bool):
            assert f"{key}" in text_outcome.text
    assert data["is_three_manifold"] is True
    assert data["is_two_sphere"] is False


def test_link_command():
    outcome = run(["link", "k39", "--face", "1,5"])
    assert outcome.exit_code == 0
    assert sorted(outcome.report["data"]["link"]) == [["2", "3"], ["2", "4"], ["3", "4"]]

    facet = run(["link", "k39", "--face", "1,2,4,5"])
    assert facet.exit_code == 0
    assert facet.report["data"]["link"] == []
    assert "empty complex" in facet.text


def test_internal_contradiction_maps_to_exit_2(monkeypatch):
    from walkup import bistellar
    from walkup.bistellar import LemmaViolation

    def explode(K):
        raise LemmaViolation("synthetic: no degree-raising move")

    monkeypatch.setattr(bistellar, "neighbourly_reduction", explode)
    outcome = run(["reduce", "--complex", "random9:1"])
    assert outcome.exit_code == 2
    assert "verified failure" in outcome.text


def test_moves_and_reduce():
    outcome = run(["moves", "list", "--complex", "k39", "--type", "2"])
    assert outcome.exit_code == 0
    assert outcome.report["data"]["count"] == 0

    outcome = run(["moves", "explain", "--complex", "k39", "--alpha", "1,5"])
    assert outcome.exit_code == 2
    assert outcome.report["data"]["status"] == "beta is a face"
    assert outcome.report["data"]["beta"] == ["2", "3", "4"]

    gen = _invoke("gen", "random9:5")
    listed = _invoke("moves", "list", "--complex", "-", "--type", "1", stdin=gen.stdout)
    assert listed.returncode == 0
    reduced = _invoke("reduce", "--complex", "random9:5")
    assert reduced.returncode == 0
    assert "reduced in" in reduced.stdout


def test_iso_exit_codes():
    assert run(["iso", "S3", "S4"]).exit_code == 2
    assert run(["iso", "S3", "S3"]).exit_code == 0


def test_aut_hex_digest_usable_as_key():
    outcome = run(["aut", "k39"])
    assert outcome.exit_code == 0
    digest = outcome.report["data"]["canonical_digest"]
    assert isinstance(digest, str) and len(digest) > 0
    int(digest, 16)  # hex digest
    assert outcome.report["data"]["order"] == 18


def test_aut_runs_one_isomorphism_search(monkeypatch):
    from walkup import constructions, isomorphism

    K = constructions.walkup_complex(3)
    group = isomorphism.automorphism_group(K)
    digest = isomorphism.canonical_form(K).hex_digest()

    calls = []
    search = isomorphism._search

    def counted(L):
        calls.append(L)
        return search(L)

    monkeypatch.setattr(isomorphism, "_search", counted)
    outcome = run(["aut", "k39"])
    assert len(calls) == 1
    assert outcome.exit_code == 0
    data = outcome.report["data"]
    assert data["order"] == group.order == 18
    assert data["canonical_digest"] == digest
    assert data["generators"] == [{a: b for a, b in g if a != b} for g in group.generators]
    assert outcome.text.splitlines()[:2] == ["order: 18", f"canonical digest: {digest}"]


def test_aut_k27_order_42_under_relabelling(tmp_path):
    """|Aut(k27)| = 42 (the affine maps x -> ax + b mod 7), as labelled and
    after relabelling; the file input goes through the same command."""
    from walkup import constructions

    assert run(["aut", "k27"]).report["data"]["order"] == 42
    K = constructions.walkup_complex(2)
    rng = random.Random(27)
    for i in range(6):
        image = list(K.labels)
        rng.shuffle(image)
        path = tmp_path / f"k27-{i}.txt"
        path.write_text(core.to_text(K.relabel(dict(zip(K.labels, image)))))
        outcome = run(["aut", str(path)])
        assert outcome.exit_code == 0
        assert outcome.report["data"]["order"] == 42


def test_verify_exit_codes():
    assert run(["verify", "lemma4.1", "--complex", "k39"]).exit_code == 0
    assert run(["verify", "lemma4.2", "--complex", "k39"]).exit_code == 0
    assert run(["verify", "lemma4.5", "--complex", "k39"]).exit_code == 0
    assert run(["verify", "eq1", "--complex", "k39"]).exit_code == 0
    # precondition errors exit 1
    assert run(["verify", "eq1", "--complex", "m10"]).exit_code == 1
    assert run(["verify", "lemma3.1"]).exit_code == 1
    # verified failures exit 2 (published S5 count is off by a duplicate orbit)
    assert run(["verify", "lemma3.1", "--complex", "S5"]).exit_code == 2


def test_verify_takes_one_subject_option():
    """`--complex` names every claim's subject, for lemma3.1 a catalog name;
    a second subject option, an unknown case or none at all exits 1."""
    for argv, message in [
        (["verify", "lemma4.2", "--complex", "k39", "--sphere", "S5"], "unrecognized arguments"),
        (["verify", "lemma3.1", "--complex", "nosuch"], "no case data"),
        (["verify", "lemma3.1"], "--complex"),
    ]:
        done = _invoke(*argv)
        assert done.returncode == 1, argv
        assert done.stdout.startswith("error: ") and message in done.stdout, argv
        assert done.stderr == "", argv
    assert _invoke("verify", "lemma3.1", "--complex", "S5").returncode == 2


def test_enumerate_spheres_cli(tmp_path):
    out = tmp_path / "census.facets"
    outcome = run(["enumerate", "spheres2", "--n", "6", "--out", str(out)])
    assert outcome.exit_code == 0
    assert outcome.report["data"]["counts"] == {"two_sphere": 2}
    blocks = [b for b in out.read_text().split("\n\n") if b.strip()]
    assert len(blocks) == 2
    for block in blocks:
        K = core.from_text(block)
        assert K.vertex_count == 6


def test_alpha_with_explicit_complex():
    outcome = run(["alpha", "--k", "8", "--complex", "calS"])
    assert outcome.exit_code == 0
    assert outcome.report["data"]["alpha"] == 42


def test_alpha_complex_must_have_k_vertices():
    """`--complex X` is checked against the closed form the command reports,
    for k; an X on another vertex count is a precondition error."""
    outcome = run(["alpha", "--k", "5", "--complex", "S5"])  # S5 has 7 vertices
    assert outcome.exit_code == 1
    assert outcome.report["error"] == "S5 has 7 vertices, not k = 5"
    outcome = run(["alpha", "--k", "7", "--complex", "S5"])
    assert outcome.exit_code == 0
    assert outcome.report["data"]["alpha"] == outcome.report["data"]["formula_value"] == 25
    # without a complex, the census refuses k > 10
    outcome = run(["alpha", "--k", "11"])
    assert outcome.exit_code == 1 and "n <= 10" in outcome.report["error"]


def test_rejected_inputs_exit_1_without_a_traceback():
    for argv in (["info", "random9:5", "--seed", "3"], ["alpha", "--k", "5", "--complex", "S5"]):
        done = _invoke(*argv)
        assert done.returncode == 1, argv
        assert done.stdout.startswith("error: ") and done.stderr == "", argv


def test_moves_apply_cli():
    # flip the removable edge of a churned sphere and check the f-vector step
    gen = run(["gen", "random9:4"])
    listed = run(["moves", "list", "--complex", "random9:4", "--type", "1"])
    assert listed.exit_code == 0 and listed.report["data"]["count"] > 0
    first = listed.report["data"]["moves"][0]
    applied = run(
        [
            "moves", "apply",
            "--complex", "random9:4",
            "--alpha", ",".join(first["alpha"]),
            "--beta", ",".join(first["beta"]),
        ]
    )
    assert applied.exit_code == 0
    before = core.from_text(gen.text).f_vector()
    after = applied.report["data"]["f_vector"]
    assert tuple(after) == (before[0], before[1] + 1, before[2] + 2, before[3] + 1)


def test_stale_move_names_the_opposing_face():
    # alpha = {1} is removable on the 5-cycle, but its opposing face is {2,5}
    outcome = run(["moves", "apply", "--complex", "cycle:5", "--alpha", "1", "--beta", "3"])
    assert outcome.exit_code == 1
    assert outcome.report["error"].endswith("(the opposing face is {2,5})")


def test_reduce_already_neighbourly():
    outcome = run(["reduce", "--complex", "k39"])
    assert outcome.exit_code == 0
    assert outcome.report["data"]["move_count"] == 0
    assert outcome.report["data"]["neighbourly"] is True


def test_file_and_json_inputs(tmp_path):
    text_path = tmp_path / "c.facets"
    json_path = tmp_path / "c.json"
    text_path.write_text(run(["gen", "c37"]).text)
    json_path.write_text(json.dumps(core.to_json_obj(core.from_text(text_path.read_text()))))
    for path in (text_path, json_path):
        outcome = run(["info", str(path)])
        assert outcome.report["data"]["f_vector"] == [7, 21, 28, 14]


def test_parametric_names():
    assert run(["info", "sphere:3"]).report["data"]["f_vector"] == [5, 10, 10, 5]
    assert run(["info", "cycle:9"]).report["data"]["f_vector"] == [9, 9]
    assert run(["info", "walkup:2"]).report["data"]["f_vector"] == [7, 21, 14]
    assert run(["info", "sphere:x"]).exit_code == 1
    homology = run(["homology", "walkup:4"])
    assert homology.exit_code == 0 and homology.text == "H0=Z  H1=Z  H2=0  H3=Z  H4=Z\n"


def test_help_returns_an_outcome():
    """`-h` anywhere returns the help text with exit code 0, as a report
    under `--json`, instead of leaving `run` through SystemExit."""
    outcome = run(["--json", "-h"])
    assert outcome.exit_code == 0 and outcome.json_requested
    assert outcome.report["data"]["help"] == outcome.text
    assert outcome.text.startswith("usage: walkup")
    outcome = run(["moves", "list", "--help"])
    assert outcome.exit_code == 0 and outcome.text.startswith("usage: walkup moves list")


@pytest.mark.slow
def test_enumerate_neighbourly_cli(tmp_path):
    out = tmp_path / "neighbourly.facets"
    outcome = run(["enumerate", "neighbourly9", "--out", str(out), "--json"])
    assert outcome.exit_code == 0 and outcome.json_requested
    assert outcome.report["data"]["counts"] == {
        "total": 51, "sphere": 50, "non_sphere": 1,
    }
    assert "degree_prunes" in outcome.report["data"]["stats"]
    assert "key_prunes" in outcome.report["data"]["stats"]
    blocks = [b for b in out.read_text().split("\n\n") if b.strip()]
    assert len(blocks) == 51


def test_random9_seed_is_the_only_random_spelling():
    """`random9:SEED` alone names a random sphere: `--seed`, on either side
    of the command, is a usage error, bare `random9` names nothing, and no
    report carries a seed."""
    import jsonschema

    from walkup.bistellar import neighbourly_reduction, random_three_sphere

    schema = _report_schema()
    for argv in (
        ["--seed", "3", "gen", "random9:5"],
        ["info", "random9:5", "--seed", "3"],
        ["--json", "reduce", "--complex", "random9:5", "--seed", "3"],
    ):
        outcome = run(argv)
        assert outcome.exit_code == 1 and outcome.text.startswith("error: "), argv
        jsonschema.validate(outcome.report, schema)
    assert run(["gen", "random9"]).exit_code == 1
    assert run(["info", "random9"]).exit_code == 1

    K = random_three_sphere(5)
    gen = run(["gen", "random9:5", "--json"])
    assert core.from_text(gen.text) == K
    assert gen.report["data"]["facets"] == core.to_json_obj(K)["facets"]
    info = run(["info", "random9:5"])
    assert info.report["data"]["facets"] == len(K.facet_masks) == 24
    assert info.report["data"]["f_vector"] == list(K.f_vector())
    reduce = run(["reduce", "--complex", "random9:5"])
    reduced, moves = neighbourly_reduction(K)
    assert reduce.report["data"]["moves"] == [m.describe() for m in moves]
    assert reduce.report["data"]["f_vector"] == list(reduced.f_vector())
    for outcome in (gen, info, reduce):
        assert outcome.exit_code == 0 and "seed" not in outcome.report
        assert "seed" not in outcome.report["data"]
        jsonschema.validate(outcome.report, schema)
    assert "seed" not in schema["properties"]


# The argument surface for the fuzz below: every command with valid and
# malformed operands, then stray flags and tokens anywhere in the line.  The
# censuses on 9 vertices and the file-writing flags are left out: the one
# takes seconds and the other writes wherever its path points.
_COMPLEXES = [
    "S5", "S9", "k39", "k27", "c37", "m10", "calS", "-", "nosuch", "sphere:x", "torus:1",
    ":", "/nonexistent/walkup.facets",
]
_PARAMETRIC = st.builds(
    "{}:{}".format, st.sampled_from(["sphere", "cycle", "walkup", "random9"]), st.integers(-2, 14)
)
_COMPLEX = st.sampled_from(_COMPLEXES) | _PARAMETRIC
_FACE = st.sampled_from(["1", "1,2", "1,2,3", "2 3 4 5", "", ",", "x", "1,1", "9,10"])
_INT = st.sampled_from(["-1", "0", "1", "2", "3", "5", "8", "9", "x", "", "9" * 20])
_OPERANDS = {
    "gen": st.tuples(_COMPLEX),
    "info": st.tuples(_COMPLEX),
    "check": st.tuples(_COMPLEX),
    "homology": st.tuples(_COMPLEX),
    "aut": st.tuples(_COMPLEX),
    "link": st.tuples(_COMPLEX, st.just("--face"), _FACE),
    "iso": st.tuples(_COMPLEX, _COMPLEX),
    "alpha": st.tuples(st.just("--k"), _INT)
    | st.tuples(st.just("--k"), _INT, st.just("--complex"), _COMPLEX),
    "moves": st.tuples(st.just("list"), st.just("--complex"), _COMPLEX, st.just("--type"), _INT)
    | st.tuples(st.just("explain"), st.just("--complex"), _COMPLEX, st.just("--alpha"), _FACE)
    | st.tuples(
        st.just("apply"), st.just("--complex"), _COMPLEX, st.just("--alpha"), _FACE,
        st.just("--beta"), _FACE,
    ),
    "reduce": st.tuples(st.just("--complex"), _COMPLEX),
    "verify": st.tuples(
        st.sampled_from(["lemma3.1", "lemma4.1", "lemma4.2", "lemma4.5", "eq1", "lemma9"]),
        st.sampled_from(["--complex", "--sphere"]),
        _COMPLEX | st.sampled_from(["S2", "S7"]),
    ),
    "enumerate": st.tuples(st.just("spheres2"), st.just("--n"), _INT),
    "frobnicate": st.tuples(),
}
_STRAY = st.sampled_from(["--json", "--seed", "--threads", "--bogus", "-h", "-", "x"]) | _INT
_STDIN = st.sampled_from([b"", b"1 2 3\n", b"1 2\n2 3\n3 1\n", b"{", b"[[1, 2]]", b"\xff"])


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_OPERANDS)))
    argv = [command, *draw(_OPERANDS[command])]
    for token in draw(st.lists(_STRAY, max_size=2)):
        argv.insert(draw(st.integers(0, len(argv))), token)
    if draw(st.booleans()):
        argv.insert(draw(st.integers(0, len(argv))), "--json")
    return argv


@settings(max_examples=150)
@given(_argvs(), _STDIN)
def test_run_argument_fuzz(argv, stdin):
    """Every command line returns an exit code of 0, 1 or 2 and a report
    that is schema-valid and serialisable, never an exception."""
    import io
    from unittest import mock

    import jsonschema

    with mock.patch.object(sys, "stdin", io.TextIOWrapper(io.BytesIO(stdin))):
        outcome = run(argv)
    assert outcome.exit_code in (0, 1, 2)
    assert outcome.report["exit_code"] == outcome.exit_code
    assert "--json" in argv or not outcome.json_requested
    jsonschema.validate(json.loads(json.dumps(outcome.report)), _report_schema())
    assert isinstance(outcome.text, str)

"""Command-line surface for the toolkit.

One executable exposes generation, recognition, moves, isomorphism,
homology, the claim verifications and the censuses.  Exit codes follow a
three-way contract: 0 for a pass, 1 for usage or precondition errors, 2 for
a verified failure (the requested property was checked and does not hold).
Text and JSON output carry the same facts; `-` means stdin wherever a
complex is expected, and catalog names bypass file I/O.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from . import bistellar, constructions, core, enumeration, homology, lemmas, recognition
from .core import PreconditionError, SimplicialComplex
from .isomorphism import are_isomorphic, automorphism_group, canonical_form


@dataclass
class CommandOutcome:
    exit_code: int  # 0 pass / 1 usage-or-precondition error / 2 verified failure
    report: dict
    text: str
    json_requested: bool = False


class _UsageError(Exception):
    pass


class _HelpRequested(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise _UsageError(message)

    def print_help(self, file=None):  # argparse default prints, then exits
        raise _HelpRequested(self.format_help())


def _read_stdin() -> str:
    try:
        return sys.stdin.buffer.read().decode("utf-8")  # strict, as for files
    except UnicodeDecodeError as exc:
        raise PreconditionError(f"cannot read stdin: {exc}") from None


def _parse_complex(text: str) -> SimplicialComplex:
    """A complex in the JSON format (text opening with `{` or `[`) or the text format."""
    if text.lstrip().startswith(("{", "[")):
        return core.from_json(text)
    return core.from_text(text)


def _resolve_complex(token: str) -> SimplicialComplex:
    """`-` reads stdin; a token `constructions.get_complex` builds is that
    complex; else an existing file of that path is read, and with none the
    table's error stands."""
    if token == "-":
        return _parse_complex(_read_stdin())
    try:
        return constructions.get_complex(token)
    except PreconditionError:
        if not os.path.exists(token):
            raise
    try:
        with open(token, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise PreconditionError(f"cannot read {token}: {exc}") from None
    return _parse_complex(text)


def _parse_face(text: str) -> list[str]:
    parts = [p for p in text.replace(",", " ").split() if p]
    if not parts:
        raise PreconditionError("empty face argument")
    return parts


def _render(data: dict, indent: str = "") -> list[str]:
    lines = []
    width = max((len(k) for k in data), default=0)
    for key, value in data.items():
        if isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines.extend(_render(value, indent + "  "))
        elif isinstance(value, list) and value and isinstance(value[0], (list, dict)):
            lines.append(f"{indent}{key}:")
            for item in value:
                lines.append(f"{indent}  {item}")
        else:
            lines.append(f"{indent}{key + ':':<{width + 1}} {value}")
    return lines


# -- command handlers ----------------------------------------------------------


def _cmd_gen(args) -> tuple[bool, dict, str]:
    K = _resolve_complex(args.name)
    body = core.to_text(K)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(body)
        body = f"wrote {args.output}\n"
    data = {"name": args.name, "facets": core.to_json_obj(K)["facets"]}
    return True, data, body


def _cmd_info(args) -> tuple[bool, dict, str]:
    K = _resolve_complex(args.complex)
    data = {
        "vertices": K.vertex_count,
        "dim": K.dim,
        "facets": len(K.facet_masks),
        "f_vector": list(K.f_vector()),
        "euler_characteristic": K.euler_characteristic(),
        "labels": list(K.labels),
    }
    return True, data, "\n".join(_render(data)) + "\n"


def _cmd_check(args) -> tuple[bool, dict, str]:
    K = _resolve_complex(args.complex)
    report = recognition.recognition_report(K)
    data = report.as_dict()
    return True, data, "\n".join(_render(data)) + "\n"


def _cmd_link(args) -> tuple[bool, dict, str]:
    K = _resolve_complex(args.complex)
    L = K.link(_parse_face(args.face))
    if not L.facet_masks:
        return True, {"face": args.face, "link": []}, "(empty complex)\n"
    return True, {"face": args.face, "link": core.to_json_obj(L)["facets"]}, core.to_text(L)


def _cmd_homology(args) -> tuple[bool, dict, str]:
    K = _resolve_complex(args.complex)
    profile = homology.homology(K)
    data = {
        "betti": list(profile.betti),
        "torsion": [list(t) for t in profile.torsion],
        "groups": {f"H{i}": profile.group(i) for i in range(len(profile.betti))},
    }
    return True, data, str(profile) + "\n"


def _cmd_iso(args) -> tuple[bool, dict, str]:
    K = _resolve_complex(args.complex_a)
    L = _resolve_complex(args.complex_b)
    ok, witness = are_isomorphic(K, L)
    data = {"isomorphic": ok, "witness": witness}
    text = "isomorphic\n" if ok else "not isomorphic\n"
    if witness:
        text += "".join(f"  {a} -> {b}\n" for a, b in sorted(witness.items()))
    return ok, data, text


def _cmd_aut(args) -> tuple[bool, dict, str]:
    K = _resolve_complex(args.complex)
    cf, group = canonical_form(K), automorphism_group(K)
    data = {
        "order": group.order,
        "generators": [
            {a: b for a, b in gen if a != b} for gen in group.generators
        ],
        "canonical_digest": cf.hex_digest(),
    }
    lines = [f"order: {group.order}", f"canonical digest: {cf.hex_digest()}"]
    for gen in data["generators"]:
        lines.append("generator: " + ", ".join(f"{a}->{b}" for a, b in sorted(gen.items())))
    return True, data, "\n".join(lines) + "\n"


def _cmd_alpha(args) -> tuple[bool, dict, str]:
    k = args.k
    expected = lemmas.alpha_formula(k)
    data = {"k": k, "formula_value": expected}
    if args.complex:
        X = _resolve_complex(args.complex)
        if X.vertex_count != k:
            raise PreconditionError(f"{args.complex} has {X.vertex_count} vertices, not k = {k}")
        value = lemmas.alpha(X)
        data["alpha"] = value
        return value == expected, data, f"alpha = {value} (closed form {expected})\n"
    values = sorted({lemmas.alpha(X) for X in enumeration.enumerate_two_spheres(k).complexes})
    data["census_values"] = values
    ok = values == [expected]
    text = f"alpha over all {k}-vertex 2-spheres: {values}, closed form {expected}\n"
    return ok, data, text


def _cmd_moves(args) -> tuple[bool, dict, str]:
    K = _resolve_complex(args.complex)
    if args.action == "list":
        found = bistellar.removable_faces(K, args.type)
        data = {
            "type": args.type,
            "count": len(found),
            "moves": [
                {"alpha": sorted(m.alpha), "beta": sorted(m.beta)} for m in found
            ],
        }
        body = "".join(m.describe() + "\n" for m in found) or "no moves\n"
        return True, data, body
    if args.action == "explain":
        alpha_face = _parse_face(args.alpha)
        status, beta = bistellar.classify_face(K, alpha_face)
        data = {
            "alpha": sorted(alpha_face),
            "status": status,
            "beta": sorted(beta) if beta else None,
        }
        text = f"alpha {{{','.join(sorted(alpha_face))}}}: {status}"
        if beta:
            text += f" (beta {{{','.join(sorted(beta))}}})"
        return status == bistellar.REMOVABLE, data, text + "\n"
    # apply
    alpha_face = frozenset(_parse_face(args.alpha))
    beta_face = frozenset(_parse_face(args.beta))
    move_type = K.dim - (len(alpha_face) - 1)
    move = bistellar.BistellarMove(alpha_face, beta_face, move_type)
    result = bistellar.apply_move(K, move)
    data = {"applied": move.describe(), "f_vector": list(result.f_vector())}
    return True, data, core.to_text(result)


def _cmd_reduce(args) -> tuple[bool, dict, str]:
    K = _resolve_complex(args.complex)
    reduced, moves = bistellar.neighbourly_reduction(K)
    data = {
        "moves": [m.describe() for m in moves],
        "move_count": len(moves),
        "f_vector": list(reduced.f_vector()),
        "neighbourly": recognition.is_neighbourly(reduced),
    }
    body = "".join(m.describe() + "\n" for m in moves)
    body += f"reduced in {len(moves)} moves\n" + core.to_text(reduced)
    return True, data, body


# claim -> its verifier; lemma3.1 reads a catalog name, the others a complex
_CLAIMS = {
    "lemma3.1": lemmas.coclique_case_check,
    "lemma4.1": lemmas.verify_complement_dichotomy,
    "lemma4.2": lemmas.verify_disjoint_facet_links,
    "lemma4.5": lemmas.verify_good_vertex_links,
    "eq1": lemmas.verify_facet_degree_dichotomy,
}


def _cmd_verify(args) -> tuple[bool, dict, str]:
    subject = args.complex if args.claim == "lemma3.1" else _resolve_complex(args.complex)
    report = _CLAIMS[args.claim](subject)
    data = report.as_dict()
    lines = [f"{report.name}: {'pass' if report.ok else 'FAIL'}"]
    lines.extend(_render(report.facts, "  "))
    lines.extend(f"  violation: {v}" for v in report.violations)
    return report.ok, data, "\n".join(lines) + "\n"


def _write_census(path: str, result: enumeration.CensusResult) -> None:
    with open(path, "w") as fh:
        for i, K in enumerate(result.complexes):
            fh.write(f"# complex {i}\n")
            fh.write(core.to_text(K))
            fh.write("\n")


def _cmd_enumerate(args) -> tuple[bool, dict, str]:
    if args.what == "spheres2":
        result = enumeration.enumerate_two_spheres(args.n)
    else:
        if args.full:
            result = enumeration.enumerate_all_9_manifolds(threads=args.threads)
        else:
            result = enumeration.enumerate_neighbourly_9_manifolds(threads=args.threads)
    if args.out:
        _write_census(args.out, result)
    data = {"counts": result.counts, "stats": result.stats, "out": args.out}
    return True, data, "\n".join(_render(data)) + "\n"


# -- parser and dispatch ---------------------------------------------------------


def _thread_count(text: str) -> int:
    """A `--threads` value: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _common_flags(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # On subcommands the defaults are suppressed so that values parsed at the
    # top level survive; flags therefore work on either side of the command.
    kwargs = {"default": argparse.SUPPRESS} if suppress else {}
    parser.add_argument(
        "--json", action="store_true", help="emit a JSON report", **kwargs
    )
    parser.add_argument(
        "--threads", type=_thread_count,
        help="worker cap for the censuses, at least 1 (default from WALKUP_THREADS)",
        # argparse converts a string default only when the flag is absent; bad values exit 1
        **(kwargs or {"default": os.environ.get("WALKUP_THREADS", "1")}),
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="walkup", description=__doc__, allow_abbrev=False)
    _common_flags(parser, suppress=False)
    common = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    _common_flags(common, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[common],
                       help="emit a named complex in the canonical text format")
    p.add_argument("name", help="catalog name, sphere:D, cycle:N, walkup:D or random9:SEED")
    p.add_argument("-o", "--output", help="write to a file instead of stdout")

    for name, help_text in [
        ("info", "f-vector, Euler characteristic and sizes"),
        ("check", "recognition report (purity, pseudomanifold, spheres, ...)"),
        ("homology", "integer homology via Smith normal form"),
        ("aut", "automorphism group order and generators"),
    ]:
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("complex", help="catalog name, file path or - for stdin")

    p = sub.add_parser("link", parents=[common], help="link of a face")
    p.add_argument("complex")
    p.add_argument("--face", required=True, help="comma separated vertex labels")

    p = sub.add_parser("iso", parents=[common], help="isomorphism test with witness")
    p.add_argument("complex_a")
    p.add_argument("complex_b")

    p = sub.add_parser("alpha", parents=[common], help="candidate 4-subset count of 2-spheres")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--complex", help="check one sphere instead of the whole census")

    p = sub.add_parser("moves", parents=[common], help="bistellar move detection and application")
    msub = p.add_subparsers(dest="action", required=True)
    m = msub.add_parser("list", parents=[common], help="all moves of one type")
    m.add_argument("--complex", required=True)
    m.add_argument("--type", type=int, required=True)
    m = msub.add_parser("apply", parents=[common], help="apply one move")
    m.add_argument("--complex", required=True)
    m.add_argument("--alpha", required=True)
    m.add_argument("--beta", required=True)
    m = msub.add_parser("explain", parents=[common], help="why a face is or is not removable")
    m.add_argument("--complex", required=True)
    m.add_argument("--alpha", required=True)

    p = sub.add_parser("reduce", parents=[common], help="raise minimum degrees until neighbourly")
    p.add_argument("--complex", required=True)

    p = sub.add_parser("verify", parents=[common], help="mechanical checks of the published claims")
    p.add_argument("claim", choices=list(_CLAIMS))
    p.add_argument("--complex", required=True,
                   help="target complex; for lemma3.1 a catalog labeling, S2..S9")

    p = sub.add_parser("enumerate", parents=[common],
                       help="censuses of spheres and 9-vertex manifolds")
    esub = p.add_subparsers(dest="what", required=True)
    e = esub.add_parser("spheres2", parents=[common], help="2-spheres on exactly n vertices")
    e.add_argument("--n", type=int, required=True)
    e.add_argument("--out", help="stream canonical facet lists to a file")
    e = esub.add_parser("neighbourly9", parents=[common], help="neighbourly 9-vertex 3-manifolds")
    e.add_argument("--full", action="store_true", help="full 9-vertex census, every vertex degree")
    e.add_argument("--out", help="stream canonical facet lists to a file")

    return parser


_HANDLERS = {
    "gen": _cmd_gen,
    "info": _cmd_info,
    "check": _cmd_check,
    "link": _cmd_link,
    "homology": _cmd_homology,
    "iso": _cmd_iso,
    "aut": _cmd_aut,
    "alpha": _cmd_alpha,
    "moves": _cmd_moves,
    "reduce": _cmd_reduce,
    "verify": _cmd_verify,
    "enumerate": _cmd_enumerate,
}


def run(argv: list[str]) -> CommandOutcome:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        report = {"command": None, "ok": False, "exit_code": 1, "error": str(exc)}
        return CommandOutcome(
            1, report, f"error: {exc}\n{parser.format_usage()}", "--json" in argv
        )
    except _HelpRequested as exc:
        report = {"command": None, "ok": True, "exit_code": 0, "data": {"help": str(exc)}}
        return CommandOutcome(0, report, str(exc), "--json" in argv)
    json_requested = bool(getattr(args, "json", False))
    try:
        ok, data, body = _HANDLERS[args.command](args)
    except PreconditionError as exc:
        report = {"command": args.command, "ok": False, "exit_code": 1, "error": str(exc)}
        return CommandOutcome(1, report, f"error: {exc}\n", json_requested)
    except bistellar.LemmaViolation as exc:
        report = {"command": args.command, "ok": False, "exit_code": 2, "error": str(exc)}
        return CommandOutcome(2, report, f"verified failure: {exc}\n", json_requested)
    exit_code = 0 if ok else 2
    report = {"command": args.command, "ok": ok, "exit_code": exit_code, "data": data}
    return CommandOutcome(exit_code, report, body, json_requested)


def main() -> None:
    outcome = run(sys.argv[1:])
    if outcome.json_requested:
        print(json.dumps(outcome.report, indent=2, sort_keys=True))
    else:
        sys.stdout.write(outcome.text)
    sys.exit(outcome.exit_code)

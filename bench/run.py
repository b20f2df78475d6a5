"""The walkup benchmark: three workloads, timed end to end and per module.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Workloads, each run in its own single-threaded process:

  neighbourly9  one enumerate_neighbourly_9_manifolds() call per round
  reduce200     random_three_sphere(s) then neighbourly_reduction, for 200
                seeds s drawn from --seed, per round
  classify      recognition_report, homology, automorphism_group,
                canonical_form and are_isomorphic on fixed relabellings of a
                pool of complexes built from --seed at set-up

A run repeats whole rounds while the next one is expected to end within
--seconds, at least one; the cyclic garbage collector runs before each
round, outside the timed region.  With
--trace 1 it runs one plain round, then one round with every public
function of the walkup modules wrapped in a span (see tracing.py), and
reports the per-layer metrics of the traced round; the two rounds' time
difference is trace.overhead_s.  Every output is checked outside the
timed region against oracles.py.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; a
readable summary goes to standard error, and the raw figures to
bench/out/.  See bench/README.md.
"""

import time

START = time.perf_counter()  # set-up is timed from here

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
if not (ROOT / "src" / "walkup").is_dir():  # measure this checkout's code, never an installed copy
    sys.exit(f"bench: no walkup sources in {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402

WORKLOADS = ("neighbourly9", "reduce200", "classify")
SETUP_SAMPLES = 3  # this process plus two fresh interpreters
REDUCE_SEEDS = 200
POOL_SPHERES = 12  # random 3-spheres in the classify pool, each with its reduction
# Relabellings per classify pool member, by kind.  Each percentile is put
# inside a block of operations of one kind, not at the edge between two
# blocks of different cost, where it would jump with the seed and with every
# stall of the machine: the reductions (about 55% of a round) hold the
# median, and k27, the costliest member (about 9%), holds the 95th
# percentile.
RELABELLINGS = {"random9": 15, "reduced9": 50, "named": 40, "k27": 100}
NAMED_RELABEL_SEED = "classify:named"  # fixed: the |Aut| fault shows on these

# Altshuler-Steinberg (Discrete Math. 16, 1976): the neighbourly 9-vertex
# combinatorial 3-manifolds are 50 spheres and one non-sphere.
NEIGHBOURLY9_COUNTS = {"total": 51, "sphere": 50, "non_sphere": 1}
THREE_SPHERE_HOMOLOGY = ((1, 0, 0, 1), ((), (), (), ()))

clock = time.perf_counter


class Checks:
    """Collects failed output checks; a run is correct when there are none."""

    def __init__(self) -> None:
        self.errors: list[str] = []

    def __call__(self, ok: bool, message: str) -> None:
        if not ok and len(self.errors) < 50:
            self.errors.append(message)


def _clear_caches() -> None:
    """Empty the program's memo caches, so every round starts as a fresh
    command-line invocation does."""
    for name, module in list(sys.modules.items()):
        if name != "walkup" and not name.startswith("walkup."):
            continue
        for obj in list(vars(module).values()):
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


# -- neighbourly9 -------------------------------------------------------------


def setup_neighbourly9(seed: int):
    from walkup import enumeration  # noqa: F401

    return None


def ops_neighbourly9(_state):
    from walkup import enumeration

    t0 = clock()
    result = enumeration.enumerate_neighbourly_9_manifolds()
    yield clock() - t0, _census_key(result)


def _census_key(result):
    return (
        [K.facets() for K in result.complexes],
        dict(result.counts),
        dict(result.stats),
    )


def check_neighbourly9(_state, outputs, checks: Checks) -> dict:
    facet_lists, counts, stats = outputs[0]
    checks(counts == NEIGHBOURLY9_COUNTS, f"counts {counts} != {NEIGHBOURLY9_COUNTS}")
    classes = [oracles.facet_set(facets) for facets in facet_lists]
    checks(len(classes) == 51, f"{len(classes)} classes, expected 51")
    for i, F in enumerate(classes):
        checks(len(oracles.vertices(F)) == 9, f"class {i} has {len(oracles.vertices(F))} vertices")
        checks(oracles.is_neighbourly(F), f"class {i} is not neighbourly")
        checks(oracles.is_three_manifold(F), f"class {i} fails the manifold check")
    ids = oracles.isomorphism_classes(classes)
    checks(len(set(ids)) == len(classes), "two census classes are isomorphic")
    non_spheres = [F for F in classes if oracles.homology(F) != THREE_SPHERE_HOMOLOGY]
    checks(len(non_spheres) == counts.get("non_sphere"), "sphere split disagrees with sympy homology")
    k39 = oracles.walkup_facets(3)
    checks(len(non_spheres) == 1 and oracles.isomorphic(non_spheres[0], k39),
           "the non-sphere is not isomorphic to K^3_9")
    return {"counts": counts, "stats": stats, "failed": 0}


# -- reduce200 ----------------------------------------------------------------


def setup_reduce200(seed: int):
    from walkup import bistellar  # noqa: F401

    rng = random.Random(f"reduce200:{seed}")
    return [rng.randrange(1 << 30) for _ in range(REDUCE_SEEDS)]


def ops_reduce200(seeds):
    from walkup import bistellar

    for s in seeds:
        t0 = clock()
        K = bistellar.random_three_sphere(s)
        reduced, moves = bistellar.neighbourly_reduction(K)
        elapsed = clock() - t0
        yield elapsed, (K.facets(), reduced.facets(), [(m.alpha, m.beta, m.move_type) for m in moves])


def _check_reduction(s, before, after, moves, checks: Checks) -> None:
    F, G = oracles.facet_set(before), oracles.facet_set(after)
    checks(len(oracles.vertices(F)) == 9 and oracles.is_three_manifold(F),
           f"seed {s}: input is not a 9-vertex combinatorial 3-manifold")
    edges = oracles.f_vector(F)[1]
    checks(len(moves) == 36 - edges and len(moves) <= 10,
           f"seed {s}: {len(moves)} moves for f1 = {edges}")
    current = F
    for alpha, beta, move_type in moves:
        degree = oracles.degrees(current)
        low = min(degree.values())
        checks(move_type == 1, f"seed {s}: a {move_type}-move")
        checks(any(degree[v] == low for v in beta), f"seed {s}: beta {sorted(beta)} misses a minimum-degree vertex")
        try:
            current = oracles.apply_one_move(current, alpha, beta)
        except oracles.OracleError as exc:
            checks(False, f"seed {s}: {exc}")
            return
        after_degree = oracles.degrees(current)
        checks(all(after_degree[v] >= d for v, d in degree.items()), f"seed {s}: a vertex degree fell")
    checks(current == G, f"seed {s}: replayed moves do not give the output")
    checks(oracles.is_three_manifold(G) and oracles.is_neighbourly(G),
           f"seed {s}: output is not a neighbourly combinatorial 3-manifold")


def check_reduce200(seeds, outputs, checks: Checks) -> dict:
    for s, (before, after, moves) in zip(seeds, outputs):
        _check_reduction(s, before, after, moves, checks)
    return {"moves": sum(len(m) for _, _, m in outputs), "failed": 0}


# -- classify -----------------------------------------------------------------


def _relabellings(facets, labels, rng, count):
    out = []
    for _ in range(count):
        image = list(labels)
        rng.shuffle(image)
        table = dict(zip(labels, image))
        out.append([[table[v] for v in sorted(f)] for f in facets])
    return out


def setup_classify(seed: int):
    """The pool: seeded random 3-spheres with their neighbourly reductions,
    then k39, c37, m10, the one-point suspension of k27 (a non-manifold
    control), k27 and RP^2, each with RELABELLINGS[kind] vertex relabellings.
    A round spreads each member's relabellings evenly over its length."""
    from walkup import bistellar, constructions, core, homology, isomorphism, recognition  # noqa: F401

    rng = random.Random(f"classify:{seed}")
    members = []
    for _ in range(POOL_SPHERES):
        s = rng.randrange(1 << 30)
        K = bistellar.random_three_sphere(s)
        reduced, _ = bistellar.neighbourly_reduction(K)
        members += [(f"random9:{s}", K, rng, "random9"), (f"reduced9:{s}", reduced, rng, "reduced9")]
    named_rng = random.Random(NAMED_RELABEL_SEED)
    k27 = constructions.get_complex("k27")
    for name, K in [
        ("k39", constructions.get_complex("k39")),
        ("c37", constructions.get_complex("c37")),
        ("m10", constructions.get_complex("m10")),
        ("k27+suspension", k27.one_point_suspension("1", "s")),
        ("k27", k27),
        ("rp2", core.from_facets(sorted(sorted(f) for f in oracles.RP2))),
    ]:
        members.append((name, K, named_rng, "k27" if name == "k27" else "named"))
    pool = []
    for name, K, member_rng, kind in members:
        facets = [sorted(f) for f in K.facets()]
        pool.append({
            "name": name,
            "facets": facets,
            "relabellings": _relabellings(facets, list(K.labels), member_rng, RELABELLINGS[kind]),
        })
    spread = sorted(((j + 0.5) / len(member["relabellings"]), m, j)
                    for m, member in enumerate(pool) for j in range(len(member["relabellings"])))
    ops = [(m, j) for _, m, j in spread]
    return {"pool": pool, "ops": ops}


def ops_classify(state):
    from walkup import core, homology, isomorphism, recognition

    pool = state["pool"]
    for m, j in state["ops"]:
        member = pool[m]
        t0 = clock()
        original = core.from_facets(member["facets"])
        K = core.from_facets(member["relabellings"][j])
        report = recognition.recognition_report(K)
        profile = homology.homology(K)
        group = isomorphism.automorphism_group(K)
        digest = isomorphism.canonical_form(K).bytes
        same, witness = isomorphism.are_isomorphic(K, original)
        elapsed = clock() - t0
        yield elapsed, (report, profile.betti, profile.torsion, group.order, digest, same, witness)


def check_classify(state, outputs, checks: Checks) -> dict:
    pool, ops = state["pool"], state["ops"]
    facet_sets = [oracles.facet_set(member["facets"]) for member in pool]
    expected = [
        {
            "recognition": oracles.recognition(F),
            "homology": oracles.homology(F),
            "aut": oracles.automorphism_count(F),
        }
        for F in facet_sets
    ]
    class_ids = oracles.isomorphism_classes(facet_sets)
    failed: dict[str, int] = {}
    digests: dict[int, set] = {}
    for (m, j), out in zip(ops, outputs):
        report, betti, torsion, order, digest, same, witness = out
        name, want = pool[m]["name"], expected[m]
        where = f"{name} relabelling {j}"
        got = {prop: getattr(report, prop) for prop in want["recognition"]}
        checks(got == want["recognition"], f"{where}: recognition {got} != {want['recognition']}")
        for prop, value in got.items():
            checks(value or report.witness_for(prop) is not None, f"{where}: no witness for {prop}")
        want_betti, want_torsion = want["homology"]
        checks(tuple(betti) == want_betti and tuple(oracles.prime_powers(t) for t in torsion) == want_torsion,
               f"{where}: homology {betti} {torsion} != {want['homology']}")
        relabelled = oracles.facet_set(pool[m]["relabellings"][j])
        checks(same and witness is not None and oracles.maps_facets_onto(relabelled, facet_sets[m], witness),
               f"{where}: are_isomorphic gave no valid witness")
        digests.setdefault(m, set()).add(digest)
        if order != want["aut"]:
            failed[name] = failed.get(name, 0) + 1
    for m, seen in digests.items():
        checks(len(seen) == 1, f"{pool[m]['name']}: canonical bytes differ between relabellings")
    members = sorted(digests)
    for a in members:
        for b in members:
            if a < b:
                same_bytes = digests[a] == digests[b]
                checks(same_bytes == (class_ids[a] == class_ids[b]),
                       f"{pool[a]['name']} vs {pool[b]['name']}: canonical bytes disagree with networkx")
    return {
        "pool": [member["name"] for member in pool],
        "aut_expected": {pool[m]["name"]: expected[m]["aut"] for m in range(len(pool))},
        "aut_mismatches": failed,
        "failed": sum(failed.values()),
    }


SETUP = {"neighbourly9": setup_neighbourly9, "reduce200": setup_reduce200, "classify": setup_classify}
OPS = {"neighbourly9": ops_neighbourly9, "reduce200": ops_reduce200, "classify": ops_classify}
CHECK = {"neighbourly9": check_neighbourly9, "reduce200": check_reduce200, "classify": check_classify}


# -- metrics ------------------------------------------------------------------


def _percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup_samples(args, own: float) -> list[float]:
    samples = [own]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def _layer_metrics(table: dict, census, overhead: float, removable: int) -> dict:
    """The per-layer metrics from the aggregated spans; `census` is the
    neighbourly9 output (facet lists, counts, stats), else None."""
    def rows(prefix):
        return [row for name, row in table.items() if name == prefix or name.startswith(prefix + ".")]

    def total(prefix, key):
        return sum(row[key] for row in rows(prefix))

    def one(name, key):
        return table.get(name, {}).get(key, 0)

    classes, stats = (len(census[0]), census[2]) if census else (0, {})
    completions = stats.get("completions", 0)
    classified = one("bistellar.classify_face", "calls")
    values = {
        "enumeration.self_s": (total("enumeration", "self_s"), "s"),
        "enumeration.nodes": (stats.get("nodes", 0), "count"),
        "enumeration.completions": (completions, "count"),
        "enumeration.isomorph_rejections": (stats.get("isomorph_rejections", 0), "count"),
        "enumeration.classes_per_completion": (classes / completions if completions else 0.0, "ratio"),
        "recognition.calls": (total("recognition", "entries"), "count"),
        "recognition.self_s": (total("recognition", "self_s"), "s"),
        "core.link.calls": (one("core.link", "calls"), "count"),
        "core.link.self_s": (one("core.link", "self_s"), "s"),
        "bistellar.classify_face.calls": (classified, "count"),
        "bistellar.classify_face.self_s": (one("bistellar.classify_face", "self_s"), "s"),
        "bistellar.proper_moves.self_s": (one("bistellar.proper_moves", "self_s"), "s"),
        "bistellar.moves_applied": (one("bistellar.apply_move", "calls"), "count"),
        "bistellar.removable_per_classified": (removable / classified if classified else 0.0, "ratio"),
        "bistellar.self_s": (total("bistellar", "self_s"), "s"),
        "isomorphism.canonical_form.calls": (one("isomorphism.canonical_form", "calls"), "count"),
        "isomorphism.canonical_form.self_s": (one("isomorphism.canonical_form", "self_s"), "s"),
        "isomorphism.automorphism_group.self_s": (one("isomorphism.automorphism_group", "self_s"), "s"),
        "isomorphism.self_s": (total("isomorphism", "self_s"), "s"),
        "homology.calls": (total("homology", "entries"), "count"),
        "homology.self_s": (total("homology", "self_s"), "s"),
        "trace.overhead_s": (overhead, "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


# -- entry point --------------------------------------------------------------


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{workload}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    for workload, result in results.items():
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for name, metric in result["metrics"].items():
            print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(results, sort_keys=True))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)

    state = SETUP[args.workload](args.seed)
    own_setup = clock() - START
    if args.setup_only:
        print(repr(own_setup))
        return 0

    tracer = None
    overhead = 0.0
    rounds: list[list[float]] = []  # per round, the seconds of each operation
    reference: list = []  # the first round's outputs; later rounds must repeat them
    repeats_differ = 0

    def run_round() -> float:
        nonlocal repeats_differ
        _clear_caches()
        gc.collect()
        times = []
        first = not reference
        for i, (elapsed, output) in enumerate(OPS[args.workload](state)):
            times.append(elapsed)
            if first:
                reference.append(output)
            elif output != reference[i]:
                repeats_differ += 1
        rounds.append(times)
        return sum(times)

    if args.trace:
        setup_samples = [own_setup]
        untraced = run_round()
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        overhead = run_round() - untraced
    else:
        setup_samples = _setup_samples(args, own_setup)
        begin = clock()
        round_walls = []  # each round's wall time, collection and checks included
        while True:
            started = clock()
            run_round()
            round_walls.append(clock() - started)
            if clock() - begin + statistics.median(round_walls) > args.seconds:
                break
    peak_rss = _peak_rss_mib()

    checks = Checks()
    checks(repeats_differ == 0, f"{repeats_differ} operations gave other outputs than in the first round")
    oracles.self_test()
    summary = CHECK[args.workload](state, reference, checks)
    attempted = len(reference) * len(rounds)
    failed = summary["failed"] * len(rounds)  # every round repeats the first round's outputs

    op_ms = [t * 1000.0 for times in rounds for t in times]
    if args.trace:
        census = reference[0] if args.workload == "neighbourly9" else None
        metrics = _layer_metrics(tracer.aggregate(), census, overhead, tracer.removable)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "wall_s": {"value": statistics.median(sum(times) for times in rounds), "unit": "s"},
            "op_p50_ms": {"value": statistics.median(op_ms), "unit": "ms"},
            "op_p95_ms": {"value": _percentile(op_ms, 0.95), "unit": "ms"},
            "peak_rss_mib": {"value": peak_rss, "unit": "MiB"},
        }

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(stem)
        if tracer.missing:
            print(f"trace: missing spans {tracer.missing}", file=sys.stderr)
    raw = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "rounds_op_ms": [[t * 1000.0 for t in times] for times in rounds],
        "setup_samples_s": setup_samples,
        "peak_rss_mib": peak_rss,
        "summary": summary,
        "errors": checks.errors,
        "metrics": metrics,
    }
    with open(f"{stem}.json", "w") as fh:
        json.dump(raw, fh, indent=1, sort_keys=True, default=repr)

    for error in checks.errors:
        print(f"check failed: {error}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed}: attempted={attempted} failed={failed} "
          f"correct={not checks.errors}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(json.dumps({"correct": not checks.errors, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

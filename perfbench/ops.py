"""The benchmark's workloads: which operations a run performs, in what order,
and which exact values each operation reports.

Everything here is a pure function of the workload name and the seed.  The
seed picks the order of the operations and, where a workload has a pool of
inputs, which members of the pool it draws; the counts of each kind of
operation are fixed so that runs with different seeds do the same amount of
work.  Values are serialised as exact ``p/q`` strings (integers drop the
denominator, as ``skewtop`` itself serialises them).
"""

from __future__ import annotations

import random
from fractions import Fraction

# Nominal cost of one pass of each workload on a 2-core x86 machine.  The
# number of passes in a run is round(seconds / nominal), so the op list
# depends only on --seconds and --seed, never on how fast the program is.
NOMINAL_PASS_S = {"engine-tables": 26.0, "replica-truth": 30.0,
                  "readme-cli": 9.5}

# engine-tables: one intersection-table computation per fresh interpreter.
# The partition-space ops call exactly what `skewtop intersect` calls.  The
# counts put the median op in the middle of the order-24 group and the tail
# op (ten ops above it) in the middle of the order-28 group, so that both
# are medians of like ops rather than the edge between two kinds.
ENGINE_MIX = (
    ({"kind": "monomial", "k": 5, "order": 10}, 14),
    ({"kind": "partition", "order": 24}, 7),
    ({"kind": "partition", "order": 28}, 7),
    ({"kind": "monomial", "k": 6, "order": 12}, 3),
    ({"kind": "partition", "order": 32}, 4),
)

# replica-truth: ground truth and closed forms in one interpreter per sweep.
# The ground-truth ops run in a fixed sequence, up in order and one-, two-,
# then three-point at each order, as the tests and `skewtop verify` build
# on each other: each reuses the trace moments earlier ones cached and pays
# for its own.  The seed orders the closed-form ops, draws their sources,
# and places them between the ground-truth ops.  The closed forms share no
# cache, so each costs the same wherever it lands; spread between the long
# ground-truth ops, they sample the whole run rather than one moment of it.
REPLICA_ORDERS = (8, 10, 12)
# u1_series sources come from two pools, one per code path: two distinct
# nonzero blocks at every order, and four blocks of equal magnitude (the
# merged-pole path) at order 12.  Members of a pool cost about the same, so
# the draw changes the inputs but not the work.  The 30 two-block ops hold
# the median; the five equal-magnitude ones (~14 ms) sit just below the
# eight slowest ops and so hold the tail.  Both are then values of like ops
# rather than the edge between two kinds.
U1_PER_ORDER = 10
U1_EQUAL_AT = {12: 5}
U1_SOURCE_POOL = ("1/2,3", "1,2", "2/3,-5/4", "-1/2,5/3", "5/2,-2/5",
                  "3/4,-7/3", "1/5,4", "-3,2/7", "7/2,1/3", "-4/3,1/4",
                  "2,-5", "3/5,-3/2", "-1/3,7/4", "6,1/6", "5/3,-2/9",
                  "-7/5,4/3")
U1_EQUAL_POOL = ("1,1,1,1", "2,-2,2,2", "-1/2,1/2,1/2,1/2", "3,3,3,-3",
                 "2/3,2/3,2/3,-2/3", "5,-5,5,5", "1/3,1/3,1/3,1/3",
                 "3/4,-3/4,3/4,3/4")

# readme-cli: the README's "Command line" block, each with the fewest flags
# that select the same computation.  "--format json" only changes how the
# report is printed; the gate reads values from it.
README_COMMANDS = (
    "duality --N 2 --k 2",
    "duality --N 5 --k 2 --mode mc --samples 1000000",
    "intersect --order 8",
    "intersect --order 16",
    "evolution --order 6",
    "evolution --mode finite --sources 1,2 --order 8",
    "evolution --mode theorem3 --n 2 --order 8",
    "airy --max-genus 5",
    "hc-check --samples 1000000",
    "verify",
)
# Matrices drawn by the Monte Carlo commands: both sides of the duality,
# and five (Y, Lambda) pairs for the group integral.
MC_DRAWS = {README_COMMANDS[1]: 2 * 10**6, README_COMMANDS[8]: 5 * 10**6}
# SKEWTOP_SEED values the CLI ops draw from: the first sixteen seeds.
CLI_SEED_POOL = tuple(range(16))

WORKLOADS = tuple(NOMINAL_PASS_S)


def op_key(op: dict) -> str:
    """The key under which an op's recorded values are stored."""
    kind = op["kind"]
    if kind == "cli":
        return "cli " + op["command"]
    if kind == "monomial":
        return f"monomial k={op['k']} order={op['order']}"
    if kind == "u1_series":
        return f"u1_series order={op['order']} sources={op['sources']}"
    if kind == "theorem3_series":
        return f"theorem3_series n={op['n']} order={op['order']}"
    return f"{kind} order={op['order']}"


def passes(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))


GROUND_TRUTH = ("replica_one_point", "replica_two_point", "replica_three_point")


def closed_form_ops(order: int, sources) -> list:
    ops = [{"kind": "u2_contour_series", "order": order}]
    ops += [{"kind": "theorem3_series", "n": n, "order": order}
            for n in (2, 3)]
    ops += [{"kind": "u1_series", "order": order, "sources": s}
            for s in sources]
    return ops


def replica_sweep(rng: random.Random) -> list:
    ground = [{"kind": name, "order": order}
              for order in REPLICA_ORDERS for name in GROUND_TRUTH]
    closed = [op for order in REPLICA_ORDERS
              for op in closed_form_ops(
                  order, rng.sample(U1_SOURCE_POOL, U1_PER_ORDER)
                  + rng.sample(U1_EQUAL_POOL, U1_EQUAL_AT.get(order, 0)))]
    rng.shuffle(closed)
    size = len(ground) + len(closed)
    slots = set(rng.sample(range(size), len(ground)))
    ground_it, closed_it = iter(ground), iter(closed)
    return [next(ground_it) if i in slots else next(closed_it)
            for i in range(size)]


def build(workload: str, seed: int, seconds: float) -> list:
    """The run's op list, as a list of batches.

    Each batch runs in one fresh interpreter, in order.  engine-tables has
    one op per batch (every `skewtop intersect` run starts with cold
    caches), replica-truth one sweep per batch, and readme-cli one command
    per batch, each its own `python -m skewtop.cli` process.
    """
    rng = random.Random(f"{workload}/{seed}")
    count = passes(workload, seconds)
    if workload == "engine-tables":
        ops = [dict(op) for op, n in ENGINE_MIX for _ in range(n * count)]
        rng.shuffle(ops)
        return [[op] for op in ops]
    if workload == "replica-truth":
        return [replica_sweep(rng) for _ in range(count)]
    if workload == "readme-cli":
        batches = []
        for _ in range(count):
            commands = list(README_COMMANDS)
            rng.shuffle(commands)
            batches += [[{"kind": "cli", "command": c,
                          "seed": rng.choice(CLI_SEED_POOL)}]
                        for c in commands]
        return batches
    raise ValueError(f"unknown workload {workload!r}")


def all_ops() -> list:
    """Every distinct op any seed can produce, for recording values."""
    ops = [dict(op) for op, _ in ENGINE_MIX]
    for order in REPLICA_ORDERS:
        ops += [{"kind": name, "order": order} for name in GROUND_TRUTH]
        ops += closed_form_ops(order, U1_SOURCE_POOL + (
            U1_EQUAL_POOL if order in U1_EQUAL_AT else ()))
    ops += [{"kind": "cli", "command": c, "seed": CLI_SEED_POOL[0]}
            for c in README_COMMANDS]
    return ops


# ---------------------------------------------------------------------------
# running a library op (inside a worker interpreter) and reading its values
# ---------------------------------------------------------------------------

def execute(op: dict):
    """Call the public skewtop functions the op names; returns their result.

    Functions are looked up as module attributes at call time, so wrappers
    installed by the tracer are the ones called.
    """
    from skewtop import engine, evolution, moments

    kind = op["kind"]
    order = op["order"]
    if kind == "partition":
        return engine.extract_intersections(
            engine.free_energy_power_sums(order, check_stability=order <= 24))
    if kind == "monomial":
        return engine.intersection_table(op["k"], order)
    if kind.startswith("replica_"):
        return getattr(moments, kind)(order)
    if kind == "theorem3_series":
        return evolution.theorem3_series(op["n"], order)
    if kind == "u2_contour_series":
        return evolution.u2_contour_series(order)
    if kind == "u1_series":
        sources = [Fraction(x) for x in op["sources"].split(",")]
        return evolution.u1_series(sources, order)
    raise ValueError(f"unknown op kind {kind!r}")


def table_values(table: dict) -> dict:
    """Values of an intersection table in its `to_dict` / JSON shape."""
    out = {}
    for entry in table["entries"]:
        taus = " ".join(f"tau({t['n']},{t['j']})^{t['d']}"
                        for t in sorted(entry["taus"],
                                        key=lambda t: (t["n"], t["j"])))
        key = f"g={entry['genus']} {taus}"
        out[key] = entry["value"]
        for name, value in entry.get("candidates", {}).items():
            out[f"{key} candidate {name}"] = value
    return out


def result_values(op: dict, result) -> dict:
    """The exact values a library op returned, as {name: "p/q"}."""
    kind = op["kind"]
    if kind in ("partition", "monomial"):
        return table_values(result.to_dict())
    if isinstance(result, list):
        return {f"s^{i}": str(Fraction(c)) for i, c in enumerate(result)}
    return {",".join(map(str, e)): str(Fraction(c))
            for e, c in sorted(result.coeffs.items()) if c}


def report_values(command: str, report: dict) -> dict:
    """The exact values a CLI report states; other report fields are not
    gated, so an added field does not count as a wrong answer."""
    results = report.get("results", {})
    name = command.split()[0]
    if name == "intersect":
        return table_values(results)
    if name == "evolution":
        series = results["series"]
        if isinstance(series, list):
            return {f"s^{i}": v for i, v in enumerate(series)}
        return dict(series)
    if name == "airy":
        return {f"g={row['genus']}": row["value"]
                for row in results["one_point"]}
    return {}


def report_verdict_ok(report: dict) -> bool:
    """A report passes when it says so and any MC verdict is `pass`."""
    return report.get("pass") is True and report.get("verdict", "pass") == "pass"

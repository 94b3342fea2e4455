#!/usr/bin/env python3
"""The chessval benchmark: one command, three workloads, every output checked.

    python3 benchmark/run.py --workload perft --seed 1 --seconds 20 --trace 0

Run it from the repository root (or any checkout of it).  It imports the
package from `src/` and reads `tests/data/corpus.pgn`; without them it
exits with status 2 and prints no result.

Standard output ends with two lines.  The first, `report: {...}`, holds
the run header, the noise diagnostics and each workload's own named
metrics.  The last is the result object: `correct`, `attempted`,
`failed` and `metrics` (the end-to-end metrics with `--trace 0`, the
per-layer metrics with `--trace 1`).  See benchmark/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import platform
import random
import re
import resource
import statistics
import sys
import tempfile
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

from spans import FUNCTIONS, Tracer
from speed import SpeedSampler

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_DIR = BENCH_DIR / "reference"
CORPUS_PATH = ROOT / "tests" / "data" / "corpus.pgn"
OUT_DIR = ROOT / ".bench_out"

MODULES = ("pieces", "board", "game", "pgn", "fen", "cli")
SETUP_REPEATS = 25
MAX_PLIES = 200

# Full-size and tiny (test-only) shapes of each workload's operations.
SIZES = {
    "full": {"perft_depth": None, "corpus_games": None, "corpus_strata": 7, "random_batch": 10},
    "tiny": {"perft_depth": 2, "corpus_games": 2, "corpus_strata": 2, "random_batch": 2},
}

END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "calibrated_throughput_per_s": "1/s"}

RATIO_FUNCTIONS = (
    "board.legal_moves",
    "board.possible_moves",
    "board.has_legal_move",
    "pieces.moves_with_colours",
)


def _per_layer_units() -> dict[str, str]:
    units = {}
    for fn in FUNCTIONS:
        units[f"{fn}.calls"] = "count"
        units[f"{fn}.total_s"] = "s"
        units[f"{fn}.self_s"] = "s"
    for fn in RATIO_FUNCTIONS:
        units[f"{fn}.calls_per_ply"] = "1/ply"
    units["board.legal_moves.calls_per_knode"] = "1/knode"
    units["python.gc_gen0_per_kply"] = "1/kply"
    units["python.gc_gen0_per_knode"] = "1/knode"
    units["trace.slowdown"] = "x"
    units["trace.wall_s"] = "s"
    units["trace.spans"] = "count"
    return units


PER_LAYER = _per_layer_units()


class Mismatch(Exception):
    """An output that differs from its reference."""


# --- set-up -----------------------------------------------------------------


def import_chessval() -> SimpleNamespace:
    """Import the package afresh (dropping any loaded copy) and return its
    modules by short name."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in [n for n in sys.modules if n == "chessval" or n.startswith("chessval.")]:
        del sys.modules[name]
    importlib.import_module("chessval")
    return SimpleNamespace(
        **{name: importlib.import_module(f"chessval.{name}") for name in MODULES}
    )


@dataclass(frozen=True)
class PerftCase:
    name: str
    fen: str
    depth: int
    nodes: int


def load_perft(mods, size) -> list[PerftCase]:
    table = json.loads((REFERENCE_DIR / "perft.json").read_text())
    cases = []
    for position in table["positions"]:
        depth = size["perft_depth"] or position["bench_depth"]
        mods.fen.parse_fen(position["fen"])
        cases.append(
            PerftCase(position["name"], position["fen"], depth, position["nodes"][depth - 1])
        )
    return cases


def split_games(text: str) -> list[str]:
    """Split a PGN file written as games joined by blank lines back into
    the per-game texts, so that "\\n".join(games) == text."""
    parts = text.split("\n\n[")
    last = len(parts) - 1
    games = [
        ("[" if i else "") + part + ("\n" if i < last else "")
        for i, part in enumerate(parts)
    ]
    if "\n".join(games) != text:
        raise ValueError("corpus is not a blank-line-joined sequence of games")
    return games


_REPORT_LINE = re.compile(r"corpus\.pgn game (\d+): (.*)")
_PLIES = re.compile(r", (\d+) plies, ")


@dataclass(frozen=True)
class CorpusInputs:
    games: list[str]
    plies: list[int]
    reports: list[list[str]]  # per game: its validate lines after the label
    strata: list[list[int]]


def load_corpus(mods, size) -> CorpusInputs:
    games = split_games(CORPUS_PATH.read_text())
    reports: list[list[str]] = [[] for _ in games]
    for line in (REFERENCE_DIR / "validate_corpus.txt").read_text().splitlines():
        match = _REPORT_LINE.fullmatch(line)
        if match is None:
            raise ValueError(f"unreadable reference line {line!r}")
        reports[int(match.group(1)) - 1].append(match.group(2))
    plies = [int(_PLIES.search(lines[0]).group(1)) for lines in reports]
    # Games sorted by length and cut into equal strata; each round takes
    # one game per stratum, so every round has the same length mix
    # whatever the seed.  The tiny size keeps only the shortest games.
    order = sorted(range(len(games)), key=lambda i: (plies[i], i))[: size["corpus_games"]]
    count = size["corpus_strata"]
    width = len(order) // count
    strata = [order[k * width:(k + 1) * width] for k in range(count)]
    return CorpusInputs(games, plies, reports, strata)


def load_random_play(mods, size) -> list[dict]:
    return json.loads((REFERENCE_DIR / "random_play.json").read_text())["games"]


LOADERS = {"perft": load_perft, "corpus": load_corpus, "random-play": load_random_play}


def _set_up_once(workload: str, size: dict):
    mods = import_chessval()
    return mods, LOADERS[workload](mods, size)


def set_up(workload: str, size: dict, sampler: SpeedSampler):
    """Import, load and check the inputs SETUP_REPEATS times; return the
    Timing of every set-up and the modules and inputs of the last one."""
    timings = []
    for _ in range(SETUP_REPEATS):
        (mods, inputs), timing = measure(sampler, _set_up_once, workload, size)
        timings.append(timing)
    return timings, mods, inputs


# --- measurement ------------------------------------------------------------


@dataclass(frozen=True)
class Timing:
    wall_s: float  # wall time, less the speed sampler's own time
    ref_s: float  # the same span at the host's reference speed


def measure(sampler: SpeedSampler, fn, *args, **kwargs):
    """Call fn and return (its result, the Timing of the call)."""
    busy = sampler.busy_s
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    end = time.perf_counter()
    wall = end - start - (sampler.busy_s - busy)
    return result, Timing(wall, sampler.reference_seconds(start, end, busy))


class Session:
    """Runs operations, counting attempts and failures.  In a traced run
    each operation runs twice on the same input: untraced, then traced."""

    def __init__(self, sampler: SpeedSampler, tracer: Tracer | None):
        self.sampler = sampler
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.plain_ref_s = 0.0
        self.traced_ref_s = 0.0
        self.plain_units = 0
        self.traced_units = 0
        self.gc_gen0 = 0
        self.peak_rss_mb = 0.0

    def _attempt(self, label, op):
        self.attempted += 1
        try:
            return op()
        except Exception as exc:  # a failed operation is counted, never fatal
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return None

    def op(self, label, op):
        """Run op, which returns (measurement, units of work done), and
        return the untraced measurement, or None if the operation failed.
        In a traced run op then runs again under the tracer."""
        gen0 = gc.get_stats()[0]["collections"]
        plain, timing = measure(self.sampler, self._attempt, label, op)
        self.gc_gen0 += gc.get_stats()[0]["collections"] - gen0
        self.plain_ref_s += timing.ref_s
        if plain is not None:
            self.plain_units += plain[1]
        if self.tracer is not None:
            with self.tracer.traced(label):
                traced, timing = measure(self.sampler, self._attempt, label + " (traced)", op)
            self.traced_ref_s += timing.ref_s
            if traced is not None:
                self.traced_units += traced[1]
        # The process's high-water mark once the operations are done,
        # before the metrics are computed from the samples.
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return None if plain is None else plain[0]


def _rates(units, timings) -> tuple[float, float]:
    """Units per reference second and per wall second."""
    return units / sum(t.ref_s for t in timings), units / sum(t.wall_s for t in timings)


def _named(name, pairs, unit="1/s"):
    """A named metric as the median of (calibrated, wall) pairs: the
    calibrated value under `name`, the wall-clock one under `name.wall`."""
    return {
        name: (_median([ref for ref, _ in pairs]), unit),
        f"{name}.wall": (_median([wall for _, wall in pairs]), unit),
    }


def run_perft(mods, cases, seed, seconds, session, size):
    rng = random.Random(seed)
    rates = {case.name: [] for case in cases}
    covered = set()
    start = time.perf_counter()
    while True:
        for case in rng.sample(cases, len(cases)):

            def op(case=case):
                game = mods.fen.parse_fen(case.fen)
                nodes, timing = measure(
                    session.sampler, mods.board.perft, game.board, game.turn, case.depth, jobs=1
                )
                if nodes != case.nodes:
                    raise Mismatch(f"perft({case.depth}) = {nodes}, published {case.nodes}")
                return timing, nodes

            timing = session.op(f"perft:{case.name}:d{case.depth}", op)
            covered.add(case.name)
            if timing is not None:
                rates[case.name].append(_rates(case.nodes, [timing]))
            if len(covered) == len(cases) and time.perf_counter() - start >= seconds:
                return _perft_metrics(cases, rates)


def _perft_metrics(cases, rates):
    # Nodes per second of the fixed position mix: each position weighs its
    # node count, at its median rate over the run.
    measured = [case for case in cases if rates[case.name]]
    overall = []
    for which in (0, 1):
        busy = sum(
            case.nodes / statistics.median(r[which] for r in rates[case.name])
            for case in measured
        )
        overall.append(sum(case.nodes for case in measured) / busy if busy else 0.0)
    named = _named("perft_nodes_per_s", [tuple(overall)])
    for case in measured:
        named.update(_named(f"perft_nodes_per_s.{case.name}", rates[case.name]))
    named["perft_samples"] = (sum(len(r) for r in rates.values()), "count")
    return overall[0], named


def run_corpus(mods, inputs: CorpusInputs, seed, seconds, session, size):
    rng = random.Random(seed)
    orders = [rng.sample(stratum, len(stratum)) for stratum in inputs.strata]
    validate_rates, roundtrip_rates, pair_rates = [], [], []
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        path = Path(workdir) / "corpus-round.pgn"
        out_path = path.with_suffix(".out.pgn")
        start = time.perf_counter()
        round_index = 0
        while True:
            picks = [order[round_index % len(order)] for order in orders]
            text = "\n".join(inputs.games[i] for i in picks)
            plies = sum(inputs.plies[i] for i in picks)
            path.write_text(text)
            expected_validate = "".join(
                f"{path} game {k}: {line}\n"
                for k, i in enumerate(picks, start=1)
                for line in inputs.reports[i]
            )
            expected_roundtrip = f"{path}: round trip ok ({len(picks)} games) -> {out_path}\n"

            def validate():
                out, err = io.StringIO(), io.StringIO()
                (code, _), timing = measure(
                    session.sampler, mods.cli.cmd_validate, [str(path)], out=out, err=err
                )
                if code != 0:
                    raise Mismatch(f"exit code {code}: {err.getvalue().strip()}")
                if out.getvalue() != expected_validate:
                    raise Mismatch("validate stdout differs from the reference")
                return timing, plies

            def roundtrip():
                out_path.unlink(missing_ok=True)
                out, err = io.StringIO(), io.StringIO()
                code, timing = measure(
                    session.sampler, mods.cli.cmd_roundtrip, str(path), out=out, err=err
                )
                if code != 0:
                    raise Mismatch(f"exit code {code}: {err.getvalue().strip()}")
                if out.getvalue() != expected_roundtrip:
                    raise Mismatch(f"unexpected roundtrip stdout {out.getvalue()!r}")
                if out_path.read_text() != text:
                    raise Mismatch("serialized games are not byte-identical to the input")
                return timing, plies

            label = f"corpus:round{round_index}:games" + ",".join(str(i + 1) for i in picks)
            validated = session.op(label + ":validate", validate)
            roundtripped = session.op(label + ":roundtrip", roundtrip)
            if validated is not None:
                validate_rates.append(_rates(plies, [validated]))
            if roundtripped is not None:
                roundtrip_rates.append(_rates(plies, [roundtripped]))
            if validated is not None and roundtripped is not None:
                pair_rates.append(_rates(plies, [validated, roundtripped]))
            round_index += 1
            if time.perf_counter() - start >= seconds:
                break
    named = {
        **_named("validate_plies_per_s", validate_rates),
        **_named("roundtrip_plies_per_s", roundtrip_rates),
        **_named("corpus_plies_per_s", pair_rates),
        "corpus_rounds": (round_index, "count"),
    }
    return named["corpus_plies_per_s"][0], named


def canonical_order(moves):
    """Frozenset iteration order is hash-dependent; sort for seeded play."""
    return sorted(
        moves,
        key=lambda m: (
            m.from_.square.x,
            m.from_.square.y,
            m.to_.square.x,
            m.to_.square.y,
            m.to_.type.value,
        ),
    )


def play_random_game(mods, game_seed: int, starts: list, walls: list, sampler=None):
    """Uniform random legal play from the initial position until the game
    ends or reaches MAX_PLIES; returns (winner, final game).

    For each ply's choose-and-play step, appends its start time to starts
    and its wall seconds, less the sampler's time inside it, to walls.
    Both hold bare floats, so recording allocates nothing the garbage
    collector tracks."""
    rng = random.Random(game_seed)
    legal_moves, game_move = mods.board.legal_moves, mods.game.game_move
    game = mods.game.new_game()
    winner = None
    clock = time.perf_counter
    while winner is None and len(walls) < MAX_PLIES:
        busy = sampler.busy_s if sampler else 0.0
        began = clock()
        options = canonical_order(legal_moves(game.board, game.turn))
        game, winner = game_move(game, rng.choice(options))
        ended = clock()
        starts.append(began)
        walls.append(ended - began - ((sampler.busy_s - busy) if sampler else 0.0))
    return winner, game


def describe_game(mods, plies, winner, game) -> dict:
    """The reference record of one random game."""
    return {
        "plies": plies,
        "winner": None if winner is None else winner.value,
        "final": mods.board.board_to_ascii(game.board.board_state),
    }


def run_random_play(mods, games, seed, seconds, session, size):
    order = random.Random(seed).sample(range(len(games)), len(games))
    sampler = session.sampler
    # Compact arrays, so that a faster engine, which plays more plies in a
    # run, adds little to peak_rss_mb.
    step_ref_s = array("d")
    step_wall_s = array("d")
    batch_rates = []
    start = time.perf_counter()
    played = 0
    while True:
        batch_plies, batch_ref_s, batch_wall_s = 0, 0.0, 0.0
        for _ in range(size["random_batch"]):
            reference = games[order[played % len(order)]]
            played += 1

            def op(reference=reference):
                starts, walls = [], []
                winner, game = play_random_game(mods, reference["seed"], starts, walls, sampler)
                record = describe_game(mods, len(walls), winner, game)
                expected = {key: reference[key] for key in record}
                if record != expected:
                    raise Mismatch(f"game {record} differs from reference {expected}")
                return (starts, walls), len(walls)

            steps = session.op(f"random:seed{reference['seed']}", op)
            # Bare floats only: objects kept here would advance the garbage
            # collector's count and move its collections into the next game.
            for began, wall in zip(*steps) if steps else ():
                ref = wall * sampler.speed_between(began, began + wall)
                step_wall_s.append(wall)
                step_ref_s.append(ref)
                batch_plies += 1
                batch_ref_s += ref
                batch_wall_s += wall
        if batch_plies:
            batch_rates.append((batch_plies / batch_ref_s, batch_plies / batch_wall_s))
        if time.perf_counter() - start >= seconds:
            break
    named = {**_named("random_plies_per_s", batch_rates), "random_games": (played, "count")}
    for suffix, values in (("", step_ref_s), (".wall", step_wall_s)):
        if len(values) >= 2:
            p50, p99 = _percentiles(values, (50, 99))
            named[f"ply_us_p50{suffix}"] = (p50 * 1e6, "us")
            named[f"ply_us_p99{suffix}"] = (p99 * 1e6, "us")
    named["ply_samples"] = (len(step_ref_s), "count")
    return named["random_plies_per_s"][0], named


WORKLOADS = {"perft": run_perft, "corpus": run_corpus, "random-play": run_random_play}
UNIT_OF_WORK = {"perft": "node", "corpus": "ply", "random-play": "ply"}


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _percentiles(values, wanted):
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return [cuts[p - 1] for p in wanted]


# --- reporting --------------------------------------------------------------


def git_sha() -> str:
    """HEAD's commit read from .git without running git; 'unknown' in a
    checkout that is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def layer_metrics(tracer: Tracer, session: Session, unit: str) -> dict:
    metrics = {}
    for index, fn in enumerate(FUNCTIONS):
        metrics[f"{fn}.calls"] = tracer.calls[index]
        metrics[f"{fn}.total_s"] = tracer.total_s[index]
        metrics[f"{fn}.self_s"] = tracer.self_s[index]
    # A ratio whose base the workload does not have (plies in perft,
    # nodes elsewhere) reads 0.
    plies = session.traced_units if unit == "ply" else 0
    knodes = session.traced_units / 1000 if unit == "node" else 0
    for fn in RATIO_FUNCTIONS:
        metrics[f"{fn}.calls_per_ply"] = metrics[f"{fn}.calls"] / plies if plies else 0.0
    legal_calls = metrics["board.legal_moves.calls"]
    metrics["board.legal_moves.calls_per_knode"] = legal_calls / knodes if knodes else 0.0
    plain_k = session.plain_units / 1000
    metrics["python.gc_gen0_per_kply"] = session.gc_gen0 / plain_k if unit == "ply" and plain_k else 0.0
    metrics["python.gc_gen0_per_knode"] = session.gc_gen0 / plain_k if unit == "node" and plain_k else 0.0
    metrics["trace.slowdown"] = session.traced_ref_s / session.plain_ref_s if session.plain_ref_s else 0.0
    metrics["trace.wall_s"] = tracer.wall_s
    metrics["trace.spans"] = tracer.span_count
    return {name: {"value": metrics[name], "unit": unit_} for name, unit_ in PER_LAYER.items()}


def run(workload: str, seed: int, seconds: float, trace: bool, size_name: str = "full"):
    """Set up and measure one workload; return (report, result)."""
    size = SIZES[size_name]
    load_before = os.getloadavg()
    with SpeedSampler() as sampler:
        setup_timings, mods, inputs = set_up(workload, size, sampler)
        tracer = Tracer() if trace else None
        session = Session(sampler, tracer)
        wall_start, cpu_start = time.perf_counter(), time.process_time()
        throughput, named = WORKLOADS[workload](mods, inputs, seed, seconds, session, size)
        wall_s = time.perf_counter() - wall_start
        cpu_s = time.process_time() - cpu_start
    load_after = os.getloadavg()

    failed = len(session.failures)
    named["error_rate"] = (failed / session.attempted if session.attempted else 1.0, "ratio")
    end_to_end = {
        "setup_s": statistics.median(t.ref_s for t in setup_timings),
        "peak_rss_mb": session.peak_rss_mb,
        "calibrated_throughput_per_s": throughput,
    }
    named["setup_s.wall"] = (statistics.median(t.wall_s for t in setup_timings), "s")
    if trace:
        metrics = layer_metrics(tracer, session, UNIT_OF_WORK[workload])
        stem = OUT_DIR / f"spans-{workload}-seed{seed}"
        tracer.write(stem)
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit} for name, unit in END_TO_END.items()}
    speeds = sorted(sampler.speeds)
    report = {
        "header": {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "size": size_name,
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "git_sha": git_sha(),
            "loadavg_before": load_before,
            "loadavg_after": load_after,
        },
        "diagnostics": {
            "wall_s": wall_s,
            "cpu_s": cpu_s,
            "cpu_share": cpu_s / wall_s if wall_s else 0.0,
            "host_speed_p10_p50_p90": [speeds[int(len(speeds) * q)] for q in (0.1, 0.5, 0.9)],
            "host_speed_samples": len(speeds),
            "sampler_share": sampler.busy_s / wall_s if wall_s else 0.0,
            "setup_samples_s": [t.ref_s for t in setup_timings],
            "gc_gen0": session.gc_gen0,
            "failures": session.failures[:20],
        },
        "end_to_end": {name: {"value": end_to_end[name], "unit": unit} for name, unit in END_TO_END.items()},
        "named": {name: {"value": value, "unit": unit} for name, (value, unit) in named.items()},
    }
    if trace:
        report["diagnostics"]["spans_file"] = str(stem.relative_to(ROOT)) + ".bin"
        report["diagnostics"]["spans_dropped"] = tracer.dropped
    result = {
        "correct": failed == 0,
        "attempted": session.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return report, result


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Run one chessval benchmark workload.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="'tiny' shrinks every operation; for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "chessval").is_dir() or not CORPUS_PATH.is_file():
        print(f"benchmark: no chessval sources or corpus under {ROOT}", file=sys.stderr)
        return 2
    try:
        report, result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    except (ImportError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark: set-up failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print("report: " + json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

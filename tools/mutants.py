#!/usr/bin/env python3
"""Check that the fast tests kill every catalogued mutant of the engine.

Each mutant is a one-line text substitution in one module of
src/chessval.  For each, the tool copies src/ to a temporary directory,
applies the substitution there and runs the tier-1 suite without
acceptance criteria 1 and 2 against the copy, stopping at the first
failing test.  The unmutated copy is run first and must pass.  The tool
exits 1 if a mutant survives or if a substitution no longer matches its
module exactly once (a stale entry, left behind when the code moved),
and 0 when every mutant is killed.  Standard library only; the suite
needs pytest and hypothesis.

    python tools/mutants.py                  # every mutant
    python tools/mutants.py pins-ignored ... # the named ones
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SLOW = (
    "tests/test_acceptance.py::test_criterion_1_perft_matches_published_tables",
    "tests/test_acceptance.py::test_criterion_2_invariants_over_ten_thousand_random_games",
)

# (name, module, the line's text, its mutated text)
MUTANTS = [
    # the legality filter
    ("evasions-ignored", "board.py",
     "if evasions is not None:", "if False:"),
    ("pins-ignored", "board.py",
     "allowed = pins.get(s)", "allowed = None"),
    ("king-steps-unprobed", "board.py",
     "targets = [t for t in targets if not _square_attacked(probed, t, enemy)]",
     "targets = list(targets)"),
    ("king-not-lifted", "board.py",
     "occ[:s] + [None] + occ[s + 1:]", "occ[:s] + [occ[s]] + occ[s + 1:]"),
    ("king-lifted-only-out-of-check", "board.py",
     "if checked else occ", "if not checked else occ"),
    # the side's one walk
    ("side-walk-skips-a-piece", "board.py",
     "for piece in pieces:", "for piece in pieces[1:]:"),
    # the attack probe
    ("probe-misses-knights", "board.py",
     "if p is not None and p.type is KNIGHT and p.colour is by:",
     "if p is not None and p.type is BISHOP and p.colour is by:"),
    ("probe-reads-near-attackers-along-the-whole-ray", "board.py",
     "if p.colour is by and p.type in sliders:",
     "if p.colour is by and p.type in near:"),
    ("probe-misses-diagonals", "board.py",
     "for first, rest, near, sliders in _PROBE_RAYS[by][s]:",
     "for first, rest, near, sliders in _PROBE_RAYS[by][s][:4]:"),
    # the probe rays both the probe and the pin scan read
    ("pawn-attack-direction-flipped", "board.py",
     "back = -1 if by is Colour.WHITE else 1",
     "back = 1 if by is Colour.WHITE else -1"),
    ("king-dropped-from-a-ray's-first-square", "board.py",
     "sliders + (KING,) + ((PAWN,) if dx and dy == back else ()), sliders)",
     "sliders + ((PAWN,) if dx and dy == back else ()), sliders)"),
    ("probe-ray-rest-starts-one-square-late", "board.py",
     "bytes(range(s + 2 * step, s + step * (edge[s] + 1), step))",
     "bytes(range(s + 3 * step, s + step * (edge[s] + 1), step))"),
    # the geometry tables
    ("rays-capped-at-6-steps", "pieces.py",
     "min(7 - x if dx > 0 else x if dx else 7,",
     "min(6, 7 - x if dx > 0 else x if dx else 7,"),
    ("knight-offset-dropped", "pieces.py",
     "(1, 2), (-1, 2), (1, -2), (-1, -2), (2, 1), (-2, 1), (2, -1), (-2, -1),",
     "(1, 2), (-1, 2), (1, -2), (-1, -2), (2, 1), (-2, 1), (2, -1),"),
    ("pawn-capture-rays-of-the-wrong-colour", "pieces.py",
     "for colour, forward in ((Colour.WHITE, 1), (Colour.BLACK, -1))",
     "for colour, forward in ((Colour.WHITE, -1), (Colour.BLACK, 1))"),
    ("double-push-from-the-wrong-rank", "pieces.py",
     "start = 1 if colour is Colour.WHITE else 6",
     "start = 2 if colour is Colour.WHITE else 6"),
    ("promotes-flag-on-the-wrong-rank", "pieces.py",
     "entries.append((bytes(pushes), captures, edge[s] == 1))",
     "entries.append((bytes(pushes), captures, edge[s] == 2))"),
    # the generator's inline walk
    ("slider-ray-not-stopping-after-a-capture", "board.py",
     "                if holder is not None:",
     "                if holder is not None and holder.colour is colour:"),
    ("pawn-captures-onto-an-empty-square", "board.py",
     "if occ[t] is not None and occ[t].colour is not colour:",
     "if occ[t] is None or occ[t].colour is not colour:"),
    ("en-passant-neighbours-off-the-board", "board.py",
     "square_at(x, landing.y): skipped for x in (landing.x - 1, landing.x + 1) if 1 <= x <= 8",
     "square_at(x, landing.y): skipped for x in (landing.x - 1, landing.x + 1)"),
    # the square map a child inherits, and the move-kind dispatch behind it
    ("rook-not-patched-on-castling", "board.py",
     "return (corner, None), (crossed, piece_row(ROOK, mov.from_.colour)[crossed])",
     "return (corner, occ[corner]), (crossed, piece_row(ROOK, mov.from_.colour)[crossed])"),
    ("en-passant-victim-not-patched", "board.py",
     "return ((square_at(target.x, origin.y), None),)",
     "return ((square_at(target.x, origin.y), occ[square_at(target.x, origin.y)]),)"),
    ("king-not-updated-on-a-king-move", "board.py",
     "if mov.to_.type is KING:", "if mov.to_.type is None:"),
    ("origin-not-cleared", "board.py",
     "occ[f], occ[t] = None, mov.to_", "occ[t] = mov.to_"),
    ("rights-not-cleared-by-the-to-square", "board.py",
     "return occ, kings, rights & _RIGHTS_KEPT[f] & _RIGHTS_KEPT[t]",
     "return occ, kings, rights & _RIGHTS_KEPT[f]"),
    ("rights-not-cleared-by-the-from-square", "board.py",
     "return occ, kings, rights & _RIGHTS_KEPT[f] & _RIGHTS_KEPT[t]",
     "return occ, kings, rights & _RIGHTS_KEPT[t]"),
    ("rights-not-read-from-the-history", "board.py",
     "for m in board.history:", "for m in board.history[:0]:"),
    ("castling-without-the-rights-test", "board.py",
     "if rights & bit", "if True"),
    ("castling-wing-colour-ignored", "board.py",
     "for (home, _), (side, *_) in _CASTLINGS.items()",
     "for (home, _) in _CASTLINGS for side in Colour"),
    ("rights-mask-ignores-corners", "board.py",
     "if s in (home, corner))", "if s == home)"),
    ("fen-revokes-the-wrong-corner", "fen.py",
     "for s in (corner, off))", "for s in (corner ^ 7, off ^ 7))"),
    ("en-passant-probe-reads-the-parent-occupancy", "board.py",
     "if king is None or not _square_attacked(after, square_index(king.square), enemy):",
     "if king is None or not _square_attacked(occ, square_index(king.square), enemy):"),
    # the one applier's piece set, and the named rules' pre-conditions
    ("castled-rook-never-joins-the-piece-set", "board.py",
     "arrived.add(holder)", "arrived.add(mov.to_)"),
    ("en-passant-victim-stays-in-the-piece-set", "board.py",
     "gone.add(occ[s])", "gone.add(occ[s] if len(changes) == 2 else None)"),
    ("move-other-pre-condition-dropped", "board.py",
     "if _changes(_context(board, mov.from_.colour).occ, mov):", "if False:"),
    ("move-castling-pre-condition-dropped", "board.py",
     "if rook is None or rook.type is not ROOK or rook.colour is not mov.from_.colour:",
     "if False:"),
    ("move-castling-rook-colour-unchecked", "board.py",
     "if rook is None or rook.type is not ROOK or rook.colour is not mov.from_.colour:",
     "if rook is None or rook.type is not ROOK:"),
    ("move-en-passant-pre-condition-dropped", "board.py",
     "if len(changes) != 1 or occ[changes[0][0]] is None:", "if False:"),
    # perft's square-map recursion, its counted last ply and the root maps _divide hands on
    ("promotion-counted-once", "board.py",
     "total += 4 * len(targets) if kind is PAWN and promotes else len(targets)",
     "total += len(targets)"),
    ("en-passant-not-counted", "board.py",
     "elif kind is PAWN and s in passant:", "elif kind is PAWN and s in passant and not count:"),
    ("en-passant-window-from-a-stale-ply", "board.py",
     "total += _perft(_child_map(square_map, m, _changes(occ, m)), m, enemy, depth - 1)",
     "total += _perft(_child_map(square_map, m, _changes(occ, m)), last, enemy, depth - 1)"),
    ("divide-hands-its-workers-the-parent's-last-move", "board.py",
     "tasks = [(_child_map(square_map, m, _changes(occ, m)), m, enemy, depth - 1) for m in moves]",
     "tasks = [(_child_map(square_map, m, _changes(occ, m)),"
     " board.history[0] if board.history else None, enemy, depth - 1) for m in moves]"),
    # SAN resolution
    ("plain-king-token-matches-a-castling", "pgn.py",
     "and iss_castling(game.board, m) is (token.kind is not SanKind.NORMAL)",
     "and (token.kind is SanKind.NORMAL or iss_castling(game.board, m))"),
    # the interned moves
    ("cached-hash-pickled", "board.py",
     "def __reduce__(self):", "def _reduce(self):"),
]


def run_suite(src: Path) -> bool:
    """Whether the fast tier-1 tests pass against the package in src."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    command += [arg for test in SLOW for arg in ("--deselect", test)]
    # run from the scratch directory, so that hypothesis keeps its examples there
    run = subprocess.run(
        command + [str(ROOT / "tests")], cwd=src.parent, env=env, capture_output=True
    )
    return run.returncode == 0


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    unknown = set(names) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}")
        return 2
    failed = 0
    with tempfile.TemporaryDirectory() as scratch:
        src = Path(scratch) / "src"
        shutil.copytree(ROOT / "src", src)
        if not run_suite(src):
            print("the fast tests fail on the unmutated source")
            return 2
        for name, module, line, mutated in chosen:
            path = src / "chessval" / module
            original = path.read_text()
            if original.count(line) != 1:
                print(f"STALE     {name}: {module} holds the line {original.count(line)} times")
                failed += 1
                continue
            path.write_text(original.replace(line, mutated))
            try:
                survived = run_suite(src)
            finally:
                path.write_text(original)
            print(f"{'SURVIVED' if survived else 'killed  '}  {name}", flush=True)
            failed += survived
    print(f"{len(chosen) - failed} of {len(chosen)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

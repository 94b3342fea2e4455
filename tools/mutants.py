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
     "allowed = evasions & ~us", "allowed = FULL & ~us"),
    ("pins-ignored", "board.py",
     "            targets &= pins[s]", "            targets &= FULL"),
    ("pinned-pawn-off-its-line", "board.py",
     "groups += [(1 << s, allowed & line)", "groups += [(1 << s, allowed)"),
    ("king-steps-unprobed", "board.py",
     "if _square_attacked(attackers, probed, t):", "if False:"),
    ("king-not-lifted", "board.py",
     "probed = occupied ^ kings if checked else occupied",
     "probed = occupied if checked else occupied"),
    ("king-lifted-only-out-of-check", "board.py",
     "probed = occupied ^ kings if checked else occupied",
     "probed = occupied ^ kings if not checked else occupied"),
    # the side's one walk
    ("side-walk-skips-the-knights-and-sliders", "board.py",
     "pieces = us & wanted ^ pawns ^ kings", "pieces = 0"),
    # the king's context: checks, pins and evasions as masks
    ("pin-with-two-shields", "board.py",
     "elif not shields & (shields - 1) and shields & us:", "elif shields & us:"),
    ("double-check-not-recognised", "board.py",
     "0 if checkers & (checkers - 1) else evasions", "evasions"),
    # the attack probe and the enemy's pieces it reads
    ("probe-misses-knights", "board.py",
     "if steps[0] & knights or steps[1] & king or steps[pawn_field] & pawns:",
     "if steps[1] & king or steps[pawn_field] & pawns:"),
    ("probe-misses-the-king", "board.py",
     "if steps[0] & knights or steps[1] & king or steps[pawn_field] & pawns:",
     "if steps[0] & knights or steps[pawn_field] & pawns:"),
    ("attackers-without-diagonal-sliders", "board.py",
     "return pawns, knights, bishops | queens, rooks | queens, king, _PAWN_FIELD[by]",
     "return pawns, knights, queens, rooks | queens, king, _PAWN_FIELD[by]"),
    ("pawn-attack-direction-flipped", "pieces.py",
     "_PAWN_FIELD = {Colour.WHITE: 2, Colour.BLACK: 3}",
     "_PAWN_FIELD = {Colour.WHITE: 3, Colour.BLACK: 2}"),
    # the per-square masks and the slide
    ("between-entry-one-square-short", "pieces.py",
     "_mask(range(s + step, s + n * step, step))", "_mask(range(s + 2 * step, s + n * step, step))"),
    ("slide-stops-short-of-the-blocker-above", "pieces.py",
     "((above & -above) * 2 - (1 << below.bit_length() - 1))",
     "((above & -above) - (1 << below.bit_length() - 1))"),
    ("slide-not-stopping-at-the-blocker-below", "pieces.py",
     "below, above = lower & occupied | 1, upper & occupied",
     "below, above = 1, upper & occupied"),
    ("not-h-file-mask-keeps-the-h-file", "pieces.py",
     "_NOT_H_FILE = _A_FILE * 127", "_NOT_H_FILE = _A_FILE * 255"),
    ("memo-key-misses-a-ray", "board.py",
     "slides[occupied & reach | key]", "slides[occupied & (reach ^ lines[0][2]) | key]"),
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
    # the obstacle API's geometry, and the double push
    ("pawn-pushes-onto-a-held-square", "pieces.py",
     "return _squares(ahead & ~occupied | captures)", "return _squares(ahead | captures)"),
    ("pawn-pushes-off-the-last-rank", "pieces.py",
     "ahead = 1 << s + 8 & FULL if", "ahead = 1 << s + 8 if"),
    ("pawn-captures-with-the-wrong-colour's-field", "pieces.py",
     "_STEPS[s][_PAWN_FIELD[opposite_colour(colour)]]", "_STEPS[s][_PAWN_FIELD[colour]]"),
    ("pawn-captures-its-own-side", "pieces.py",
     "& occupied & ~own", "& occupied"),
    ("own-pieces-not-masked-out", "pieces.py",
     "return _squares(targets & ~own)", "return _squares(targets)"),
    ("double-push-from-the-wrong-rank", "board.py",
     "pawn.square.y != (2 if white else 7)", "pawn.square.y != (3 if white else 7)"),
    # the pawns' bulk shifts
    ("pawn-shift-wraps-from-the-a-file", "board.py",
     "left = (group & _NOT_A_FILE) << al >> ar", "left = group << al >> ar"),
    ("pawn-shift-wraps-from-the-h-file", "board.py",
     "right = (group & _NOT_H_FILE) << hl >> hr", "right = group << hl >> hr"),
    ("pawn-captures-onto-an-empty-square", "board.py",
     "left = (group & _NOT_A_FILE) << al >> ar & them & on",
     "left = (group & _NOT_A_FILE) << al >> ar & ~us & on"),
    ("double-push-from-the-wrong-rank-in-the-walk", "board.py",
     "0xFF << 16, 0xFF << 56", "0xFF << 24, 0xFF << 56"),
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
    ("castled-rook-missing-from-the-xor-update", "board.py",
     "            boards[_SLOT[holder.colour, holder.type]] ^= 1 << s", "            pass"),
    ("captured-piece-left-on-its-bitboard", "board.py",
     "        boards[_SLOT[dead.colour, dead.type]] ^= 1 << t", "        pass"),
    ("origin-not-cleared", "board.py",
     "occ[f], occ[t] = None, mov.to_", "occ[t] = mov.to_"),
    ("rights-not-cleared-by-the-to-square", "board.py",
     "return occ, boards, rights & _RIGHTS_KEPT[f] & _RIGHTS_KEPT[t]",
     "return occ, boards, rights & _RIGHTS_KEPT[f]"),
    ("rights-not-cleared-by-the-from-square", "board.py",
     "return occ, boards, rights & _RIGHTS_KEPT[f] & _RIGHTS_KEPT[t]",
     "return occ, boards, rights & _RIGHTS_KEPT[t]"),
    ("rights-not-read-from-the-history", "board.py",
     "for m in board.history:", "for m in board.history[:0]:"),
    ("castling-without-the-rights-test", "board.py",
     "            rights & bit\n", "            True\n"),
    ("castling-wing-colour-ignored", "board.py",
     "for (home, _), (side, *_) in _CASTLINGS.items()",
     "for (home, _) in _CASTLINGS for side in Colour"),
    ("rights-mask-ignores-corners", "board.py",
     "if s in (home, corner))", "if s == home)"),
    ("fen-accepts-a-repeated-rights-letter", "fen.py",
     "if not set(letters) <= _RIGHTS.keys() or len(set(letters)) < len(letters):",
     "if not set(letters) <= _RIGHTS.keys():"),
    ("fen-revokes-the-wrong-corner", "fen.py",
     "for s in (corner, off))", "for s in (corner ^ 7, off ^ 7))"),
    ("en-passant-probe-reads-the-parent-occupancy", "board.py",
     "if king is None or not _square_attacked(probe, sum(after), king):",
     "if king is None or not _square_attacked(attackers, occupied, king):"),
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
     "total += 3 * (((one | left) & last).bit_count() + (right & last).bit_count())",
     "total += 0 * (((one | left) & last).bit_count() + (right & last).bit_count())"),
    ("en-passant-not-counted", "board.py",
     "            if pawns >> s & 1:", "            if pawns >> s & 1 and not count:"),
    ("en-passant-window-from-a-stale-ply", "board.py",
     "total += _perft(_child_map(square_map, m, _changes(occ, m)), m, enemy, depth - 1, slides)",
     "total += _perft(_child_map(square_map, m, _changes(occ, m)), last, enemy, depth - 1, slides)"),
    ("divide-hands-its-workers-the-parent's-last-move", "board.py",
     "tasks = [(_child_map(square_map, m, _changes(occ, m)), m, enemy, depth - 1, slides) for m in moves]",
     "tasks = [(_child_map(square_map, m, _changes(occ, m)),"
     " board.history[0] if board.history else None, enemy, depth - 1, slides) for m in moves]"),
    ("deep-perft-ends-in-a-traceback", "cli.py",
     "    except RecursionError:", "    except ZeroDivisionError:"),
    # the terminal test
    ("terminal-test-skips-the-king", "board.py",
     "for pieces in context.boards[own:own + 6])", "for pieces in context.boards[own:own + 5])"),
    # SAN resolution
    ("plain-king-token-matches-a-castling", "pgn.py",
     "and iss_castling(game.board, m) is (token.kind is not SanKind.NORMAL)",
     "and (token.kind is SanKind.NORMAL or iss_castling(game.board, m))"),
    ("san-candidates-miss-the-other-file", "board.py",
     "reach = _STEPS[t][_PAWN_FIELD[colour]] | _A_FILE << (t & 7)", "reach = _A_FILE << (t & 7)"),
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

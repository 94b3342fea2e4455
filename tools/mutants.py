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
    # the board's checks at birth, and the values' own
    ("second-king-accepted", "board.py",
     "if kings & (kings - 1):", "if False:"),
    ("pawn-promotes-to-a-king", "board.py",
     "from_.type is not PAWN or to_.type is KING\n", "from_.type is not PAWN\n"),
    ("coordinate-accepts-non-integers", "pieces.py",
     "if not (isinstance(x, int) and isinstance(y, int) and 1 <= x <= 8", "if not (1 <= x <= 8"),
    # the legality filter
    ("evasions-ignored", "board.py",
     "allowed = evasions & not_ours", "allowed = FULL & not_ours"),
    ("pins-ignored", "board.py",
     "            targets &= pins[s]", "            targets &= FULL"),
    ("pinned-pawn-off-its-line", "board.py",
     "groups += [(1 << s, allowed & line)", "groups += [(1 << s, allowed)"),
    ("king-steps-unprobed", "board.py",
     "if _square_attacked(attackers, probed, t):", "if False:"),
    ("king-not-lifted", "board.py",
     "probed, steps = occupied ^ 1 << s, targets", "probed, steps = occupied, targets"),
    # the special moves' walk, with the king filters cleared
    ("special-moves-filtered-by-the-king", "board.py",
     "_replace(king=None, pins={}, evasions=FULL, moves={})",
     "_replace(pins={}, evasions=FULL, moves={})"),
    ("special-moves-filtered-by-pins", "board.py",
     "_replace(king=None, pins={}, evasions=FULL, moves={})",
     "_replace(king=None, evasions=FULL, moves={})"),
    ("special-moves-filtered-by-evasions", "board.py",
     "_replace(king=None, pins={}, evasions=FULL, moves={})",
     "_replace(king=None, pins={}, moves={})"),
    # the side's one walk (the king is walked after the queens)
    ("side-walk-skips-the-knights-and-sliders", "board.py",
     "_WALKED[colour] if us & wanted ^ pawns else ()",
     "() if us & wanted ^ pawns else ()"),
    # the move rows, found by one int key: moving slot << 10 | arriving slot << 6 | square
    # (the walk's row line also starts the piece's list, kept in a local)
    ("row-of-the-wrong-type", "board.py",
     "kept, row = [], _MOVES[slot << 10 | slot << 6 | s]",
     "kept, row = [], _MOVES[slot + 1 << 10 | slot + 1 << 6 | s]"),
    ("row-of-the-wrong-colour", "board.py",
     "kept, row = [], _MOVES[slot << 10 | slot << 6 | s]",
     "kept, row = [], _MOVES[(slot + 6) % 12 << 10 | (slot + 6) % 12 << 6 | s]"),
    ("row-builder-reads-the-wrong-colour", "board.py",
     "colour = tuple(Colour)[slot // 6]", "colour = tuple(Colour)[1 - slot // 6]"),
    ("promotion-row-keyed-by-the-moving-slot", "board.py",
     "_MOVES[own << 10 | own + j << 6 | s][t]", "_MOVES[own << 10 | own << 6 | s][t]"),
    ("castling-probed-never", "board.py",
     "if rights & _SIDE_RIGHTS[colour]:", "if False:"),
    ("castling-probed-always", "board.py",
     "if rights & _SIDE_RIGHTS[colour]:", "if True:"),
    ("castling-listed-in-check", "board.py",
     "if wings is None or checked:", "if wings is None:"),
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
    # (the enemy's pieces are laid out in _king_context now; _attackers is gone)
    ("attackers-without-diagonal-sliders", "board.py",
     "diagonal, straight = bishops | queens, rooks | queens",
     "diagonal, straight = queens, rooks | queens"),
    ("attackers-pawn-field-swapped", "board.py",
     "_PAWN_FIELD[opposite_colour(c)]) for c in Colour}", "_PAWN_FIELD[c]) for c in Colour}"),
    ("pawn-attack-direction-flipped", "pieces.py",
     "_PAWN_FIELD = {Colour.WHITE: 2, Colour.BLACK: 3}",
     "_PAWN_FIELD = {Colour.WHITE: 3, Colour.BLACK: 2}"),
    # the per-square masks and the slide
    ("between-entry-one-square-short", "pieces.py",
     "between[t] = _mask(walk[:n])", "between[t] = _mask(walk[1:n])"),
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
    # the one walker the geometry is built from
    ("rays-capped-at-6-steps", "pieces.py",
     "while 0 <= x < 8 and 0 <= y < 8:", "while len(walk) < 6 and 0 <= x < 8 and 0 <= y < 8:"),
    ("walk-stops-short-of-the-a-file", "pieces.py",
     "while 0 <= x < 8 and 0 <= y < 8:", "while 0 < x < 8 and 0 <= y < 8:"),
    ("knight-offset-dropped", "pieces.py",
     "(1, 2), (-1, 2), (1, -2), (-1, -2), (2, 1), (-2, 1), (2, -1), (-2, -1),",
     "(1, 2), (-1, 2), (1, -2), (-1, -2), (2, 1), (-2, 1), (2, -1),"),
    ("pawn-capture-rays-of-the-wrong-colour", "pieces.py",
     "for forward in (-1, 1)", "for forward in (1, -1)"),
    # the obstacle API's geometry
    ("pawn-pushes-onto-a-held-square", "pieces.py",
     "return ahead & ~occupied | captures", "return ahead | captures"),
    ("pawn-pushes-off-the-last-rank", "pieces.py",
     "ahead = 1 << s + 8 & FULL if", "ahead = 1 << s + 8 if"),
    ("pawn-captures-with-the-wrong-colour's-field", "pieces.py",
     "_STEPS[s][_PAWN_FIELD[opposite_colour(colour)]]", "_STEPS[s][_PAWN_FIELD[colour]]"),
    ("step-is-the-ray's-last-square", "pieces.py",
     "return ray[0] if ray else None", "return ray[-1] if ray else None"),
    ("pawn-captures-its-own-side", "pieces.py",
     "& occupied & ~own", "& occupied"),
    ("own-pieces-not-masked-out", "pieces.py",
     "return targets & ~own", "return targets"),
    # attacked_squares asks the probe; on the side's own squares only its pawns count
    ("attacked-squares-include-the-side's-own", "board.py",
     "_square_attacked(pawns_only if us >> s & 1 else attackers, occupied, s)",
     "_square_attacked(attackers, occupied, s)"),
    ("attacked-squares-skip-the-side's-own", "board.py",
     "pawns_only = attackers[:1] + (0, 0, 0, 0) + attackers[5:]",
     "pawns_only = (0, 0, 0, 0, 0) + attackers[5:]"),
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
    # the en-passant window: a mask of the squares beside the landing, and the skipped square
    ("en-passant-neighbours-off-the-board", "board.py",
     "(landing & _NOT_A_FILE) >> 1 | (landing & _NOT_H_FILE) << 1", "landing >> 1 | landing << 1"),
    ("en-passant-neighbour-wraps-from-the-a-file", "board.py",
     "(landing & _NOT_A_FILE) >> 1", "landing >> 1"),
    ("en-passant-neighbour-wraps-from-the-h-file", "board.py",
     "(landing & _NOT_H_FILE) << 1", "landing << 1"),
    ("en-passant-skipped-square-a-rank-off", "board.py",
     "(f + t) // 2", "(f + t) // 2 + 8"),
    # the square map a child inherits, and the move-kind dispatch behind it
    ("rook-not-patched-on-castling", "board.py",
     "return (corner, None), (crossed, _ROWS[ROOK, mover.colour][crossed])",
     "return (corner, occ[corner]), (crossed, _ROWS[ROOK, mover.colour][crossed])"),
    # (_changes reads the pieces' square indices now)
    ("en-passant-victim-not-patched", "board.py",
     "return ((t & 7 | f & 56, None),)", "return ((t & 7 | f & 56, occ[t & 7 | f & 56]),)"),
    ("en-passant-file-test-reads-the-rank", "board.py",
     "(f ^ t) & 7 and occ[t] is None", "(f ^ t) & 56 and occ[t] is None"),
    # (_child_map reads the slots the pieces carry now)
    ("castled-rook-missing-from-the-xor-update", "board.py",
     "            boards[holder._slot] ^= 1 << s", "            pass"),
    ("captured-piece-left-on-its-bitboard", "board.py",
     "        boards[dead._slot] ^= 1 << t", "        pass"),
    ("origin-not-cleared", "board.py",
     "occ[f], occ[t] = None, arrival", "occ[t] = arrival"),
    # the slot and square index each piece carries from its construction
    ("piece-slot-of-the-other-colour", "pieces.py",
     '"_slot", _SLOT[self.colour, self.type]', '"_slot", _SLOT[opposite_colour(self.colour), self.type]'),
    ("piece-square-index-a-rank-off", "pieces.py",
     '"_s", self.square.x + 8 * self.square.y - 9', '"_s", self.square.x + 8 * self.square.y - 1'),
    ("rights-not-cleared-by-the-to-square", "board.py",
     "return occ, boards, rights & _RIGHTS_KEPT[f] & _RIGHTS_KEPT[t]",
     "return occ, boards, rights & _RIGHTS_KEPT[f]"),
    ("rights-not-cleared-by-the-from-square", "board.py",
     "return occ, boards, rights & _RIGHTS_KEPT[f] & _RIGHTS_KEPT[t]",
     "return occ, boards, rights & _RIGHTS_KEPT[t]"),
    ("rights-not-read-from-the-history", "board.py",
     "for m in history:", "for m in history[:0]:"),
    ("birth-map-keeps-every-right", "board.py",
     '"_contexts", {None: (occ, boards, rights)}', '"_contexts", {None: (occ, boards, 15)}'),
    ("castling-without-the-rights-test", "board.py",
     "            rights & bit\n", "            True\n"),
    # the one castling table, keyed by the king's (colour, home)
    ("castling-wing-colour-ignored", "board.py",
     "wings = _CASTLINGS.get((colour, king))",
     "wings = _CASTLINGS.get((Colour.WHITE, king)) or _CASTLINGS.get((Colour.BLACK, king))"),
    ("castling-table-read-under-the-wrong-colour", "board.py",
     "_CASTLINGS.get((mover.colour, f), {})", "_CASTLINGS.get((opposite_colour(mover.colour), f), {})"),
    ("rights-mask-ignores-corners", "board.py",
     "        if s in (home, corner)\n", "        if s == home\n"),
    ("fen-accepts-a-repeated-rights-letter", "fen.py",
     "if not set(letters) <= _RIGHTS.keys() or len(set(letters)) < len(letters):",
     "if not set(letters) <= _RIGHTS.keys():"),
    ("fen-revokes-the-wrong-corner", "fen.py",
     "for s in (corner, off))", "for s in (corner ^ 7, off ^ 7))"),
    # (the probe asks _king_context of the map after the capture now)
    ("en-passant-probe-reads-the-parent-occupancy", "board.py",
     "if king is None or not _king_context(after, colour)[4]:",
     "if king is None or not _king_context(boards, colour)[4]:"),
    # the occupancy an applied board derives its piece set from, and the
    # named rules' pre-conditions
    ("castled-rook-never-joins-the-piece-set", "board.py",
     "        occ[s] = holder", "        occ[s] = None"),
    ("en-passant-victim-stays-in-the-piece-set", "board.py",
     "        occ[s] = holder", "        occ[s] = holder if len(changes) == 2 else occ[s]"),
    ("move-other-pre-condition-dropped", "board.py",
     "if _changes(_held(board, mov.from_)[0].occ, mov):", "if False:"),
    ("move-other-holder-check-dropped", "board.py",
     "if _changes(_held(board, mov.from_)[0].occ, mov):",
     "if _changes(_context(board, mov.from_.colour).occ, mov):"),
    ("move-castling-holder-check-dropped", "board.py",
     "occ = _held(board, mov.from_)[0].occ\n    changes = _changes(occ, mov)\n    rook",
     "occ = _context(board, mov.from_.colour).occ\n    changes = _changes(occ, mov)\n    rook"),
    ("move-en-passant-holder-check-dropped", "board.py",
     "occ = _held(board, mov.from_)[0].occ\n    changes = _changes(occ, mov)\n    victim",
     "occ = _context(board, mov.from_.colour).occ\n    changes = _changes(occ, mov)\n    victim"),
    ("move-castling-pre-condition-dropped", "board.py",
     "if rook is None or rook.type is not ROOK or rook.colour is not mov.from_.colour:",
     "if False:"),
    ("move-castling-rook-colour-unchecked", "board.py",
     "if rook is None or rook.type is not ROOK or rook.colour is not mov.from_.colour:",
     "if rook is None or rook.type is not ROOK:"),
    ("move-en-passant-pre-condition-dropped", "board.py",
     "if victim is None or victim.type is not PAWN or victim.colour is mov.from_.colour:",
     "if False:"),
    ("move-en-passant-victim-colour-unchecked", "board.py",
     "if victim is None or victim.type is not PAWN or victim.colour is mov.from_.colour:",
     "if victim is None or victim.type is not PAWN:"),
    ("move-en-passant-victim-type-unchecked", "board.py",
     "if victim is None or victim.type is not PAWN or victim.colour is mov.from_.colour:",
     "if victim is None or victim.colour is mov.from_.colour:"),
    # perft's square-map recursion, its counted last ply and the root maps _divide hands on
    ("promotion-counted-once", "board.py",
     "total += 3 * (((one | left) & last).bit_count() + (right & last).bit_count())",
     "total += 0 * (((one | left) & last).bit_count() + (right & last).bit_count())"),
    ("en-passant-not-counted", "board.py",
     "        if pawns & beside and", "        if pawns & beside and not count and"),
    # (the recursion now gets the child's map as `after`; a depth-2 node counts
    # its children itself, through _leaves)
    ("en-passant-window-from-a-stale-ply", "board.py",
     "_perft(after, m, enemy, depth - 1, child, tables)", "_perft(after, last, enemy, depth - 1, child, tables)"),
    ("leaf-count-after-a-stale-ply", "board.py",
     "_leaves(after, m, enemy, slides)", "_leaves(after, last, enemy, slides)"),
    ("leaf-count-for-the-mover's-colour", "board.py",
     "_leaves(after, m, enemy, slides)", "_leaves(after, m, colour, slides)"),
    ("en-passant-shortcut-always-empty", "board.py",
     "passant = _NO_PASSANT if last is None or", "passant = _NO_PASSANT if True or"),
    ("divide-hands-its-workers-the-parent's-last-move", "board.py",
     "tasks.append((_child_map(square_map, m, changes), m, enemy, depth - 1, child, tables))",
     "tasks.append((_child_map(square_map, m, changes),"
     " board.history[0] if board.history else None, enemy, depth - 1, child, tables))"),
    # perft's count table and the incremental Zobrist key it is keyed by
    ("key-keeps-the-captured-piece", "board.py",
     "        key ^= _ZOBRIST[dead.colour, dead.type][t]", "        pass"),
    ("key-without-the-rights-term", "board.py",
     "key ^= (rights & ~kept) << 128", "pass"),
    ("key-rights-field-xored-with-the-kept-rights", "board.py",
     "key ^= (rights & ~kept) << 128", "key ^= (rights & kept) << 128"),
    ("root-key-not-0", "board.py",
     "child = _child_key(0, square_map, m, changes) if counts else 0",
     "child = _child_key(square_map[2] << 128, square_map, m, changes) if counts else 0"),
    ("key-en-passant-field-never-set", "board.py",
     "_SIDE[enemy], beside, skipped << 132", "_SIDE[enemy], beside, 0"),
    ("key-en-passant-field-over-the-rights", "board.py",
     "beside, skipped << 132", "beside, skipped << 128"),
    ("key-without-the-en-passant-term", "board.py",
     "        key ^= passant", "        pass"),
    ("key-without-the-castled-rook", "board.py",
     "            key ^= _ZOBRIST[holder.colour, holder.type][s]", "            pass"),
    ("key-keeps-the-node's-en-passant-term", "board.py",
     "        key &= _LESS_PASSANT", "        pass"),
    # (one count table per depth, {depth: {key: count}})
    ("count-table-keyed-without-the-depth", "board.py",
     "table = counts.get(depth - 1)", "table = counts[1] if depth - 1 in counts else None"),
    ("count-table-shared-by-every-depth", "board.py",
     "{d: {} for d in range(1, depth - 2)}", "dict.fromkeys(range(1, depth - 2), {})"),
    ("deep-perft-ends-in-a-traceback", "cli.py",
     "    except RecursionError:", "    except ZeroDivisionError:"),
    # the terminal test
    ("terminal-test-skips-the-king", "board.py",
     "_legal_for_piece(context, FULL ^ kings, True) or _legal_for_piece(context, kings, True))",
     "_legal_for_piece(context, FULL ^ kings, True))"),
    ("terminal-test-in-one-full-walk", "board.py",
     "_legal_for_piece(context, FULL ^ kings, True) or", "_legal_for_piece(context, FULL, True) or"),
    # its pawn-push mask
    ("push-mask-tried-in-check", "board.py",
     "if not context.checked and pawns << pl", "if pawns << pl"),
    ("push-mask-keeps-pinned-pawns", "board.py",
     "pawns = context.boards[_SIDE[colour]] & ~_mask(context.pins)", "pawns = context.boards[_SIDE[colour]]"),
    ("push-mask-of-the-wrong-colour", "board.py",
     "_context(board, colour), _PAWN_SHIFTS[colour][0]",
     "_context(board, colour), _PAWN_SHIFTS[opposite_colour(colour)][0]"),
    ("push-mask-off-the-board", "board.py",
     "pawns << pl >> pr & FULL & ~context.occupied:", "pawns << pl >> pr & ~context.occupied:"),
    ("push-mask-onto-held-squares", "board.py",
     "pawns << pl >> pr & FULL & ~context.occupied:", "pawns << pl >> pr & FULL:"),
    # the piece set an applied board derives on first read
    ("derived-set-keeps-empty-squares", "board.py",
     "frozenset(p for p in self._contexts[None][0] if p is not None)",
     "frozenset(self._contexts[None][0])"),
    ("derived-set-not-kept", "board.py",
     'if p is not None)\n        object.__setattr__(self, "board_state", state)',
     "if p is not None)\n        pass"),
    ("every-missing-attribute-derives-the-set", "board.py",
     'if name != "board_state":', "if False:"),
    ("applier-builds-the-set-eagerly", "board.py",
     '    object.__setattr__(after, "history", (mov,) + board.history)',
     '    object.__setattr__(after, "history", (mov,) + board.history); after.board_state'),
    # SAN resolution
    ("plain-king-token-matches-a-castling", "pgn.py",
     "or iss_castling(game.board, m) is castle)", "or not castle or iss_castling(game.board, m))"),
    ("castling-tested-for-no-rival", "pgn.py",
     "and (m.from_.type is not PieceType.KING or", "and (True or"),
    ("en-passant-not-a-capture", "pgn.py",
     "return held or mov.from_.type is PieceType.PAWN and mov.from_.square.x != mov.to_.square.x",
     "return held"),
    ("word-memo-keyed-without-the-check-mark", "pgn.py",
     "words[word] = token = _parse_san_word(word, text, start)",
     "words[word.rstrip('+#')] = token = _parse_san_word(word, text, start)"),
    ("san-candidates-miss-the-other-file", "board.py",
     "reach = _STEPS[t][_PAWN_FIELD[colour]] | _A_FILE << (t & 7)", "reach = _A_FILE << (t & 7)"),
    # SAN's onto walk: the legal moves onto one square, in a dict of its own,
    # and the resolved move played through game_move's outcome step alone
    ("onto-mask-ignored-for-the-king's-steps", "board.py",
     "targets = _STEPS[s][1] & not_ours", "targets = _STEPS[s][1] & ~us"),
    ("onto-mask-ignored-for-castling", "board.py",
     "targets |= _castling_moves(context) & onto", "targets |= _castling_moves(context)"),
    ("onto-mask-ignored-for-en-passant", "board.py",
     "if pawns & beside and onto >> skipped & 1:", "if pawns & beside:"),
    ("onto-walk-keeps-its-lists-on-the-context", "board.py",
     "moves, not_ours, allowed = {}, not_ours & onto", "_, not_ours, allowed = {}, not_ours & onto"),
    ("san-play-skips-the-terminal-test", "pgn.py",
     "_step(_outcome(game, _apply(game.board, matches[0])))",
     "_step((Game(_apply(game.board, matches[0]), Colour.WHITE if game.turn is Colour.BLACK"
     " else Colour.BLACK), None))"),
    # the interned moves and pieces, and the gate
    ("cached-hash-pickled", "board.py",
     "def __reduce__(self):  # pickle the pieces", "def _reduce(self):  # pickle the pieces"),
    ("board-pickled-with-its-contexts", "board.py",
     "def __reduce__(self):  # as Move's", "def _reduce(self):  # as Move's"),
    ("piece-hash-pickled", "pieces.py",
     "def __reduce__(self):", "def _reduce(self):"),
    ("move-equality-from-the-hash-alone", "board.py",
     "return self._hash == other._hash and self.from_ == other.from_ and self.to_ == other.to_",
     "return self._hash == other._hash"),
    ("gate-holder-check-dropped", "board.py",
     "if holder is not piece and holder != piece:", "if False:"),
    ("gate-holder-compared-by-identity-only", "board.py",
     "if holder is not piece and holder != piece:", "if holder is not piece:"),
    ("held-piece-type-unchecked", "board.py",
     "if piece_type is not None and piece.type is not piece_type:", "if False:"),
    # concurrent calls on one board: a list is stored only when whole, and the
    # readers walk a snapshot of the kept lists
    ("list-stored-before-it-is-filled", "board.py",
     "kept, row = [], _MOVES[slot << 10 | slot << 6 | s]",
     "moves[s] = kept = []; row = _MOVES[slot << 10 | slot << 6 | s]"),
    ("pawn-lists-stored-before-they-are-filled", "board.py",
     "lists = {} if count else {s: [] for s in _squares(pawns)}",
     "lists = {} if count else moves.update({s: [] for s in _squares(pawns)}) or moves"),
    ("side-moves-walk-the-live-dict", "board.py",
     "_legal_for_piece(context, ~_mask(tuple(moves)))", "_legal_for_piece(context, ~_mask(moves))"),
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

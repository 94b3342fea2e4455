#!/usr/bin/env python3
"""Regenerate the engine-derived reference outputs of the benchmark.

    python3 benchmark/record_references.py

Writes, under benchmark/reference/:
  - validate_corpus.txt: `chessval validate` stdout on tests/data/corpus.pgn,
    with the file's path written as `corpus.pgn`;
  - random_play.json: for each game seed, the ply count, the winner and the
    final `board_to_ascii` of the seeded random game.
It also checks that `roundtrip` reproduces the corpus byte for byte, which
the benchmark requires of every round.  perft.json is the published perft
table and is not generated.

The references pin today's behaviour: only a change that redefines the
benchmark may rerun this and commit the result.  A change to the engine
that alters any of these outputs is a behaviour change, and its benchmark
runs report it as failed operations.
"""

from __future__ import annotations

import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import (
    CORPUS_PATH,
    OUT_DIR,
    REFERENCE_DIR,
    describe_game,
    import_chessval,
    play_random_game,
    split_games,
)

RANDOM_GAMES = 600


def main() -> int:
    mods = import_chessval()
    corpus = CORPUS_PATH.read_text()
    split_games(corpus)

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        path = Path(workdir) / "corpus.pgn"
        shutil.copyfile(CORPUS_PATH, path)
        out, err = io.StringIO(), io.StringIO()
        code, _ = mods.cli.cmd_validate([str(path)], out=out, err=err)
        if code != 0:
            print(f"validate failed on the corpus: {err.getvalue()}", file=sys.stderr)
            return 1
        report = out.getvalue().replace(str(path), "corpus.pgn")
        code = mods.cli.cmd_roundtrip(str(path), out=io.StringIO(), err=err)
        if code != 0 or path.with_suffix(".out.pgn").read_text() != corpus:
            print(f"roundtrip does not reproduce the corpus: {err.getvalue()}", file=sys.stderr)
            return 1
    (REFERENCE_DIR / "validate_corpus.txt").write_text(report)

    games = []
    for seed in range(RANDOM_GAMES):
        walls: list[float] = []
        winner, game = play_random_game(mods, seed, [], walls)
        games.append({"seed": seed, **describe_game(mods, len(walls), winner, game)})
    (REFERENCE_DIR / "random_play.json").write_text(
        json.dumps({"max_plies": 200, "games": games}, indent=1) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

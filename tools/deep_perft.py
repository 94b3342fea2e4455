#!/usr/bin/env python3
"""Check the deep published perft counts, too slow for the tier-1 suite.

Kiwipete to depth 4, position 3 to depth 5, and positions 4, its mirror
and 5 to depth 4, against https://www.chessprogramming.org/Perft_Results,
each split over two worker processes.  Prints each count with its wall
time and exits 1 on any mismatch.

    PYTHONPATH=src:tests python tools/deep_perft.py
"""

import sys
import time

from chessval.board import perft
from chessval.fen import parse_fen
from positions import KIWIPETE, POSITION_3, POSITION_4, POSITION_4_MIRROR, POSITION_5

DEEP = [
    ("kiwipete", KIWIPETE, 4, 4085603),
    ("position 3", POSITION_3, 5, 674624),
    ("position 4", POSITION_4, 4, 422333),
    ("position 4 mirror", POSITION_4_MIRROR, 4, 422333),
    ("position 5", POSITION_5, 4, 2103487),
]


def main() -> int:
    failed = 0
    for name, fen, depth, published in DEEP:
        game = parse_fen(fen)
        start = time.perf_counter()
        nodes = perft(game.board, game.turn, depth, jobs=2)
        verdict = "ok" if nodes == published else f"MISMATCH, published {published}"
        failed += nodes != published
        print(f"{name} d{depth}: {nodes} in {time.perf_counter() - start:.1f} s ({verdict})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

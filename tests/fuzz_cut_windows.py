"""Fuzz ``cut_windows`` against the per-event dense scan on sensors up to 1,000 px.

The tier-1 scan tests draw sensors of at most three tiles a side; this draws
``STREAMS`` streams on sensors up to 1,000 px a side, with the streams and
bands of ``TestCutWindows.test_bit_identical_to_dense_scan``, and requires
the same windows bit for bit. It takes about 20 s on a 2-core x86-64
machine, a third of tier-1's time, so it runs on a schedule instead:

    PYTHONPATH=src:tests python tests/fuzz_cut_windows.py --seed 1

A failure prints the shrunk stream and the seed that reproduces it.
"""
import argparse

from hypothesis import HealthCheck, given, seed, settings

from evtraj.grouping import EntropyInterval, cut_windows
from test_grouping import SCAN_BANDS, dense_cut_windows, scan_streams

STREAMS = 1500
MAX_SIDE = 1000
MAX_WINDOW = 0.05


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    @seed(args.seed)
    @settings(max_examples=STREAMS, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=scan_streams(MAX_WINDOW, MAX_SIDE), band=SCAN_BANDS)
    def check(case, band):
        stream, grid = case
        interval = EntropyInterval(*band)
        got = [(w.offset, len(w), w.t_start, w.t_end)
               for w in cut_windows(stream, interval, grid, MAX_WINDOW)]
        assert got == dense_cut_windows(stream, interval, grid, MAX_WINDOW)

    check()
    print(f"cut_windows equals the dense scan on {STREAMS} streams (seed {args.seed})")


if __name__ == "__main__":
    main()

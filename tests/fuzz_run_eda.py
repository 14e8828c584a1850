"""Fuzz ``run_eda`` on degenerate streams on sensors up to 1,000 px a side.

The tier-1 test ``test_run_eda_on_degenerate_streams`` draws 100 streams on
sensors of at most 300 px a side; this draws ``STREAMS`` streams of 1-2,000
events on sensors up to 1,000 px a side and checks the same invariants: the
windows partition the stream, every id lies in [-1, num_models), and no numpy
warning is raised. It takes about 26 s on a 2-core x86-64 machine, so it runs
on a schedule, apart from tier-1:

    PYTHONPATH=src:tests python tests/fuzz_run_eda.py --seed 1

A failure prints the shrunk stream and the seed that reproduces it.
"""
import argparse

from hypothesis import HealthCheck, given, seed, settings

from test_acceptance import check_run_eda, degenerate_streams

STREAMS = 5000
MAX_SIDE = 1000


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    @seed(args.seed)
    @settings(max_examples=STREAMS, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(degenerate_streams(MAX_SIDE))
    def check(stream):
        check_run_eda(stream)

    check()
    print(f"run_eda keeps its invariants on {STREAMS} streams (seed {args.seed})")


if __name__ == "__main__":
    main()

"""Fuzz the squared-residual band against ``residual_matrix < tau`` on sensors up to 1,000 px.

The tier-1 test ``TestResidualBand.test_settles_only_what_the_residuals_decide``
draws 200 cases; this draws ``CASES`` cases of the same strategy: 1-6 lines
across a sensor of up to 1,000 px a side, 1-30 voxels near tau of them, and
tau from ``BAND_TAUS`` or on a computed residual, nudged by up to 3 ulps.
Every pair the band settles must be settled as ``residual_matrix < tau``
decides it, and ``associate`` must give the ids of ``reference_associate``.
It takes about 22 s on a 2-core x86-64 machine, so it runs on a schedule,
apart from tier-1:

    PYTHONPATH=src:tests python tests/fuzz_residual_band.py --seed 1

A failure prints the shrunk case and the seed that reproduces it.
"""
import argparse

from hypothesis import HealthCheck, given, seed, settings

from test_fitting import band_cases, check_band

CASES = 8000
MAX_SIDE = 1000


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    inside = [0]

    @seed(args.seed)
    @settings(max_examples=CASES, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(band_cases(MAX_SIDE))
    def check(case):
        inside[0] += check_band(*case)

    check()
    print(f"the band settles pairs as residual_matrix < tau does on {CASES} cases "
          f"({inside[0]} pairs inside it, seed {args.seed})")


if __name__ == "__main__":
    main()

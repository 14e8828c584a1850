"""The table of pinned output digests; computing them is tests/pinned_outputs.py's job."""
import re

from pinned_outputs import KINDS, PINNED


def test_table_holds_the_thirteen_pinned_rows():
    assert [row[:4] for row in PINNED] == [
        *(("associate", w, seed, {}) for w in ("lanes_fine", "track_eval") for seed in (1, 1009)),
        *(("tracker", w, seed, {}) for w in ("lanes_fine", "track_eval") for seed in (1, 1009)),
        ("relabelled", "lanes_fine", 1, {"entropy_alpha": 5.0, "entropy_beta": 6.0}),
        ("relabelled", "lanes_fine", 1009, {"entropy_alpha": 5.0, "entropy_beta": 6.0}),
        ("relabelled", "lanes_fine", 1, {"tau": 0.75}),
        ("relabelled", "lanes_fine", 1, {"tau": 3.0}),
        ("track_file", "track_eval", 1, {}),
    ]


def test_every_row_has_a_kind_and_a_sha256():
    for kind, *_, digest in PINNED:
        assert kind in KINDS
        assert re.fullmatch("[0-9a-f]{64}", digest), digest

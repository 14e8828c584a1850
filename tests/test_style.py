"""Source style checks that need no linter."""
from pathlib import Path

MAX_LINE = 100
SRC = Path(__file__).resolve().parent.parent / "src" / "evtraj"


def test_source_lines_fit_the_limit():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    long = [f"{path.name}:{i}: {len(line)} characters"
            for path in paths
            for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if len(line) > MAX_LINE]
    assert not long, f"lines over {MAX_LINE} characters:\n" + "\n".join(long)

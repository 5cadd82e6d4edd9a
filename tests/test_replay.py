"""The criterion-7 replay (``replay.py``) as a ratchet and as a parity check.

The unscaled verdict counts are pinned; the counts of unbuilt witnesses,
poorly certified witnesses and scaled flips may only fall, every scale label
takes the same routes, and the pair route's count may only rise.  Tighten a
bound here when a change tightens its count.  Every outcome must match the
committed record ``replay_record.json`` at the tolerances of ``replay.py
--compare``; a change that moves an outcome on purpose re-records it with
``python tests/replay.py --out tests/replay_record.json``.
"""

from collections import Counter
from pathlib import Path

import pytest

import replay

RECORD = Path(__file__).with_name("replay_record.json")


@pytest.fixture(scope="module")
def rows():
    return replay.replay()


def test_replay_counts_only_tighten(rows):
    verdicts, unwitnessed, bad, flips = replay.tally(rows)
    assert verdicts == Counter(NegInfinite=369, ExcludedConstant=81, Finite=32), verdicts
    assert unwitnessed <= 29
    assert bad <= 45
    assert sum(flips.values()) <= 41, flips
    # Every scale label solves each pair by the same route; the pair route may only gain.
    counts = replay.route_counts(rows)
    assert all(count == counts["unscaled"] for count in counts.values()), counts
    assert counts["unscaled"]["pair-cholesky"] >= 471, counts


def test_replay_matches_the_record(rows):
    differences = replay.compare(replay.load(RECORD), rows)
    assert not differences, "\n".join(differences[:20])

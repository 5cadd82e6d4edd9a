"""The criterion-7 replay (``replay.py``) as a ratchet.

The unscaled verdict counts are pinned; the counts of unbuilt witnesses,
poorly certified witnesses and scaled flips may only fall.  Lower a bound
here when a change lowers its count.
"""

from collections import Counter

import replay


def test_replay_counts_only_tighten():
    verdicts, unwitnessed, bad, flips = replay.tally(replay.replay())
    assert verdicts == Counter(NegInfinite=369, ExcludedConstant=81, Finite=32), verdicts
    assert unwitnessed <= 29
    assert bad <= 45
    assert sum(flips.values()) <= 41, flips

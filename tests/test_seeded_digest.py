"""tools/seeded_digest.py prints one stable digest line per group."""

import importlib.util
import os
import re

import numpy as np

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "seeded_digest.py")
_spec = importlib.util.spec_from_file_location("seeded_digest", _PATH)
seeded_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(seeded_digest)


def test_schedule_group_prints_one_stable_digest_line(capsys):
    # the cheapest group, twice in one process: same line both times
    lines = []
    for _ in range(2):
        assert seeded_digest.main(["--groups", "schedule"]) == 0
        lines.append(capsys.readouterr().out)
    assert re.fullmatch(r"schedule [0-9a-f]{16}\n", lines[0])
    assert lines[1] == lines[0]


class _Row:
    def __init__(self, y0):
        self.y0 = np.asarray(y0, dtype=np.float64)


class _Classified:
    """The fields of an EvalOutput that add_classified reads."""

    def __init__(self, preds, y0):
        self.predictions = np.asarray(preds, dtype=np.int64)
        self.prior_predictions = np.asarray(preds, dtype=np.int64)
        self.results = [_Row(row) for row in y0]


def _digests(out):
    d = seeded_digest.Digest()
    seeded_digest.add_classified(d, out)
    return d.hex(), d.pred.hex()


def test_add_classified_feeds_y0_to_the_full_digest_only():
    base = _digests(_Classified([0, 1], [[2.0, 1.0], [0.0, 3.0]]))
    moved_y0 = _digests(_Classified([0, 1], [[2.5, 1.0], [0.0, 3.0]]))
    moved_pred = _digests(_Classified([0, 0], [[2.0, 1.0], [0.0, 3.0]]))
    assert moved_y0[0] != base[0] and moved_y0[1] == base[1]
    assert moved_pred[0] != base[0] and moved_pred[1] != base[1]
    assert seeded_digest.Digest().pred is None

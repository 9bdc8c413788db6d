"""tools/seeded_digest.py prints one stable digest line per group."""

import importlib.util
import os
import re

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

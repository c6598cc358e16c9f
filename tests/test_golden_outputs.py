import json

import golden_outputs


def test_cli_outputs_match_the_committed_matrix():
    # a deliberate output change rewrites golden_outputs.json in the same commit
    # (python tests/golden_outputs.py) and lists the moves it prints
    golden = json.loads(golden_outputs.GOLDEN_PATH.read_text(encoding="utf-8"))
    current = golden_outputs.run_matrix()
    assert golden_outputs.moves(golden, current) == []
    assert golden_outputs.to_text(current) == golden_outputs.GOLDEN_PATH.read_text(encoding="utf-8")

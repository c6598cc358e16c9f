import json
import math

import golden_outputs


def test_cli_outputs_match_the_committed_matrix():
    # a deliberate output change rewrites golden_outputs.json in the same commit
    # (python tests/golden_outputs.py) and lists the moves it prints; the library
    # entries are each checked once, by the test_vqe.py case that computes them
    text = golden_outputs.GOLDEN_PATH.read_text(encoding="utf-8")
    golden = json.loads(text)
    library = {key: golden.pop(key) for key in golden_outputs.LIBRARY_CASES}
    current = golden_outputs.run_matrix()
    assert golden_outputs.moves(golden, current) == []
    assert golden_outputs.to_text({**current, **library}) == text


def test_golden_file_holds_exactly_the_library_cases():
    # a library pin can neither vanish from the file nor sit there unchecked
    library = [key for key in golden_outputs.load() if key.startswith("library ")]
    assert library == golden_outputs.LIBRARY_CASES


def test_moves_report_an_energy_by_its_relative_size_and_a_digest_from_to():
    old = {"library run": {"best_energy": (0.375).hex(), "trace_sha256": "aa", "converged": True}}
    new = {"library run": {"best_energy": math.nextafter(0.375, 1).hex(), "trace_sha256": "bb",
                           "converged": True}}
    assert golden_outputs.moves(old, new) == [
        "library run best_energy: 1 of 1 moved, largest relative move 1.48e-16",  # 1 ulp
        "library run trace_sha256: 'aa' -> 'bb'",
    ]

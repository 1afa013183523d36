"""Acceptance gate: every property suite at full volume, zero tolerance.

One gate runs each suite in ``verify.SUITES`` through the same entry
point the command line uses and demands an empty failure list, so a new
suite is gated as soon as it is registered.  Volumes are the suite
defaults (500 universal simulations, 1000 structural-invariant circuits,
and so on); equality checks are exact throughout, no tolerances anywhere.
"""

import sys

from cckit.verify import SUITES, run_suite

# the gates' established test names; any other suite is gated as test_<suite>
NAMES = {
    "golden-fixtures": "test_golden_fixtures_reproduce_exactly",
    "universal": "test_universal_circuit_simulation",
    "tri-lowering": "test_three_valued_lowering",
    "reduction-ring": "test_reduction_ring_equivalences",
    "sm-ladder": "test_marriage_algorithm_ladder",
    "feasible-pairs": "test_feasible_pair_bijection",
    "sm-to-ccv": "test_marriage_to_circuit_pipeline",
    "reachability": "test_reachability_pebbling",
    "structural-invariants": "test_structural_invariants",
    "strictification": "test_strictification",
    "formats": "test_format_round_trips_and_determinism",
}


def gate(name):
    def test():
        report = run_suite(name)
        verdict = "PASS" if report.passed else "FAIL"
        sys.stdout.write(f"{report.suite}: {verdict} ({report.cases} cases)\n")
        if report.failures:
            idx, text = report.failures[0]
            sys.stdout.write(f"first counterexample (case {idx}):\n{text}\n")
        assert report.failures == (), f"{name} had {len(report.failures)} failures"

    test.__name__ = NAMES.get(name, "test_" + name.replace("-", "_"))
    return test


for suite in SUITES:
    test = gate(suite)
    globals()[test.__name__] = test
del suite, test

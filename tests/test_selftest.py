"""The built-in suites pass and report deterministically."""

from functools import cache

import pytest

from hermsig.cli import main
from hermsig.errors import ValidationError
from hermsig.selftest import SUITES, run_suite

# byte-exact stdout of `hermsig selftest --suite all`; the counts do not
# depend on the seed
GOLDEN = """\
quaternion-trace-gram   pass  3 quaternion trace grams
trace-signatures        pass  8 closed-form signatures
nil-locus               pass  nil locus and divisor confirmed
reference-constants     pass  3 reference constants
pairing-matches-count   pass  12 random pairs against the eigenvalue count
absolute-matches-count  pass  18 random forms against the eigenvalue count
continuity              pass  4 nonsingular signatures locally constant
additivity              pass  18 direct sums
twist-multiplicativity  pass  6 quadratic twists
pivot                   pass  6 pivot triples
rank-bound              pass  6 forms within the rank bound
all 11 checks passed
"""


@cache
def suite_checks(suite):
    """Each suite runs once per test run; the tests below share its checks."""
    return run_suite(suite, seed=0)


class TestSuites:
    @pytest.mark.parametrize("suite", SUITES)
    def test_suite_passes(self, suite):
        checks = suite_checks(suite)
        assert checks
        failures = [(n, d) for n, ok, d in checks if not ok]
        assert failures == []

    def test_all_concatenates(self):
        names = [n for n, _ok, _d in run_suite("all")]
        assert names == [n for s in SUITES for n, _ok, _d in suite_checks(s)]

    def test_deterministic(self, capsys):
        for seed in ("0", "7"):
            assert main(["selftest", "--suite", "all", "--seed", seed]) == 0
            assert capsys.readouterr().out == GOLDEN

    def test_unknown_suite(self):
        with pytest.raises(ValidationError, match="suite"):
            run_suite("everything")

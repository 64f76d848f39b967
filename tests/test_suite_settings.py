"""The suite's own pytest settings, exercised on a throwaway test file."""

from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_property_prints_its_example_and_warnings_stay_errors(pytester):
    inner = pytester.makepyfile(test_inner="""
        import warnings

        from hypothesis import given, strategies as st


        @given(st.integers())
        def test_property_fails(x):
            assert x < 5


        def test_other_deprecation_is_an_error():
            warnings.warn("numpy.something is deprecated", DeprecationWarning)
    """)
    result = pytester.runpytest_subprocess(inner, "-c", PYPROJECT, "-p", "no:cacheprovider")
    output = result.stdout.str() + result.stderr.str()
    assert "INTERNALERROR" not in output
    assert "Falsifying example" in output
    result.assert_outcomes(failed=2)

"""The interval-index differential's test names, kept.

They compared the engine with the index switched off.  They are now the
reference differential's tests (``test_reference_differential.py``),
whose reference scans every row of every table.
"""

from tests.integration.test_reference_differential import (  # noqa: F401
    test_engine_takes_the_fast_paths_and_the_reference_does_not
    as test_taubench_suite_exercises_the_index,
    test_random_histories as test_random_histories_indexed_equals_linear,
    test_random_histories_routine_path,
    test_taupsm_max as test_taubench_indexed_equals_linear,
)

"""Crash recovery against columnar checkpoints, and the vectorized
differential's test names.

A checkpoint mid-workload writes transposed ``cols`` payloads, and
crashes at every post-checkpoint commit boundary must still recover the
reference state.

The differential compared the engine with the batch kernels switched
off.  Its tests are now the reference differential's
(``test_reference_differential.py``), whose reference evaluates row at a
time by walking the AST.
"""

import json
import random
import shutil

import pytest

from repro.temporal.stratum import TemporalStratum

from tests.integration.test_crash_recovery_fuzz import (
    SETUP,
    apply_op,
    build_workload,
    fingerprint,
    reference_fingerprints,
)
from tests.integration.test_reference_differential import (  # noqa: F401
    test_engine_takes_the_fast_paths_and_the_reference_does_not
    as test_taubench_suite_exercises_the_kernels,
    test_random_histories as test_random_histories_vectorized_equals_row,
    test_random_histories_routine_path,
    test_taupsm_max as test_taubench_vectorized_equals_row,
)


# ---------------------------------------------------------------------------
# crash recovery against columnar checkpoints
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [3, 19])
def test_columnar_checkpoint_crash_boundaries(seed, tmp_path):
    """Crash at every commit boundary after a columnar checkpoint:
    snapshot ``cols`` payload + columnar WAL suffix must compose back
    to the reference state."""
    ops = build_workload(seed, length=24)
    live = TemporalStratum.open(
        tmp_path / "live", auto_checkpoint_bytes=1 << 40
    )
    for sql in SETUP:
        live.execute(sql)
    for op in ops[:12]:
        apply_op(live, op)
    live.checkpoint()
    boundaries = [live.db.durability.wal_size()]
    for op in ops[12:]:
        apply_op(live, op)
        boundaries.append(live.db.durability.wal_size())
    live.close(checkpoint=False)

    # the snapshot on disk really is transposed (no legacy row lists)
    snapshot_raw = (tmp_path / "live" / "snapshot.json").read_bytes()
    payload = json.loads(snapshot_raw.split(b"\n", 1)[1])
    assert payload["tables"], "workload should have left tables behind"
    for spec in payload["tables"]:
        assert "cols" in spec and "rows" not in spec
        assert spec["cols"]["n"] == (
            len(spec["cols"]["cols"][0]["v"]) if spec["cols"]["cols"] else 0
        ) or spec["cols"]["n"] == 0

    expected = reference_fingerprints(ops)[12:]
    assert len(boundaries) == len(expected)

    rng = random.Random(seed ^ 0xBEEF)
    indexes = sorted(
        set([0, len(boundaries) - 1])
        | {rng.randrange(len(boundaries)) for _ in range(8)}
    )
    crash_dir = tmp_path / "crash"
    for index in indexes:
        if crash_dir.exists():
            shutil.rmtree(crash_dir)
        shutil.copytree(tmp_path / "live", crash_dir)
        with open(crash_dir / "wal.log", "r+b") as handle:
            handle.truncate(boundaries[index])
        recovered = TemporalStratum.open(crash_dir)
        try:
            got = fingerprint(recovered)
            assert got == expected[index], (
                f"seed {seed}: crash at post-checkpoint boundary {index}"
                " diverged"
            )
            # a recovered store answers a filtered scan
            recovered.db.execute(
                "SELECT name FROM emp WHERE salary > 4000"
            )
        finally:
            recovered.close(checkpoint=False)

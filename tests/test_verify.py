import pytest

from dynkmeans.verify import SUITES, run_suite

CHECKS = {
    "hashing": ["no_color_events", "diameter", "consistency_cap",
                "image_sandwich", "determinism"],
    "range": ["query_sandwich", "ann_ratio", "dhat_two_sided",
              "indicator_flips", "ball_1means"],
    "assignment": ["partition", "equidistant", "weight_conservation",
                   "ordering"],
    "subroutines": ["restricted_ratio"],
    "controller": ["recourse_identity", "instrumented", "certificates",
                   "solution_size", "cert_revalidation"],
    "sparsifier": ["post_update_contract", "size_bound", "fault_reset"],
    "lemmas": ["projection", "lazy_updates"],
}


def test_every_suite_is_listed():
    assert SUITES == (*CHECKS, "all")


@pytest.mark.parametrize("suite", sorted(CHECKS))
def test_verify_suite_passes(suite):
    results = run_suite(suite)
    assert [name for name, _, _ in results] == \
        [f"{suite}.{check}" for check in CHECKS[suite]]
    assert all(ok for _, ok, _ in results), results

import os
import sys

from hypothesis import settings

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

# `pytest --hypothesis-profile=ci` runs each property test without a
# max_examples of its own, test_sturm_count_is_monotone_in_mu,
# test_inertia_sylvester_invariance,
# test_magnus_agrees_with_rk45_on_random_potentials,
# test_chunk_boundaries_match_the_reference,
# test_grid_kernel_has_the_matrix_paths_bits and
# test_interval_count_is_the_matrix_congruence on 2000 examples
settings.register_profile("ci", max_examples=2000, deadline=None)

import os
import sys

from hypothesis import settings

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

# `pytest -m ci_property --hypothesis-profile=ci` runs the property tests
# marked ci_property on 2000 examples: those without a max_examples of their
# own, and those that take the profile's count when it is larger
settings.register_profile("ci", max_examples=2000, deadline=None)

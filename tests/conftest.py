"""Hypothesis profiles for the suite.

The render oracle tests draw as many examples as the loaded profile
asks for; every other property test fixes its own count.  Locally the
"local" profile is loaded; CI selects "ci" with
``pytest --hypothesis-profile=ci``, which draws five times as many.
"""

from hypothesis import settings

settings.register_profile("local", max_examples=200)
settings.register_profile("ci", max_examples=1000)
settings.load_profile("local")

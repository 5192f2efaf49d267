"""Hypothesis profiles for the suite.

Registering a profile does not load it: the suite runs with hypothesis's
defaults unless a run asks for one, as CI does for the differential
parser oracle:

    python -m pytest tests/test_parser_oracle.py --hypothesis-profile=oracle

The "countermodel" profile draws fewer examples for the countermodel
search against full enumeration, whose oracle enumerates every structure
up to size 3 for each example.
"""

from hypothesis import settings

settings.register_profile("oracle", max_examples=1000, deadline=None)
settings.register_profile("countermodel", max_examples=500, deadline=None)

"""Every build matches its row in the frozen catalogue (``catalogue.py``).

Orders up to 301 are checked by default; ``NONSEQ_STS_LONG=1`` checks
every row, up to order 1009.
"""

import os

import pytest

from catalogue import read_table, digests

LONG = os.environ.get("NONSEQ_STS_LONG") == "1"
ROWS = [row for row in read_table() if LONG or row[0] <= 301]


def test_the_table_has_every_order_and_the_partial_rows():
    keys = [(n, a) for n, a, _, _ in read_table()]
    assert keys[:167] == [(n, None) for n in range(13, 1010, 6)]
    assert keys[167:] == [(37, a) for a in range(13)] + [(253, 84)]


@pytest.mark.parametrize("n, a, blocks, cert", ROWS, ids=[f"n{n}-a{'-' if a is None else a}" for n, a, _, _ in ROWS])
def test_a_build_matches_its_row(n, a, blocks, cert):
    assert digests(n, a) == (blocks, cert)

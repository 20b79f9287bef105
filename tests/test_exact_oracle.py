"""tests/exact_oracle.py on sets whose exact tables can be checked by hand.

Every verdict test of tier-1 compares with that one module, so it gets a
test of its own that does not go through balcfg's verdicts.
"""

import pytest

import exact_oracle
from balcfg.errors import NotBalanced
from balcfg.geometry import Configuration

# v_0 = (1 + 2^-52, 1) and v_1 = (1, 1 - 2^-53): D = 2^53, so the ints are
# (2^53 + 2, 2^53) and (2^53, 2^53 - 1), and det = (2^53 - 2) / 2^106
STRADDLE = [[1.0000000000000002, 1.0], [1.0, 0.9999999999999999]]


def test_the_oracle_reads_hand_checked_tables():
    # the exact square: each row is {1, -1} and a 0 of the opposite member
    square = Configuration([(1, 0), (0, 1), (-1, 0), (0, -1)])
    table = exact_oracle.table(square)
    assert table.rows == [[0, 1, 0, -1], [-1, 0, 1, 0], [0, -1, 0, 1], [1, 0, -1, 0]]
    assert (table.scale, table.exact, table.tolerance(0.5)) == (1, True, 0)
    assert exact_oracle.is_balanced(square) == (True, None)
    assert exact_oracle.is_uniform(square) == (False, (0, 2))
    assert exact_oracle.even_m_witness(square) == 2

    # three pairwise independent members that sum to 0, an image of U_3:
    # every row is {1, -1}, and det(v_k, v_{k+1}) = 1 at every k, so A1 =
    # An = 1 (n = 1)
    triple = Configuration([(1, 0), (0, 1), (-1, -1)])
    assert exact_oracle.table(triple).rows == [[0, 1, -1], [-1, 0, 1], [1, -1, 0]]
    assert exact_oracle.is_balanced(triple) == (True, None)
    assert exact_oracle.is_uniform(triple) == (True, None)
    assert exact_oracle.step_constants(triple) == (1, 1)

    # row 0 is {1, -2}: its one pair sums to -1, and -2 is the larger end
    bent = Configuration([(1, 0), (0, 1), (-1, -2)])
    assert exact_oracle.is_balanced(bent) == (False, (0, -2))

    # opposite members: row 0 is {0}
    pair = Configuration([(1, 0), (-1, 0)])
    assert exact_oracle.table(pair).rows == [[0, 0], [0, 0]]
    assert exact_oracle.even_m_witness(pair) == 1

    # two float members: each row's one entry pairs with nothing, so the set
    # is balanced exactly when |det| is within the tolerance; 1e-9 * |det|
    # is not, and |det| ~ 1.1e-16 lies between 1e-17 and 1e-15
    straddle = Configuration(STRADDLE)
    table = exact_oracle.table(straddle)
    assert table.rows == [[0, 2**53 - 2], [2 - 2**53, 0]] and table.scale == 2**106
    assert not table.exact
    assert not exact_oracle.is_balanced(straddle, 1e-17)[0]
    assert exact_oracle.is_balanced(straddle, 1e-15) == (True, None)
    assert not exact_oracle.is_balanced(straddle)[0]
    assert exact_oracle.verdicts(STRADDLE) == (False, True)
    with pytest.raises(NotBalanced):
        exact_oracle.even_m_witness(straddle, 1e-17)

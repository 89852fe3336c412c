import functools

import pytest

import multisect.matrices
from multisect.constructions import (auto_cap, bisection_from_heegaard, cap_off,
                                     glue_bisections, lens_diagram,
                                     merge_adjacent_sectors)
from multisect.diagrams import connected_sum


@pytest.fixture(scope="session")
def lens21():
    return lens_diagram(2, 1)


@pytest.fixture(scope="session")
def lens21_bisection(lens21):
    return bisection_from_heegaard(lens21)


@pytest.fixture(scope="session")
def lens5_sum():
    """lens(5,1) # lens(5,2) # lens(5,3) # lens(5,4), the base of the
    glue-chain benchmark in one of its orders."""
    return functools.reduce(connected_sum, (lens_diagram(5, q) for q in range(1, 5)))


@pytest.fixture(scope="session")
def c12_merge(lens5_sum):
    """The benchmark's ``c12-merge.msd``: 12 glued copies of the base,
    capped, merged across interface 3."""
    chain = cap_off(glue_bisections(lens5_sum, 12), auto_cap(lens5_sum, 12))
    return merge_adjacent_sectors(chain, 3)


class _Rows(list):
    """The rows of the Smith form's working matrix, told apart from its
    columns, which the same operations take as their major lines."""


@pytest.fixture
def misreport_add(monkeypatch):
    """``misreport_add(side)`` makes the Smith form's additions on
    ``side``, "rows" or "columns", alone do q times the source line but
    log 2q; the other side's additions stay exact."""
    lines, add = multisect.matrices._lines, multisect.matrices._add

    def tagged(a, cols):
        rows, columns = lines(a, cols)
        return _Rows(rows), columns

    def misreport(side):
        def tampered(major, minor, log, dst, src, q):
            if isinstance(major, _Rows) != (side == "rows"):
                return add(major, minor, log, dst, src, q)
            add(major, minor, [], dst, src, q)
            log.append(("add", dst, src, 2 * q))

        monkeypatch.setattr(multisect.matrices, "_lines", tagged)
        monkeypatch.setattr(multisect.matrices, "_add", tampered)

    return misreport

import pytest
from hypothesis import strategies as st

from unitwreath.catalog import default_corpus_dir
from unitwreath.grpalg import GroupAlgebra
from unitwreath.pcgroup import PcPresentation, load_file


@pytest.fixture(scope="session")
def corpus_dir():
    return default_corpus_dir()


@pytest.fixture(scope="session")
def d8xc2(corpus_dir):
    return load_file(corpus_dir / "o16" / "D8xC2.pc2")


@pytest.fixture(scope="session")
def d8(corpus_dir):
    return load_file(corpus_dir / "o8" / "D8.pc2")


@pytest.fixture(scope="session")
def corpus32(corpus_dir):
    return [load_file(p) for p in sorted((corpus_dir / "o32").glob("*.pc2"))]


@pytest.fixture(scope="session")
def d8xc2_algebra(d8xc2):
    return GroupAlgebra(d8xc2)


@pytest.fixture(scope="session")
def d8_algebra(d8):
    return GroupAlgebra(d8)


@pytest.fixture(scope="session")
def dihedral_times_c2():
    """The pc presentation text of D_(2^n) x C2 (order 2^(n+1)), given n.

    Rotations r1..r(n-1) with r(i+1) = ri^2, a reflection t with
    t^(ri) = t·ri^2, and a central c.
    """

    def text(n: int) -> str:
        rots = [f"r{i}" for i in range(1, n)]
        lines = [f"group D{1 << n}xC2", "gens " + " ".join(rots + ["t", "c"])]
        lines += [f"pow {rots[i]} = {rots[i + 1]}" for i in range(n - 2)]
        lines += [f"conj t {rots[i]} = t {rots[i + 1]}" for i in range(n - 2)]
        return "\n".join(lines) + "\n"

    return text


@st.composite
def twisted_presentations(draw):
    """Up to four random power or conjugation words, within the index constraints.

    Few twists keep the consistent draws common at every n.
    """
    n = draw(st.integers(1, 6))
    slots = [(i, i) for i in range(1, n)]
    slots += [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
    powers, conjugations = {}, {}
    chosen = []
    if slots:
        chosen = draw(st.lists(st.sampled_from(slots), max_size=4, unique=True))
    for i, j in chosen:
        tail = tuple(draw(st.lists(st.integers(i + 1, n), min_size=1, max_size=2)))
        if i == j:
            powers[i] = tail
        else:
            conjugations[(i, j)] = (j, *tail)
    gens = tuple(f"g{i}" for i in range(1, n + 1))
    return PcPresentation("R", gens, powers, conjugations)


def assert_holds_no_row(group):
    """The group keeps its tables right[j] = [x·gj] and its inverses, nothing more."""
    assert sorted(vars(group)) == ["_inverses", "n", "name", "order", "pres", "right"]
    assert len(group.right) == group.n + 1

import pytest

from unitwreath.catalog import default_corpus_dir
from unitwreath.grpalg import GroupAlgebra
from unitwreath.pcgroup import load_file


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

import pytest
from hypothesis import strategies as st

from unitwreath.catalog import default_corpus_dir
from unitwreath.construct import check_hypotheses
from unitwreath.grpalg import GroupAlgebra
from unitwreath.pcgroup import PcPresentation, load_file


# D8 x D8 (order 64): G' = <c, y> is a four-group, not cyclic
D8_SQUARED = """group D8xD8
gens a c b x y w
pow a = c
conj b a = b c
pow x = y
conj w x = w y
"""


@pytest.fixture(scope="session")
def corpus_dir():
    return default_corpus_dir()


def corpus_paths():
    """Every o16 and o32 presentation file, o16 first, each in name order."""
    corpus = default_corpus_dir()
    return sorted(corpus.glob("o16/*.pc2")) + sorted(corpus.glob("o32/*.pc2"))


@pytest.fixture(scope="session")
def qualifying_paths():
    """The 24 o16/o32 files whose groups pass the hypotheses.

    Paths, not groups: each test loads its own, so no memo of one test's
    group (the inverses) reaches another.
    """
    paths = [p for p in corpus_paths() if check_hypotheses(load_file(p)).passed]
    assert len(paths) == 24
    return paths


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


@st.composite
def qualifying_presentations(draw):
    """Metacyclic <t, r> times 1 to 3 central C2, a group the hypotheses hold in.

    |r| = 2^k with r^t = r^j, j^2 ≡ 1 ≢ j, and t^2 = r^e with
    e(j - 1) ≡ 0 (mod 2^k), so that t^2 commutes with t.  The pc generators
    are t, r_i = r^(2^(i-1)) for i = 1..k, and the central involutions at
    drawn places; G' = <r^(j-1)> is cyclic, and no central generator lies
    in <t, r> ⊇ G'.  At most 6 generators keep the order at most 64.
    """
    k = draw(st.integers(2, 4))
    mod = 1 << k
    j = draw(st.sampled_from([j for j in range(3, mod, 2) if j * j % mod == 1]))
    e = draw(st.sampled_from([e for e in range(mod) if e * (j - 1) % mod == 0]))
    rots = [f"r{i}" for i in range(1, k + 1)]
    gens = ["t"] + rots
    for c in range(draw(st.integers(1, 5 - k))):
        gens.insert(draw(st.integers(0, len(gens))), f"c{c}")
    index = {g: i for i, g in enumerate(gens, start=1)}

    def r_power(x):  # r^x in normal form: r_i for each set bit i - 1 of x mod 2^k
        return tuple(index[rots[i]] for i in range(k) if x % mod >> i & 1)

    powers = {index[rots[i]]: (index[rots[i + 1]],) for i in range(k - 1)}
    if e:
        powers[index["t"]] = r_power(e)
    conjugations = {(index["t"], index[rots[i]]): r_power(j << i) for i in range(k)}
    return PcPresentation("M", tuple(gens), powers, conjugations)


def assert_holds_no_row(group):
    """The group keeps its tables right[j] = [x·gj] and its inverses, nothing more."""
    assert sorted(vars(group)) == ["_inverses", "n", "name", "order", "pres", "right"]
    assert len(group.right) == group.n + 1

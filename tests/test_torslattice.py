import pytest

from torsionheart import cotilting as co
from torsionheart import heart as he
from torsionheart import torsion as to
from torsionheart import torslattice as tl
from torsionheart.algebra import parse_algebra
from torsionheart.exceptions import NotCotiltingError
from torsionheart.krull import is_brick
from torsionheart.universe import enumerate_indecomposables, popcount
from torsionheart.verify import incident_arrows_vs_heart

import oracles
from conftest import FIXTURES, module_by_dims, universe_of
from oracles import brick_labels, join_search_lattice, subset_scan_lattice

A5_TEXT = ("field 2\nvertices 1 2 3 4 5\narrow a: 1 -> 2\narrow b: 2 -> 3\n"
           "arrow c: 3 -> 4\narrow d: 4 -> 5\n")


@pytest.fixture(scope="module")
def a2_lattice(a2_universe):
    return tl.enumerate_torsion_classes(a2_universe)


def test_a2_lattice_shape(a2_universe, a2_lattice):
    assert a2_lattice.n == 5
    assert len(a2_lattice.covers) == 5


def test_a1_lattice():
    from torsionheart.algebra import parse_algebra
    from torsionheart.universe import enumerate_indecomposables
    alg = parse_algebra("field 2\nvertices v\n")
    u = enumerate_indecomposables(alg, (2,))
    lat = tl.enumerate_torsion_classes(u)
    assert lat.n == 2
    assert len(lat.covers) == 1


def test_a3_lattice_node_count(a3_universe):
    lat = tl.enumerate_torsion_classes(a3_universe)
    assert lat.n == 14


def test_a2_cover_labels(a2_universe, a2_lattice):
    u = a2_universe
    lat = a2_lattice
    s1 = u.index_of(module_by_dims(u, (1, 0)))
    s2 = u.index_of(module_by_dims(u, (0, 1)))
    p1 = u.index_of(module_by_dims(u, (1, 1)))
    all_bits = u.all_bits
    expected = {
        (all_bits, (1 << s1) | (1 << p1)): s2,
        (all_bits, 1 << s2): s1,
        ((1 << s1) | (1 << p1), 1 << s1): p1,
        (1 << s1, 0): s1,
        (1 << s2, 0): s2,
    }
    got = {
        (lat.classes[c.upper], lat.classes[c.lower]): c.label_index
        for c in lat.covers
    }
    assert got == expected


def test_labels_are_bricks(a2_universe, a2_lattice):
    for c in a2_lattice.covers:
        assert is_brick(a2_universe.indecs[c.label_index])


def test_label_dual_consistency(a3_universe):
    # the label of T > U is torsion ATF for the pair of T and torsion-free AT
    # for the pair of U, on every cover of the lattice
    u = a3_universe
    lat = tl.enumerate_torsion_classes(u)
    for cover in lat.covers:
        label = u.indecs[cover.label_index]
        upper = lat.pair_of(cover.upper)
        lower = lat.pair_of(cover.lower)
        assert upper.is_torsion(label)
        assert he.is_almost_torsion_free(label, upper, "fast")
        assert lower.is_torsion_free(label)
        assert he.is_almost_torsion(label, lower, "fast")


def test_incidence_a2(a2_universe, a2_lattice):
    u = a2_universe
    s1_bits = 1 << u.index_of(module_by_dims(u, (1, 0)))
    pair = to.pair_from_torsion_class(s1_bits, u)
    report = incident_arrows_vs_heart(pair, a2_lattice)
    assert report.ok
    p1 = u.index_of(module_by_dims(u, (1, 1)))
    s1 = u.index_of(module_by_dims(u, (1, 0)))
    assert report.down_labels == (s1,)
    assert report.up_labels == (p1,)


def test_incidence_trivial_pair(a2_universe, a2_lattice):
    u = a2_universe
    pair = to.pair_from_torsion_class(0, u)
    report = incident_arrows_vs_heart(pair, a2_lattice)
    assert report.ok
    assert report.down_labels == ()
    assert len(report.up_labels) == 2


def test_incidence_all_cotilting_pairs_a3(a3_universe):
    u = a3_universe
    lat = tl.enumerate_torsion_classes(u)
    n_cotilting = 0
    for i in range(lat.n):
        pair = lat.pair_of(i)
        try:
            co.cotilting_from_pair(pair)
        except NotCotiltingError:
            continue
        n_cotilting += 1
        assert incident_arrows_vs_heart(pair, lat).ok
    assert n_cotilting == 5


def test_maximal_class_covers_count(a3_universe):
    # down-arrows from the maximal class are labelled by the simple modules
    u = a3_universe
    lat = tl.enumerate_torsion_classes(u)
    top = lat.class_index(u.all_bits)
    down, _ = lat.covers_of(top)
    labels = sorted(u.indecs[c.label_index].dims for c in down)
    assert labels == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_class_absent_raises(a2_universe, a2_lattice):
    with pytest.raises(ValueError):
        a2_lattice.class_index(0b111111)


def test_incidence_single_vertex_algebra():
    from torsionheart.algebra import parse_algebra
    from torsionheart.universe import enumerate_indecomposables
    alg = parse_algebra("field 2\nvertices v\n")
    u = enumerate_indecomposables(alg, (2,))
    lat = tl.enumerate_torsion_classes(u)
    pair = to.pair_from_torsion_class(0, u)
    report = incident_arrows_vs_heart(pair, lat)
    assert report.ok
    assert len(report.up_labels) == 1 and report.down_labels == ()


@pytest.mark.parametrize("name, bound", [
    ("a2", (2, 2)), ("a3", (2, 2, 2)), ("d4", (2, 2, 2, 2)),
    ("square", (1, 1, 1, 1)), ("loop", (2,))],
    ids=["a2", "a3", "d4", "square", "loop"])
def test_brick_labels_recompute(name, bound):
    # the labels read off the Hom table are the labels of the first
    # definition, the torsion almost torsion-free heart simples; on the
    # loop, Filt(S) holds a second indecomposable besides the brick S
    u = enumerate_indecomposables(
        parse_algebra((FIXTURES / f"{name}.quiver").read_text()), bound)
    lat = tl.enumerate_torsion_classes(u)
    assert [(c.upper, c.lower, c.label_index) for c in brick_labels(lat)] == \
        [(c.upper, c.lower, c.label_index) for c in lat.covers]


@pytest.mark.parametrize("universe", ["a2_universe", "a3_universe", "d4_universe"])
def test_join_search_matches_subset_scan_oracle(universe, request):
    u = request.getfixturevalue(universe)
    lat = tl.enumerate_torsion_classes(u)
    classes, covers = subset_scan_lattice(u)
    assert lat.classes == classes
    assert [(c.upper, c.lower, c.label_index) for c in lat.covers] == covers


@pytest.mark.parametrize("name, bound", [
    ("a2", (2, 2)), ("a3", (2, 2, 2)), ("a4", (2, 2, 2, 2)),
    ("d4", (2, 2, 2, 2)), ("d5", (2, 2, 2, 2, 2)), ("loop", (2,)),
    ("square", (1, 1, 1, 1)), ("nakayama", (2, 2)), ("e6", (3,) * 6)],
    ids=["a2", "a3", "a4", "d4", "d5", "loop", "square", "nakayama", "e6"])
def test_semibrick_lattice_matches_join_search(name, bound):
    # the classes T(S) = perp(S^perp) of the semibricks S, with one cover
    # T(S) > T(S) intersect perp(B) labelled B for each B in S, against the
    # join search over Filt(Fac) closures, which reads Fac tables and Ext
    # middles and no perpendicular class: same classes, covers and labels
    u = universe_of((FIXTURES / f"{name}.quiver").read_text(), bound)
    lat = tl.enumerate_torsion_classes(u)
    classes, covers = join_search_lattice(u)
    assert lat.classes == classes
    assert [(c.upper, c.lower, c.label_index) for c in lat.covers] == covers


def test_closure_count_d4(d4_universe, monkeypatch):
    # the join-search oracle takes one closure per (class T, indecomposable
    # outside T): it is no subset scan
    closure = oracles.join_closure
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return closure(*args, **kwargs)

    monkeypatch.setattr(oracles, "join_closure", counted)
    u = d4_universe
    classes, _ = join_search_lattice(u)
    budget = sum(u.n - popcount(bits) for bits in classes)
    assert (len(classes), budget) == (50, 353)
    assert len(calls) <= budget


def test_tors_a5_lists_no_quotients_and_reads_no_ext_middle(
        tmp_path, monkeypatch):
    # tors on linear A5 over F_2 at bound 1 lists no submodule or quotient,
    # and once the universe is built it computes no Ext middle and reads no
    # union of them: the lattice is read off the Hom table, where the join
    # search read the Ext middles of every pair of Ext^1 partners
    from torsionheart import cli
    from torsionheart import universe as un
    listings, reads, computed, built = [], [], [], []
    for name in ("all_quotients", "all_submodules"):
        real = getattr(un.IndecUniverse, name)
        monkeypatch.setattr(un.IndecUniverse, name,
                            lambda self, m, real=real:
                            listings.append(m.key) or real(self, m))
    union, middles = to.ext_middle_union_bits, un.IndecUniverse.ext_middles
    enumerate_ = cli.enumerate_indecomposables

    def read(u, i, j):
        reads.append((i, j))
        return union(u, i, j)

    def compute(self, right, left):
        if built:
            computed.append((right, left))
        return middles(self, right, left)

    def build(*args):
        built.append(enumerate_(*args))
        return built[-1]

    monkeypatch.setattr(to, "ext_middle_union_bits", read)
    monkeypatch.setattr(un.IndecUniverse, "ext_middles", compute)
    monkeypatch.setattr(cli, "enumerate_indecomposables", build)
    path = tmp_path / "a5.quiver"
    path.write_text(A5_TEXT)
    assert cli.main(["tors", str(path), "--dim-bound", "1,1,1,1,1"]) == 0
    assert len(built) == 1 and built[0].n == 15
    assert (listings, reads, computed) == ([], [], [])


def test_tors_a5_builds_ext_only_in_the_closure(tmp_path, monkeypatch):
    # tors on linear A5 over F_2 at bound 1 builds Ext^1 only for the
    # closure's AR pairs, one per member that is not projective, and none
    # once the universe is built: the lattice reads no Ext table
    from torsionheart import cli
    from torsionheart import homology as ho
    during, after, built = [], [], []
    init, enumerate_ = ho.Ext1Space.__init__, cli.enumerate_indecomposables

    def recorded_init(self, m, n):
        (after if built else during).append((m.key, n.key))
        init(self, m, n)

    def build(*args):
        built.append(enumerate_(*args))
        return built[-1]

    monkeypatch.setattr(ho.Ext1Space, "__init__", recorded_init)
    monkeypatch.setattr(cli, "enumerate_indecomposables", build)
    path = tmp_path / "a5.quiver"
    path.write_text(A5_TEXT)
    assert cli.main(["tors", str(path), "--dim-bound", "1,1,1,1,1"]) == 0
    assert len(built) == 1 and built[0].n == 15
    assert 0 < len(during) <= 10 and after == []


@pytest.mark.parametrize("name, n_classes, n_covers", [
    ("a5", 132, 330), ("d4", 50, 100), ("d5", 182, 455), ("e6", 833, 2499),
    ("e7", 4160, 14560)],
    ids=["a5", "d4", "d5", "e6", "e7"])
def test_a5_lattice_catalan(name, n_classes, n_covers):
    # |tors kQ| is the W-Catalan number of a Dynkin quiver Q (Ingalls-Thomas):
    # C_6 = 132 for A5, 50 for D4, 182 for D5, 833 for E6 and 4160 for E7;
    # the Hasse diagram is n-regular, and every label is a brick.  Bound 3
    # holds every positive root of E6, and bound 4 every one of E7.
    text = A5_TEXT if name == "a5" else (FIXTURES / f"{name}.quiver").read_text()
    alg = parse_algebra(text)
    n = alg.quiver.n
    bound = {"a5": 1, "e7": 4}.get(name, 3)
    u = universe_of(text, (bound,) * n)
    assert u.complete
    lat = tl.enumerate_torsion_classes(u)
    assert (lat.n, len(lat.covers)) == (n_classes, n_covers)
    assert 2 * len(lat.covers) == n * lat.n
    assert all(is_brick(u.indecs[c.label_index]) for c in lat.covers)

import itertools
import os
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

import pytest
from conftest import CATALOG, build_all, make_catalog, run_python, slug

import groupeq
from groupeq.catalog import AUDIT_ORDERS, EXPECTED_COUNTS, bundled_catalog_dir
from groupeq.config import Config
from groupeq.errors import CapExceeded
from groupeq.groups import is_metabelian, isomorphic, load_group_file
from groupeq.smallgroups import enumerate_groups


def test_catalog_counts_match_classification():
    counts = Counter(order for order, _, _ in CATALOG)
    assert dict(counts) == EXPECTED_COUNTS


def test_bundled_paths_resolve_without_importlib_resources():
    script = textwrap.dedent("""
        import sys
        from groupeq.catalog import resolve_data_path
        paths = [resolve_data_path("@catalog/012_a4.grp"),
                 resolve_data_path("@examples/solve_demo.sys")]
        assert "importlib.resources" not in sys.modules
        from importlib.resources import files
        data = files("groupeq").joinpath("data")
        assert paths == [Path(str(data.joinpath("catalog", "012_a4.grp"))),
                         Path(str(data.joinpath("examples", "solve_demo.sys")))], paths
        assert all(path.is_file() for path in paths)
    """)
    src = str(Path(groupeq.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-S", "-c", "from pathlib import Path\n" + script],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_catalog_module_loads_no_other_layer():
    proc = run_python(textwrap.dedent("""
        import sys
        import groupeq, groupeq.catalog
        assert [m for m in sys.modules if m.startswith("groupeq.")] == ["groupeq.catalog"]
        for name in ("CATALOG", "build_all"):
            assert not hasattr(groupeq.catalog, name) and not hasattr(groupeq, name), name
    """))
    assert proc.returncode == 0, proc.stderr


def test_catalog_names_unique_per_order():
    seen = set()
    for order, name, _ in CATALOG:
        assert (order, name) not in seen
        seen.add((order, name))
    slugs = {slug(o, n) for o, n, _ in CATALOG}
    assert len(slugs) == len(CATALOG)


def test_bundled_files_exist_and_load():
    d = bundled_catalog_dir()
    files = sorted(d.glob("*.grp"))
    assert len(files) == len(CATALOG)
    assert (d / "CITATIONS").exists()
    # orders encoded in filenames match the headers
    for path in files[:10]:
        G = load_group_file(path)
        assert G.order == int(path.name.split("_", 1)[0])


def test_bundled_files_match_builders_sampled():
    d = bundled_catalog_dir()
    for order, name, builder in CATALOG:
        if order not in (12, 16, 42):
            continue
        G = load_group_file(d / f"{slug(order, name)}.grp")
        H = builder()
        assert G.order == H.order == order
        assert isomorphic(G, H) is not None, name


def test_pairwise_non_isomorphic_per_order():
    by_order: dict[int, list] = {}
    for name, G in build_all():
        by_order.setdefault(G.order, []).append((name, G))
    for order, lst in by_order.items():
        for (n1, g1), (n2, g2) in itertools.combinations(lst, 2):
            assert isomorphic(g1, g2) is None, (order, n1, n2)


def test_enumerator_counts():
    for n in range(1, 13):
        assert len(enumerate_groups(n)) == EXPECTED_COUNTS[n]


def test_enumerator_cap():
    with pytest.raises(CapExceeded):
        enumerate_groups(13, Config(enumeration_cap=12))


def test_enumerator_cross_checks_catalog():
    # every enumerated group of an order covered by the catalog matches
    # exactly one bundled entry, and vice versa
    for n in (4, 6, 8, 12):
        enumerated = enumerate_groups(n)
        bundled = [G for _, G in build_all((n,))]
        assert len(enumerated) == len(bundled)
        matched = []
        for E in enumerated:
            hits = [i for i, B in enumerate(bundled)
                    if isomorphic(E, B) is not None]
            assert len(hits) == 1
            matched.append(hits[0])
        assert sorted(matched) == list(range(len(bundled)))


def test_p_groups_up_to_16_present():
    orders = Counter(G.order for _, G in build_all((2, 3, 4, 5, 7, 8, 9,
                                                    11, 13, 16)))
    assert orders == Counter({2: 1, 3: 1, 4: 2, 5: 1, 7: 1, 8: 5, 9: 2,
                              11: 1, 13: 1, 16: 14})


def test_metabelian_census():
    # in the audited orders, exactly S4 and SL(2,3) fail metabelianity
    non_metabelian = [name for name, G in build_all(AUDIT_ORDERS)
                      if not is_metabelian(G)]
    assert sorted(non_metabelian) == ["S4", "SL(2,3)"]


def test_make_catalog_check_names_differing_files(tmp_path, capsys):
    assert make_catalog.main(["--check"]) == 0
    assert capsys.readouterr().out == ""
    files = make_catalog.expected_files()
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    assert make_catalog.differing_files(tmp_path, files) == []
    (tmp_path / "002_c2.grp").write_text("group C2 order 2\ngenerators:\n(1 2)\n")
    (tmp_path / "CITATIONS").unlink()
    (tmp_path / "999_extra.grp").write_text("group X order 1\ntable:\n0\n")
    assert make_catalog.differing_files(tmp_path, files) == [
        "002_c2.grp", "999_extra.grp", "CITATIONS"]

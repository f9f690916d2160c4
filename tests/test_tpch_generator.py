"""Tests of the micro-scale TPC-H generator."""

import hashlib

import numpy as np
import pytest

from repro.tpch import (
    BASE_ROWS,
    TABLE_SPECS,
    generate_tpch,
    rows_at_scale,
)


@pytest.fixture(scope="module")
def cat():
    return generate_tpch(1.0, seed=0)


class TestCardinalities:
    def test_fixed_tables(self, cat):
        assert cat.table("region").num_rows == 5
        assert cat.table("nation").num_rows == 25

    def test_scaled_tables(self, cat):
        for name in ("supplier", "customer", "part", "partsupp", "orders"):
            assert cat.table(name).num_rows == BASE_ROWS[name]

    def test_lineitem_about_four_per_order(self, cat):
        ratio = cat.table("lineitem").num_rows / cat.table("orders").num_rows
        assert 3.0 < ratio < 5.0

    def test_rows_at_scale(self):
        assert rows_at_scale("part", 2.0) == 2 * BASE_ROWS["part"]
        assert rows_at_scale("region", 50) == 5

    def test_scale_factor_scales(self):
        small = generate_tpch(0.5, use_cache=False)
        assert small.table("part").num_rows == BASE_ROWS["part"] // 2

    def test_partsupp_four_per_part(self, cat):
        ps = cat.table("partsupp").column("ps_partkey").data
        counts = np.bincount(ps)
        assert (counts[1:] == 4).all()


class TestSchemas:
    def test_all_tables_present(self, cat):
        assert sorted(t.name for t in cat) == sorted(TABLE_SPECS)

    def test_column_order_matches_spec(self, cat):
        for name, spec in TABLE_SPECS.items():
            assert cat.table(name).column_names == [c for c, _ in spec]


class TestReferentialIntegrity:
    def test_nation_region_fk(self, cat):
        regions = set(cat.table("region").column("r_regionkey").data)
        assert set(cat.table("nation").column("n_regionkey").data) <= regions

    def test_supplier_nation_fk(self, cat):
        nations = set(cat.table("nation").column("n_nationkey").data)
        assert set(cat.table("supplier").column("s_nationkey").data) <= nations

    def test_partsupp_fk(self, cat):
        parts = set(cat.table("part").column("p_partkey").data)
        supps = set(cat.table("supplier").column("s_suppkey").data)
        assert set(cat.table("partsupp").column("ps_partkey").data) <= parts
        assert set(cat.table("partsupp").column("ps_suppkey").data) <= supps

    def test_lineitem_order_fk(self, cat):
        orders = set(cat.table("orders").column("o_orderkey").data)
        assert set(cat.table("lineitem").column("l_orderkey").data) <= orders

    def test_lineitem_dates_ordered(self, cat):
        li = cat.table("lineitem")
        ship = li.column("l_shipdate").data
        receipt = li.column("l_receiptdate").data
        assert (receipt > ship).all()


class TestDistributions:
    def test_brand_selectivity(self, cat):
        brands = cat.table("part").column("p_brand")
        hits = sum(1 for v in brands.to_python() if v == "Brand#41")
        frac = hits / cat.table("part").num_rows
        assert 0.01 < frac < 0.1  # nominal 1/25

    def test_type_brass_selectivity(self, cat):
        types = cat.table("part").column("p_type").to_python()
        frac = sum(1 for v in types if v.endswith("BRASS")) / len(types)
        assert 0.1 < frac < 0.3  # nominal 1/5

    def test_container_med_box(self, cat):
        containers = cat.table("part").column("p_container").to_python()
        frac = sum(1 for v in containers if v == "MED BOX") / len(containers)
        assert 0.005 < frac < 0.06  # nominal 1/40

    def test_size_range(self, cat):
        sizes = cat.table("part").column("p_size").data
        assert sizes.min() >= 1 and sizes.max() <= 50

    def test_quantity_range(self, cat):
        q = cat.table("lineitem").column("l_quantity").data
        assert q.min() >= 1 and q.max() <= 50

    def test_commit_receipt_mix(self, cat):
        li = cat.table("lineitem")
        frac = (
            li.column("l_commitdate").data < li.column("l_receiptdate").data
        ).mean()
        assert 0.2 < frac < 0.9  # Q4's EXISTS must be selective but non-empty


class TestDeterminism:
    def test_same_seed_same_data(self):
        a = generate_tpch(0.25, seed=3, use_cache=False)
        b = generate_tpch(0.25, seed=3, use_cache=False)
        for table in a:
            ca = table.columns[0].data
            cb = b.table(table.name).columns[0].data
            assert (ca == cb).all()

    # sha256 over every column array and dictionary, computed on commit
    # 429bc2a (one Python string per row): the pool-coded string columns
    # must leave every table byte-identical
    PARENT_DIGESTS = {
        (10, 0): "15db157671108896ba9156b22b21c229b4af3c0084dba29ccbb6e9217fa493f5",
        (10, 1): "db6420fa2e1b8ee6366b83d56a2d7fd14cc9702358aeaca317ee5b5ad4027d9b",
        (0.05, 7): "2eb146be415bddae3f7d85a63e55584a687eabd8b191c02aec22895655b62a97",
        (1, 3): "407ea2e94a33616eb94b4e9ea1c8fbe5adda822e3fcef0ffcf40e5caa3e6754b",
    }

    @pytest.mark.parametrize("scale,seed", sorted(PARENT_DIGESTS))
    def test_catalog_bytes_match_parent_commit(self, scale, seed):
        digest = hashlib.sha256()
        catalog = generate_tpch(scale, seed=seed, use_cache=False)
        for table in sorted(catalog, key=lambda t: t.name):
            for column in table.columns:
                data = column.data
                digest.update(
                    f"{table.name}.{column.name}:{data.dtype}:{len(data)}".encode()
                )
                digest.update(data.tobytes())
                if column.dictionary is not None:
                    digest.update("\x00".join(column.dictionary).encode())
        assert digest.hexdigest() == self.PARENT_DIGESTS[scale, seed]

    def test_different_seed_differs(self):
        a = generate_tpch(0.25, seed=1, use_cache=False)
        b = generate_tpch(0.25, seed=2, use_cache=False)
        assert not (
            a.table("part").column("p_size").data
            == b.table("part").column("p_size").data
        ).all()

    def test_cache_returns_same_object(self):
        a = generate_tpch(0.25, seed=5)
        b = generate_tpch(0.25, seed=5)
        assert a is b

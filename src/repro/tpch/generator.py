"""Deterministic micro-scale TPC-H data generator.

``generate_tpch(scale_factor)`` produces a :class:`~repro.storage.Catalog`
with the eight TPC-H tables.  Generation is vectorised with numpy and
seeded per table, so two calls with the same ``(scale_factor, seed)``
yield identical data — a requirement for the cost-model experiments,
which compare a predicted time against a later full run over the same
data.  String columns are drawn as ``(pool, position per row)`` pairs
(picks, comment phrases, clerks) and dictionary-coded as such by
:func:`~repro.storage.column_from_values`: no Python string per row.
"""

from __future__ import annotations

import zlib

import numpy as np

from ..storage import Catalog, Table
from ..storage.datatypes import date_to_int
from . import text
from .schema import TABLE_SPECS, rows_at_scale

_MIN_ORDER_DATE = date_to_int("1992-01-01")
_MAX_ORDER_DATE = date_to_int("1998-08-02")

# Catalogs are expensive to build relative to the micro-queries run on
# them, and benches sweep many scale factors; memoise by parameters.
_CACHE: dict[tuple[float, int], Catalog] = {}


def _rng(seed: int, table: str) -> np.random.Generator:
    # zlib.crc32 is stable across processes (unlike str hash, which is
    # salted) — required for reproducible datasets
    return np.random.default_rng(zlib.crc32(f"{seed}:{table}".encode()))


def _pick(rng: np.random.Generator, pool: list[str], n: int):
    """Uniformly sample ``n`` strings from a pool -> (pool, index per row)."""
    return pool, rng.integers(0, len(pool), size=n)


def _phrases(pool: list[str], idx: np.ndarray):
    """Rows of pool positions -> (distinct space-joined phrases, index per
    row).  Only the distinct word combinations are ever formatted."""
    shape = (len(pool),) * idx.shape[1]
    distinct, index = np.unique(
        np.ravel_multi_index(idx.T, shape), return_inverse=True
    )
    words = np.array(pool, dtype=object)
    columns = [words[digit] for digit in np.unravel_index(distinct, shape)]
    return [" ".join(row) for row in zip(*columns)], index


def _comments(rng: np.random.Generator, n: int, words: int = 3):
    """Short pseudo-comments assembled from a fixed word pool."""
    pool = text.COMMENT_WORDS
    return _phrases(pool, rng.integers(0, len(pool), size=(n, words)))


def _region() -> Table:
    rows = len(text.REGIONS)
    return Table.from_pydict(
        "region",
        TABLE_SPECS["region"],
        {
            "r_regionkey": list(range(rows)),
            "r_name": list(text.REGIONS),
            "r_comment": [f"region {name.lower()}" for name in text.REGIONS],
        },
    )


def _nation() -> Table:
    names = [n for n, _ in text.NATIONS]
    regionkeys = [r for _, r in text.NATIONS]
    return Table.from_pydict(
        "nation",
        TABLE_SPECS["nation"],
        {
            "n_nationkey": list(range(len(names))),
            "n_name": names,
            "n_regionkey": regionkeys,
            "n_comment": [f"nation {name.lower()}" for name in names],
        },
    )


def _supplier(scale_factor: float, seed: int) -> Table:
    n = rows_at_scale("supplier", scale_factor)
    rng = _rng(seed, "supplier")
    keys = np.arange(1, n + 1)
    nationkeys = rng.integers(0, 25, size=n)
    return Table.from_pydict(
        "supplier",
        TABLE_SPECS["supplier"],
        {
            "s_suppkey": keys,
            "s_name": [f"Supplier#{k:09d}" for k in keys],
            "s_address": [f"addr sup {k}" for k in keys],
            "s_nationkey": nationkeys,
            "s_phone": [f"{10 + nk}-{k % 1000:03d}-0000" for k, nk in zip(keys, nationkeys)],
            "s_acctbal": np.round(rng.uniform(-999.99, 9999.99, size=n), 2),
            "s_comment": _comments(rng, n),
        },
    )


def _customer(scale_factor: float, seed: int) -> Table:
    n = rows_at_scale("customer", scale_factor)
    rng = _rng(seed, "customer")
    keys = np.arange(1, n + 1)
    return Table.from_pydict(
        "customer",
        TABLE_SPECS["customer"],
        {
            "c_custkey": keys,
            "c_name": [f"Customer#{k:09d}" for k in keys],
            "c_address": [f"addr cust {k}" for k in keys],
            "c_nationkey": rng.integers(0, 25, size=n),
            "c_phone": [f"{10 + k % 25}-{k % 1000:03d}-1111" for k in keys],
            "c_acctbal": np.round(rng.uniform(-999.99, 9999.99, size=n), 2),
            "c_mktsegment": _pick(rng, text.SEGMENTS, n),
            "c_comment": _comments(rng, n),
        },
    )


def _part(scale_factor: float, seed: int) -> Table:
    n = rows_at_scale("part", scale_factor)
    rng = _rng(seed, "part")
    keys = np.arange(1, n + 1)
    word_idx = rng.integers(0, len(text.PART_NAME_WORDS), size=(n, 2))
    names = _phrases(text.PART_NAME_WORDS, word_idx)
    mfgr_num = rng.integers(1, 6, size=n)
    return Table.from_pydict(
        "part",
        TABLE_SPECS["part"],
        {
            "p_partkey": keys,
            "p_name": names,
            "p_mfgr": ([text.mfgr(m) for m in range(6)], mfgr_num),
            "p_brand": _pick(rng, text.ALL_BRANDS, n),
            "p_type": _pick(rng, text.ALL_TYPES, n),
            "p_size": rng.integers(1, 51, size=n),
            "p_container": _pick(rng, text.ALL_CONTAINERS, n),
            "p_retailprice": np.round(
                900.0 + (keys % 1000) / 10.0 + rng.uniform(0, 100, size=n), 2
            ),
            "p_comment": _comments(rng, n, words=2),
        },
    )


def _partsupp(scale_factor: float, seed: int) -> Table:
    n_parts = rows_at_scale("part", scale_factor)
    n_supp = rows_at_scale("supplier", scale_factor)
    rng = _rng(seed, "partsupp")
    # Four supplier rows per part, as in dbgen.
    partkeys = np.repeat(np.arange(1, n_parts + 1), 4)
    n = len(partkeys)
    offsets = np.tile(np.arange(4), n_parts)
    suppkeys = (partkeys + offsets * (n_supp // 4 + 1)) % n_supp + 1
    return Table.from_pydict(
        "partsupp",
        TABLE_SPECS["partsupp"],
        {
            "ps_partkey": partkeys,
            "ps_suppkey": suppkeys,
            "ps_availqty": rng.integers(1, 10_000, size=n),
            "ps_supplycost": np.round(rng.uniform(1.0, 1000.0, size=n), 2),
            "ps_comment": _comments(rng, n),
        },
    )


def _orders(scale_factor: float, seed: int) -> tuple[Table, np.ndarray]:
    n = rows_at_scale("orders", scale_factor)
    rng = _rng(seed, "orders")
    keys = np.arange(1, n + 1)
    dates = rng.integers(_MIN_ORDER_DATE, _MAX_ORDER_DATE + 1, size=n)
    table = Table.from_pydict(
        "orders",
        TABLE_SPECS["orders"],
        {
            "o_orderkey": keys,
            "o_custkey": rng.integers(
                1, rows_at_scale("customer", scale_factor) + 1, size=n
            ),
            "o_orderstatus": _pick(rng, ["F", "O", "P"], n),
            "o_totalprice": np.round(rng.uniform(1000.0, 400_000.0, size=n), 2),
            "o_orderdate": dates,
            "o_orderpriority": _pick(rng, text.PRIORITIES, n),
            "o_clerk": ([f"Clerk#{k:09d}" for k in range(1000)], keys % 1000),
            "o_shippriority": np.zeros(n, dtype=np.int64),
            "o_comment": _comments(rng, n),
        },
    )
    return table, dates


def _lineitem(scale_factor: float, seed: int, order_dates: np.ndarray) -> Table:
    rng = _rng(seed, "lineitem")
    n_orders = len(order_dates)
    n_parts = rows_at_scale("part", scale_factor)
    n_supp = rows_at_scale("supplier", scale_factor)
    lines_per_order = rng.integers(1, 8, size=n_orders)
    orderkeys = np.repeat(np.arange(1, n_orders + 1), lines_per_order)
    odates = np.repeat(order_dates, lines_per_order)
    n = len(orderkeys)
    linenumbers = np.concatenate([np.arange(1, c + 1) for c in lines_per_order])
    quantity = rng.integers(1, 51, size=n).astype(np.float64)
    price_per_unit = rng.uniform(900.0, 2000.0, size=n)
    shipdate = odates + rng.integers(1, 122, size=n)
    commitdate = odates + rng.integers(30, 91, size=n)
    receiptdate = shipdate + rng.integers(1, 31, size=n)
    return Table.from_pydict(
        "lineitem",
        TABLE_SPECS["lineitem"],
        {
            "l_orderkey": orderkeys,
            "l_partkey": rng.integers(1, n_parts + 1, size=n),
            "l_suppkey": rng.integers(1, n_supp + 1, size=n),
            "l_linenumber": linenumbers,
            "l_quantity": quantity,
            "l_extendedprice": np.round(quantity * price_per_unit, 2),
            "l_discount": np.round(rng.uniform(0.0, 0.10, size=n), 2),
            "l_tax": np.round(rng.uniform(0.0, 0.08, size=n), 2),
            "l_returnflag": _pick(rng, ["A", "N", "R"], n),
            "l_linestatus": _pick(rng, ["F", "O"], n),
            "l_shipdate": shipdate,
            "l_commitdate": commitdate,
            "l_receiptdate": receiptdate,
            "l_shipinstruct": _pick(rng, text.SHIP_INSTRUCTIONS, n),
            "l_shipmode": _pick(rng, text.SHIP_MODES, n),
            "l_comment": _comments(rng, n, 2),
        },
    )


def generate_tpch(
    scale_factor: float = 1.0,
    seed: int = 0,
    use_cache: bool = True,
    tables: tuple[str, ...] | None = None,
) -> Catalog:
    """Generate (or fetch a memoised) TPC-H catalog at ``scale_factor``.

    ``tables`` restricts generation to a subset (e.g. the Figure 14
    memory sweep only touches part/partsupp/supplier/nation/region and
    skips the expensive lineitem build).  ``orders`` is implied by
    ``lineitem``.
    """
    wanted = set(tables) if tables is not None else set(TABLE_SPECS)
    if "lineitem" in wanted:
        wanted.add("orders")
    key = (float(scale_factor), seed, tuple(sorted(wanted)))
    if use_cache and key in _CACHE:
        return _CACHE[key]
    built: list = []
    if "region" in wanted:
        built.append(_region())
    if "nation" in wanted:
        built.append(_nation())
    if "supplier" in wanted:
        built.append(_supplier(scale_factor, seed))
    if "customer" in wanted:
        built.append(_customer(scale_factor, seed))
    if "part" in wanted:
        built.append(_part(scale_factor, seed))
    if "partsupp" in wanted:
        built.append(_partsupp(scale_factor, seed))
    if "orders" in wanted:
        orders, order_dates = _orders(scale_factor, seed)
        built.append(orders)
        if "lineitem" in wanted:
            built.append(_lineitem(scale_factor, seed, order_dates))
    catalog = Catalog(built)
    if use_cache:
        _CACHE[key] = catalog
    return catalog


def clear_cache() -> None:
    """Drop memoised catalogs (tests that probe memory use call this)."""
    _CACHE.clear()

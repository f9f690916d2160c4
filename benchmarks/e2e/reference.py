"""Independent reference answers for the benchmark's three query families.

Hand-written numpy over the catalog's column arrays.  Nothing here
imports ``repro.sql``, ``repro.plan``, ``repro.core`` or
``repro.engine``: the only thing shared with the system under test is
the stored data (``Catalog.table(..).column(..)``), so a planner or
runtime bug cannot cancel out against itself.

The families are the ones the paper evaluates:

* **Q2 family** — TPC-H Q2 and the paper's line edits of it (Queries
  4-8): :class:`Q2Params` carries every edit as a parameter;
* **Q4** — ``EXISTS`` over lineitem, grouped by order priority;
* **Q17** — scalar ``avg`` subquery, also as the ``$1/$2`` template.
"""

from __future__ import annotations

import datetime
import math
from dataclasses import dataclass

import numpy as np

_EPOCH = datetime.date(1970, 1, 1).toordinal()


def _days(iso: str) -> int:
    return datetime.date.fromisoformat(iso).toordinal() - _EPOCH


def _data(catalog, table: str, column: str) -> np.ndarray:
    return catalog.table(table).column(column).data


def _strings(catalog, table: str, column: str) -> np.ndarray:
    """A string column decoded to an object array of Python strings."""
    col = catalog.table(table).column(column)
    return np.array(list(col.dictionary), dtype=object)[col.data]


def _positions(keys: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """Row position in ``keys`` (unique) of every value of ``wanted``."""
    order = np.argsort(keys, kind="stable")
    return order[np.searchsorted(keys[order], wanted)]


@dataclass(frozen=True)
class Q2Params:
    """The paper's line edits of TPC-H Q2, one field per edit."""

    size: int = 15
    type_suffix: str = "BRASS"
    brand: str | None = None             # paper Query 4 adds Brand#41
    container_suffix: str | None = None  # paper Query 6: '%BAG'
    region: str = "EUROPE"
    subq_operator: str = "="             # paper Query 5: '>'
    correlation_operator: str = "="      # paper Query 5: '!='
    inner_region_filter: bool = True     # paper Query 8: dropped


#: The six Q2-family statements of ``ALL_EVALUATION_QUERIES``.
PAPER_Q2_FAMILY = {
    "tpch_q2": Q2Params(),
    "paper_q4v": Q2Params(brand="Brand#41"),
    "paper_q5": Q2Params(
        brand="Brand#41", subq_operator=">", correlation_operator="!=",
    ),
    "paper_q6": Q2Params(brand="Brand#41", container_suffix="BAG", size=20),
    "paper_q7": Q2Params(),
    "paper_q8": Q2Params(brand="Brand#41", inner_region_filter=False),
}


def q2_family(catalog, params: Q2Params) -> list[tuple]:
    """Rows of a Q2-family statement, ordered and limited as the SQL is."""
    p_key = _data(catalog, "part", "p_partkey")
    p_type = _strings(catalog, "part", "p_type")
    part_ok = (_data(catalog, "part", "p_size") == params.size) & np.array(
        [t.endswith(params.type_suffix) for t in p_type], dtype=bool
    )
    if params.brand is not None:
        part_ok &= _strings(catalog, "part", "p_brand") == params.brand
    if params.container_suffix is not None:
        part_ok &= np.array(
            [c.endswith(params.container_suffix)
             for c in _strings(catalog, "part", "p_container")], dtype=bool,
        )

    # supplier -> nation -> region, resolved once per supplier row
    n_pos = _positions(
        _data(catalog, "nation", "n_nationkey"),
        _data(catalog, "supplier", "s_nationkey"),
    )
    r_pos = _positions(
        _data(catalog, "region", "r_regionkey"),
        _data(catalog, "nation", "n_regionkey")[n_pos],
    )
    supplier_in_region = (
        _strings(catalog, "region", "r_name")[r_pos] == params.region
    )

    ps_part = _data(catalog, "partsupp", "ps_partkey")
    ps_cost = _data(catalog, "partsupp", "ps_supplycost")
    ps_p = _positions(p_key, ps_part)
    ps_s = _positions(
        _data(catalog, "supplier", "s_suppkey"),
        _data(catalog, "partsupp", "ps_suppkey"),
    )
    outer = part_ok[ps_p] & supplier_in_region[ps_s]

    # the correlated subquery: min(ps_supplycost) per outer part
    inner = (
        supplier_in_region[ps_s] if params.inner_region_filter
        else np.ones(len(ps_part), dtype=bool)
    )
    per_part_min = np.full(len(p_key), np.inf)
    np.minimum.at(per_part_min, ps_p[inner], ps_cost[inner])
    if params.correlation_operator == "=":
        subquery = per_part_min[ps_p]
    elif params.correlation_operator == "!=":
        # min over every *other* part: the global minimum, except for
        # the part that owns it, which sees the runner-up
        best = int(np.argmin(per_part_min))
        runner_up = np.delete(per_part_min, best).min(initial=np.inf)
        subquery = np.where(ps_p == best, runner_up, per_part_min[best])
    else:
        raise ValueError(params.correlation_operator)
    if params.subq_operator == "=":
        keep = outer & (ps_cost == subquery)
    elif params.subq_operator == ">":
        keep = outer & (ps_cost > subquery)
    else:
        raise ValueError(params.subq_operator)

    rows_ps = np.flatnonzero(keep)
    sup = ps_s[rows_ps]
    par = ps_p[rows_ps]
    n_name = _strings(catalog, "nation", "n_name")[n_pos]
    columns = [
        _data(catalog, "supplier", "s_acctbal")[sup],
        _strings(catalog, "supplier", "s_name")[sup],
        n_name[sup],
        p_key[par],
        _strings(catalog, "part", "p_mfgr")[par],
        _strings(catalog, "supplier", "s_address")[sup],
        _strings(catalog, "supplier", "s_phone")[sup],
        _strings(catalog, "supplier", "s_comment")[sup],
    ]
    rows = [
        (float(a), str(b), str(c), int(d), str(e), str(f), str(g), str(h))
        for a, b, c, d, e, f, g, h in zip(*columns)
    ]
    rows.sort(key=lambda r: (-r[0], r[2], r[1], r[3]))
    return rows[:100]


def q4(catalog, date_from: str = "1993-07-01",
       date_to: str = "1993-10-01") -> list[tuple]:
    """TPC-H Q4: late-lineitem orders per priority in a date window."""
    late = (
        _data(catalog, "lineitem", "l_commitdate")
        < _data(catalog, "lineitem", "l_receiptdate")
    )
    late_orders = np.unique(_data(catalog, "lineitem", "l_orderkey")[late])
    o_date = _data(catalog, "orders", "o_orderdate")
    keep = (
        (o_date >= _days(date_from)) & (o_date < _days(date_to))
        & np.isin(_data(catalog, "orders", "o_orderkey"), late_orders)
    )
    priorities, counts = np.unique(
        _strings(catalog, "orders", "o_orderpriority")[keep],
        return_counts=True,
    )
    return [(str(p), float(c)) for p, c in zip(priorities, counts)]


class Q17:
    """TPC-H Q17 and its ``$1/$2`` template over one catalog.

    The per-part ``0.2 * avg(l_quantity)`` threshold does not depend on
    the parameters, so it is computed once and every (brand, container)
    pair costs one mask and one sum.
    """

    def __init__(self, catalog):
        self._brands, self._brand_of = np.unique(
            _strings(catalog, "part", "p_brand"), return_inverse=True
        )
        self._containers, self._container_of = np.unique(
            _strings(catalog, "part", "p_container"), return_inverse=True
        )
        self._brand_code = {str(b): i for i, b in enumerate(self._brands)}
        self._container_code = {
            str(c): i for i, c in enumerate(self._containers)
        }
        self._l_p = _positions(
            _data(catalog, "part", "p_partkey"),
            _data(catalog, "lineitem", "l_partkey"),
        )
        quantity = _data(catalog, "lineitem", "l_quantity")
        n_parts = len(self._brand_of)
        totals = np.bincount(self._l_p, weights=quantity, minlength=n_parts)
        counts = np.bincount(self._l_p, minlength=n_parts)
        with np.errstate(invalid="ignore", divide="ignore"):
            threshold = 0.2 * totals / counts
        self._below = quantity < threshold[self._l_p]
        self._price = _data(catalog, "lineitem", "l_extendedprice")

    def pairs(self) -> list[tuple[str, str]]:
        """Every (brand, container) pair some part carries, sorted."""
        seen = np.unique(
            np.stack([self._brand_of, self._container_of]), axis=1
        )
        return [
            (str(self._brands[b]), str(self._containers[c]))
            for b, c in seen.T
        ]

    def rows(self, brand: str = "Brand#23",
             container: str = "MED BOX") -> list[tuple]:
        """One row; NaN when no lineitem qualifies (sum over nothing)."""
        part_ok = (
            (self._brand_of == self._brand_code.get(brand, -1))
            & (self._container_of == self._container_code.get(container, -1))
        )
        keep = part_ok[self._l_p] & self._below
        if not keep.any():
            return [(math.nan,)]
        return [(float(self._price[keep].sum()) / 7.0,)]


def paper_query_rows(catalog) -> dict[str, list[tuple]]:
    """Reference rows for all eight ``ALL_EVALUATION_QUERIES`` names."""
    rows = {
        name: q2_family(catalog, params)
        for name, params in PAPER_Q2_FAMILY.items()
    }
    rows["tpch_q4"] = q4(catalog)
    rows["tpch_q17"] = Q17(catalog).rows()
    return rows

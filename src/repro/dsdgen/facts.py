"""Fact-table generators (vectorized, chunkable).

Sales facts are generated transaction-first: a basket (store ticket /
catalog order / web order) draws a zoned sales date, a customer context
and a set of items; every item line becomes one fact row ("each row in
the sales fact table represents the purchase of one item", §3.1).
Returns are derived from sales lines so the ticket/order + item
fact-to-fact relationship the paper highlights (§2.2) actually joins.

Pricing follows the dsdgen arithmetic chain: wholesale cost → list
price (markup) → sales price (discount) → extended amounts → tax,
coupon, net paid, net profit.

The generators are numpy kernels over batch draws with a *fixed number
of raw draws per unit* — the property that makes the kit's
``-parallel``/``-child`` contract possible.  Each channel uses five
streams with fixed per-unit draw counts:

========================  =======================  ================
stream                    unit                     draws per unit
========================  =======================  ================
``(T, "basket")``         ticket/order             1 (basket size)
``(T, "header")``         ticket/order             15 store / 30 catalog+web
``(T, "line")``           fact line                10 store / 12 catalog+web
``(T, "retdec")``         fact line                1 (return decision)
``(T, "retbody")``        accepted return          7
``("inventory","body")``  inventory row            2
========================  =======================  ================

A worker generating tickets ``[t0, t1)`` positions each stream with an
O(log n) :meth:`~repro.dsdgen.rng.RandomStream.jump` to its absolute
offset (``15*t0`` for the store header, ``10*line_start[t0]`` for
lines, ...) and produces exactly the rows the serial generator would —
chunks concatenate to the byte-identical serial result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..schema import ALL_TABLES
from .columnar import ColumnarTable
from .context import GeneratorContext
from .rng import RandomStream, ints_from_raw, uniforms_from_raw

#: average basket size ~10.5 items (§3.1: "on average each shopping
#: cart contains 10.5 items") — uniform 1..20
_BASKET_MIN, _BASKET_MAX = 1, 20

#: returns table per sales channel
RETURNS_OF = {
    "store_sales": "store_returns",
    "catalog_sales": "catalog_returns",
    "web_sales": "web_returns",
}

#: fixed draw counts per unit (the jump-ahead contract)
HEADER_DRAWS = {"store_sales": 15, "catalog_sales": 30, "web_sales": 30}
LINE_DRAWS = {"store_sales": 10, "catalog_sales": 12, "web_sales": 12}
RETURN_DRAWS = 7
INVENTORY_ROW_DRAWS = 2

#: (fk table, null fraction) pairs drawn in the store ticket header,
#: two raws each (null decision, value), after the 3 date draws
_STORE_HEADER_FKS = (
    ("time_dim", 0.02),
    ("customer", 0.03),
    ("customer_demographics", 0.03),
    ("household_demographics", 0.03),
    ("customer_address", 0.03),
    ("store", 0.02),
)

#: the billing/shipping customer-context block of catalog/web orders
_CUSTOMER_BLOCK = (
    ("customer", 0.02),
    ("customer_demographics", 0.02),
    ("household_demographics", 0.02),
    ("customer_address", 0.02),
)

_CHANNEL_FKS = {
    "catalog_sales": (("call_center", 0.02), ("catalog_page", 0.02)),
    "web_sales": (("web_page", 0.02), ("web_site", 0.02)),
}


def _r2(a: np.ndarray) -> np.ndarray:
    """Round-half-even to cents, the dsdgen money rounding."""
    return np.round(a, 2)


# ---------------------------------------------------------------------------
# scalar pricing helpers (kept for the maintenance/refresh row generators)
# ---------------------------------------------------------------------------


@dataclass
class Pricing:
    quantity: int
    wholesale_cost: float
    list_price: float
    sales_price: float
    ext_discount_amt: float
    ext_sales_price: float
    ext_wholesale_cost: float
    ext_list_price: float
    ext_tax: float
    coupon_amt: float
    net_paid: float
    net_paid_inc_tax: float
    net_profit: float


def make_pricing(rng: RandomStream) -> Pricing:
    """One fact line's pricing chain (dsdgen arithmetic)."""
    quantity = rng.uniform_int(1, 100)
    wholesale = round(1 + rng.uniform() * 99, 2)
    list_price = round(wholesale * (1 + rng.uniform()), 2)
    discount = round(rng.uniform() * 0.5, 2)
    sales_price = round(list_price * (1 - discount), 2)
    ext_list = round(list_price * quantity, 2)
    ext_sales = round(sales_price * quantity, 2)
    ext_wholesale = round(wholesale * quantity, 2)
    ext_discount = round(ext_list - ext_sales, 2)
    tax_rate = rng.uniform_int(0, 9) / 100.0
    coupon = round(ext_sales * rng.uniform() * 0.1, 2) if rng.uniform() < 0.2 else 0.0
    net_paid = round(ext_sales - coupon, 2)
    ext_tax = round(net_paid * tax_rate, 2)
    return Pricing(
        quantity=quantity,
        wholesale_cost=wholesale,
        list_price=list_price,
        sales_price=sales_price,
        ext_discount_amt=ext_discount,
        ext_sales_price=ext_sales,
        ext_wholesale_cost=ext_wholesale,
        ext_list_price=ext_list,
        ext_tax=ext_tax,
        coupon_amt=coupon,
        net_paid=net_paid,
        net_paid_inc_tax=round(net_paid + ext_tax, 2),
        net_profit=round(net_paid - ext_wholesale, 2),
    )


# ---------------------------------------------------------------------------
# vectorized pricing kernels
# ---------------------------------------------------------------------------


def _pricing_from_raw(raw: np.ndarray) -> dict[str, np.ndarray]:
    """The pricing chain over a ``(n, 7)`` raw block.

    Column layout (the scalar draw order of :func:`make_pricing`, with
    the coupon fraction always drawn so the count stays fixed):
    ``[quantity, wholesale_u, list_u, discount_u, tax_raw, coupon_flag_u,
    coupon_u]``.
    """
    quantity = ints_from_raw(raw[:, 0], 1, 100)
    wholesale = _r2(1 + uniforms_from_raw(raw[:, 1]) * 99)
    list_price = _r2(wholesale * (1 + uniforms_from_raw(raw[:, 2])))
    discount = _r2(uniforms_from_raw(raw[:, 3]) * 0.5)
    sales_price = _r2(list_price * (1 - discount))
    ext_list = _r2(list_price * quantity)
    ext_sales = _r2(sales_price * quantity)
    ext_wholesale = _r2(wholesale * quantity)
    ext_discount = _r2(ext_list - ext_sales)
    tax_rate = ints_from_raw(raw[:, 4], 0, 9) / 100.0
    has_coupon = uniforms_from_raw(raw[:, 5]) < 0.2
    coupon = np.where(
        has_coupon, _r2(ext_sales * uniforms_from_raw(raw[:, 6]) * 0.1), 0.0
    )
    net_paid = _r2(ext_sales - coupon)
    ext_tax = _r2(net_paid * tax_rate)
    return {
        "quantity": quantity,
        "wholesale_cost": wholesale,
        "list_price": list_price,
        "sales_price": sales_price,
        "ext_discount_amt": ext_discount,
        "ext_sales_price": ext_sales,
        "ext_wholesale_cost": ext_wholesale,
        "ext_list_price": ext_list,
        "ext_tax": ext_tax,
        "coupon_amt": coupon,
        "net_paid": net_paid,
        "net_paid_inc_tax": _r2(net_paid + ext_tax),
        "net_profit": _r2(net_paid - ext_wholesale),
    }


def _return_pricing_from_raw(
    raw: np.ndarray, sold: dict[str, np.ndarray], taken: np.ndarray
) -> dict[str, np.ndarray]:
    """Return pricing over a ``(n, 3)`` raw block ``[quantity, fee_u,
    refunded_u]`` against the taken sales lines' pricing columns."""
    sold_qty = sold["quantity"][taken]
    quantity = 1 + (raw[:, 0] % sold_qty.astype(np.uint64)).astype(np.int64)
    fraction = quantity / sold_qty
    amount = _r2(sold["net_paid"][taken] * fraction)
    tax = _r2(sold["ext_tax"][taken] * fraction)
    fee = _r2(1 + uniforms_from_raw(raw[:, 1]) * 99)
    ship = _r2(sold["ext_wholesale_cost"][taken] * fraction * 0.5)
    refunded = _r2(amount * uniforms_from_raw(raw[:, 2]))
    reversed_charge = _r2(amount - refunded)
    return {
        "quantity": quantity,
        "amount": amount,
        "tax": tax,
        "amount_inc_tax": _r2(amount + tax),
        "fee": fee,
        "ship": ship,
        "refunded": refunded,
        "reversed": reversed_charge,
        "credit": np.zeros(len(raw)),
        "net_loss": _r2(ship + fee + tax + reversed_charge * 0.1),
    }


# ---------------------------------------------------------------------------
# channel planning (deterministic, cheap — recomputed by every worker)
# ---------------------------------------------------------------------------


@dataclass
class ChannelPlan:
    """The ticket/line layout of one sales channel: how many lines each
    ticket has, and which lines become returns.  Derived from the
    ``basket`` and ``retdec`` streams only, so every worker recomputes
    it identically in milliseconds."""

    table: str
    target_sales: int
    target_returns: int
    return_prob: float
    #: lines per ticket; truncated so it sums to exactly target_sales
    basket: np.ndarray
    #: exclusive prefix sum of basket, length num_tickets + 1
    line_start: np.ndarray
    #: per-line return-take mask (decision capped at target_returns)
    take: np.ndarray

    @property
    def num_tickets(self) -> int:
        return len(self.basket)

    def ticket_range(self, chunk: int, n_chunks: int) -> tuple[int, int]:
        """Ticket bounds of one chunk, balanced by *line* count so fact
        rows split evenly regardless of basket-size variance."""
        total = int(self.line_start[-1])
        lo = int(np.searchsorted(self.line_start, total * chunk // n_chunks))
        hi = int(np.searchsorted(self.line_start, total * (chunk + 1) // n_chunks))
        return lo, hi


def plan_channel(ctx: GeneratorContext, table: str) -> ChannelPlan:
    """Draw the channel's basket sizes and return decisions up front.

    The plan fixes every ticket's line count and which lines return, so
    any chunk of the remaining (fixed-draws-per-unit) streams can be
    generated independently by jump-ahead.  Deterministic for a given
    context: workers rebuild the identical plan from (scale, seed)."""
    target_sales = ctx.rows(table)
    target_returns = ctx.rows(RETURNS_OF[table])
    return_prob = min(1.0, target_returns / max(target_sales, 1))
    rng = ctx.streams.fresh(table, "basket")
    drawn: list[np.ndarray] = []
    total = 0
    while total < target_sales:
        # expected basket ~10.5; overshoot slightly rather than loop
        k = max(64, (target_sales - total) // 8)
        block = rng.uniform_int_batch(_BASKET_MIN, _BASKET_MAX, k)
        drawn.append(block)
        total += int(block.sum())
    basket = np.concatenate(drawn) if drawn else np.zeros(0, dtype=np.int64)
    cum = np.cumsum(basket)
    num_tickets = int(np.searchsorted(cum, target_sales)) + 1 if target_sales else 0
    basket = basket[:num_tickets].copy()
    if num_tickets:
        basket[-1] -= int(cum[num_tickets - 1]) - target_sales
    line_start = np.zeros(num_tickets + 1, dtype=np.int64)
    np.cumsum(basket, out=line_start[1:])
    decided = ctx.streams.fresh(table, "retdec").uniform_batch(target_sales)
    decided = decided < return_prob
    take = decided & (np.cumsum(decided) <= target_returns)
    return ChannelPlan(
        table=table,
        target_sales=target_sales,
        target_returns=target_returns,
        return_prob=return_prob,
        basket=basket,
        line_start=line_start,
        take=take,
    )


def _dedupe_items(items: np.ndarray, ticket_of: np.ndarray, pool: int) -> np.ndarray:
    """Make item keys distinct within each ticket — order lines are
    distinct per (ticket/order, item), which the sales-to-returns join
    relies on.  Duplicates are repaired with the same linear probe the
    scalar generator used (``item % pool + 1``), applied in line order,
    so the result is independent of how lines are chunked."""
    if pool <= 1 or len(items) == 0:
        return items
    key = ticket_of * np.int64(pool + 1) + items
    uniq, counts = np.unique(key, return_counts=True)
    if not (counts > 1).any():
        return items
    dup_tickets = np.unique(uniq[counts > 1] // np.int64(pool + 1))
    items = items.copy()
    starts = np.searchsorted(ticket_of, dup_tickets, side="left")
    ends = np.searchsorted(ticket_of, dup_tickets, side="right")
    for s, e in zip(starts, ends):
        seen: set[int] = set()
        for i in range(s, e):
            item = int(items[i])
            while item in seen and len(seen) < pool:
                item = item % pool + 1  # linear probe; pool >> basket size
            seen.add(item)
            items[i] = item
    return items


def _expand(arrays, rep):
    """Repeat per-ticket (value, null) pairs out to per-line arrays."""
    out = []
    for value, null in arrays:
        out.append((np.repeat(value, rep), None if null is None else np.repeat(null, rep)))
    return out


def _fill(table: ColumnarTable, arrays) -> ColumnarTable:
    for col, (value, null) in zip(table.schema.columns, arrays):
        table.set(col.name, value, null)
    return table.finish()


# ---------------------------------------------------------------------------
# channel kernels
# ---------------------------------------------------------------------------


def generate_channel_chunk(
    ctx: GeneratorContext,
    table: str,
    chunk: int = 0,
    n_chunks: int = 1,
    plan: ChannelPlan | None = None,
) -> tuple[ColumnarTable, ColumnarTable]:
    """Generate chunk ``chunk`` of ``n_chunks`` for one sales channel;
    returns ``(sales, returns)`` columnar tables.  Concatenating all
    chunks in order is byte-identical to ``n_chunks=1``."""
    if plan is None:
        plan = plan_channel(ctx, table)
    t0, t1 = plan.ticket_range(chunk, n_chunks)
    if table == "store_sales":
        return _store_chunk(ctx, plan, t0, t1)
    return _catalog_like_chunk(ctx, plan, t0, t1)


def _header_block(ctx, raw, start, fk_spec):
    """Decode consecutive (null_u, value) fk pairs from a header block."""
    out = []
    col = start
    for fk_table, null_fraction in fk_spec:
        out.append(ctx.fk_from_raw(fk_table, raw[:, col], raw[:, col + 1], null_fraction))
        col += 2
    return out


def _return_block(ctx, plan, t0, t1, date_line, line_cols, p):
    """The shared returns kernel: which lines in [l0, l1) are returned,
    positioned on the retbody stream at 7 draws per *global* return."""
    l0, l1 = int(plan.line_start[t0]), int(plan.line_start[t1])
    taken = plan.take[l0:l1]
    n_ret = int(np.count_nonzero(taken))
    taken_before = int(np.count_nonzero(plan.take[:l0]))
    rng = ctx.streams.fresh(plan.table, "retbody")
    raw = rng.jump(RETURN_DRAWS * taken_before).raw_batch(RETURN_DRAWS * n_ret)
    raw = raw.reshape(n_ret, RETURN_DRAWS)
    # layout: [date_off, time_null_u, time_value, reason, qty, fee_u, refund_u]
    ret_date = ctx.clamp_date_sk_batch(date_line[taken] + ints_from_raw(raw[:, 0], 1, 90))
    ret_time, ret_time_null = ctx.fk_from_raw("time_dim", raw[:, 1], raw[:, 2], 0.02)
    reason, reason_null = ctx.fk_from_raw("reason", None, raw[:, 3], 0.0)
    rp = _return_pricing_from_raw(raw[:, 4:7], p, taken)
    head = [(ret_date, None), (ret_time, ret_time_null)]
    mid = [(value[taken], None if null is None else null[taken]) for value, null in line_cols]
    tail = [(reason, reason_null)] + [
        (rp[k], None)
        for k in (
            "quantity", "amount", "tax", "amount_inc_tax", "fee",
            "ship", "refunded", "reversed", "credit", "net_loss",
        )
    ]
    return head, mid, tail


def _store_chunk(ctx, plan, t0, t1):
    nt = t1 - t0
    basket = plan.basket[t0:t1]
    l0, l1 = int(plan.line_start[t0]), int(plan.line_start[t1])
    nl = l1 - l0
    header = ctx.streams.fresh("store_sales", "header")
    raw_h = header.jump(15 * t0).raw_batch(15 * nt).reshape(nt, 15)
    date_t = ctx.sales_date_sks_from_raw(raw_h[:, 0], raw_h[:, 1], raw_h[:, 2])
    fks_t = _header_block(ctx, raw_h, 3, _STORE_HEADER_FKS)

    ticket_of = np.repeat(np.arange(nt, dtype=np.int64), basket)
    ticket_no = t0 + 1 + ticket_of
    (date_l, _), *fks_l = _expand([(date_t, None)] + fks_t, basket)
    time_l, cust_l, cdemo_l, hdemo_l, addr_l, store_l = fks_l

    line = ctx.streams.fresh("store_sales", "line")
    raw_l = line.jump(10 * l0).raw_batch(10 * nl).reshape(nl, 10)
    # layout: [item, promo_null_u, promo_value, pricing x7]
    pool = max(ctx.key_pools.get("item", 1), 1)
    item = _dedupe_items(ints_from_raw(raw_l[:, 0], 1, pool), ticket_of, pool)
    promo, promo_null = ctx.fk_from_raw("promotion", raw_l[:, 1], raw_l[:, 2], 0.3)
    p = _pricing_from_raw(raw_l[:, 3:10])

    sales = _fill(
        ColumnarTable(ALL_TABLES["store_sales"]),
        [(date_l, None), time_l, (item, None), cust_l, cdemo_l, hdemo_l,
         addr_l, store_l, (promo, promo_null), (ticket_no, None)]
        + [(p[k], None) for k in (
            "quantity", "wholesale_cost", "list_price", "sales_price",
            "ext_discount_amt", "ext_sales_price", "ext_wholesale_cost",
            "ext_list_price", "ext_tax", "coupon_amt", "net_paid",
            "net_paid_inc_tax", "net_profit",
        )],
    )

    line_cols = [(item, None), cust_l, cdemo_l, hdemo_l, addr_l, store_l, (ticket_no, None)]
    head, mid, tail = _return_block(ctx, plan, t0, t1, date_l, line_cols, p)
    item_r, cust_r, cdemo_r, hdemo_r, addr_r, store_r, ticket_r = mid
    returns = _fill(
        ColumnarTable(ALL_TABLES["store_returns"]),
        head + [item_r, cust_r, cdemo_r, hdemo_r, addr_r, store_r, tail[0], ticket_r]
        + tail[1:],
    )
    return sales, returns


def _catalog_like_chunk(ctx, plan, t0, t1):
    table = plan.table
    nt = t1 - t0
    basket = plan.basket[t0:t1]
    l0, l1 = int(plan.line_start[t0]), int(plan.line_start[t1])
    nl = l1 - l0
    header = ctx.streams.fresh(table, "header")
    raw_h = header.jump(30 * t0).raw_batch(30 * nt).reshape(nt, 30)
    # layout: [date x3, time x2, bill block x8, ship_decision_u,
    #          ship block x8, channel fk1 x2, channel fk2 x2,
    #          ship_mode x2, warehouse x2]
    date_t = ctx.sales_date_sks_from_raw(raw_h[:, 0], raw_h[:, 1], raw_h[:, 2])
    (time_t,) = _header_block(ctx, raw_h, 3, (("time_dim", 0.02),))
    bill_t = _header_block(ctx, raw_h, 5, _CUSTOMER_BLOCK)
    alt_t = _header_block(ctx, raw_h, 14, _CUSTOMER_BLOCK)
    # ~85% of orders ship to the billing customer
    use_bill = (uniforms_from_raw(raw_h[:, 13]) < 0.85) & ~_null_of(bill_t[0], nt)
    ship_t = [
        (
            np.where(use_bill, bv, av),
            np.where(use_bill, _null_of((bv, bn), nt), _null_of((av, an), nt)),
        )
        for (bv, bn), (av, an) in zip(bill_t, alt_t)
    ]
    chan_t = _header_block(ctx, raw_h, 22, _CHANNEL_FKS[table])
    (mode_t, wh_t) = _header_block(ctx, raw_h, 26, (("ship_mode", 0.02), ("warehouse", 0.02)))

    ticket_of = np.repeat(np.arange(nt, dtype=np.int64), basket)
    order_no = t0 + 1 + ticket_of
    per_ticket = [(date_t, None), time_t] + bill_t + ship_t + chan_t + [mode_t, wh_t]
    expanded = _expand(per_ticket, basket)
    (date_l, _), time_l = expanded[0], expanded[1]
    bill_l, ship_l = expanded[2:6], expanded[6:10]
    chan_l, mode_l, wh_l = expanded[10:12], expanded[12], expanded[13]

    line = ctx.streams.fresh(table, "line")
    raw_l = line.jump(12 * l0).raw_batch(12 * nl).reshape(nl, 12)
    # layout: [item, promo_null_u, promo_value, ship_date_off,
    #          pricing x7, ship_cost_u]
    pool = max(ctx.key_pools.get("item", 1), 1)
    item = _dedupe_items(ints_from_raw(raw_l[:, 0], 1, pool), ticket_of, pool)
    promo, promo_null = ctx.fk_from_raw("promotion", raw_l[:, 1], raw_l[:, 2], 0.3)
    ship_date = ctx.clamp_date_sk_batch(date_l + ints_from_raw(raw_l[:, 3], 2, 120))
    p = _pricing_from_raw(raw_l[:, 4:11])
    ship_cost = _r2(p["ext_wholesale_cost"] * uniforms_from_raw(raw_l[:, 11]) * 0.5)

    pricing_cols = (
        [(p[k], None) for k in (
            "quantity", "wholesale_cost", "list_price", "sales_price",
            "ext_discount_amt", "ext_sales_price", "ext_wholesale_cost",
            "ext_list_price", "ext_tax", "coupon_amt",
        )]
        + [(ship_cost, None)]
        + [(p[k], None) for k in ("net_paid", "net_paid_inc_tax")]
        + [
            (_r2(p["net_paid"] + ship_cost), None),
            (_r2(p["net_paid_inc_tax"] + ship_cost), None),
            (p["net_profit"], None),
        ]
    )
    if table == "catalog_sales":
        sales_cols = (
            [(date_l, None), time_l, (ship_date, None)]
            + bill_l + ship_l + chan_l + [mode_l, wh_l]
            + [(item, None), (promo, promo_null), (order_no, None)]
            + pricing_cols
        )
        ret_schema = "catalog_returns"
    else:
        sales_cols = (
            [(date_l, None), time_l, (ship_date, None), (item, None)]
            + bill_l + ship_l + chan_l + [mode_l, wh_l]
            + [(promo, promo_null), (order_no, None)]
            + pricing_cols
        )
        ret_schema = "web_returns"
    sales = _fill(ColumnarTable(ALL_TABLES[table]), sales_cols)

    if table == "catalog_sales":
        line_cols = [(item, None)] + bill_l + ship_l + chan_l + [mode_l, wh_l, (order_no, None)]
    else:
        line_cols = [(item, None)] + bill_l + ship_l + [chan_l[0], (order_no, None)]
    head, mid, tail = _return_block(ctx, plan, t0, t1, date_l, line_cols, p)
    returns = _fill(
        ColumnarTable(ALL_TABLES[ret_schema]),
        head + mid[:-1] + [tail[0], mid[-1]] + tail[1:],
    )
    return sales, returns


def _null_of(pair, n):
    value, null = pair
    return np.zeros(n, dtype=bool) if null is None else null


# ---------------------------------------------------------------------------
# inventory
# ---------------------------------------------------------------------------


@dataclass
class InventoryPlan:
    """Weekly warehouse inventory snapshot layout: snapshot weeks × an
    item stride × warehouses, capped at the row budget.  Row ``r`` maps
    to (week, item slot, warehouse) by pure arithmetic, so any row range
    can be generated independently."""

    total: int
    n_weeks: int
    items_per_week: int
    n_warehouses: int
    stride: int


def plan_inventory(ctx: GeneratorContext) -> InventoryPlan:
    """Lay out the inventory cross-join (week x item x warehouse) so any
    row range can be generated independently by stream jump-ahead."""
    target = ctx.rows("inventory")
    n_items = max(ctx.key_pools.get("item", 1), 1)
    n_wh = max(ctx.key_pools.get("warehouse", 1), 1)
    n_days = ctx.rows("date_dim")
    n_weeks = max(1, min(n_days // 7, 52))
    per_week = max(1, target // (n_weeks * n_wh))
    stride = max(1, n_items // per_week)
    items_per_week = (n_items + stride - 1) // stride
    total = min(target, n_weeks * items_per_week * n_wh)
    return InventoryPlan(total, n_weeks, items_per_week, n_wh, stride)


def generate_inventory_chunk(
    ctx: GeneratorContext,
    chunk: int = 0,
    n_chunks: int = 1,
    plan: InventoryPlan | None = None,
) -> ColumnarTable:
    """Generate one row-range chunk of the inventory snapshot table."""
    if plan is None:
        plan = plan_inventory(ctx)
    r0 = plan.total * chunk // n_chunks
    r1 = plan.total * (chunk + 1) // n_chunks
    rows = np.arange(r0, r1, dtype=np.int64)
    per_week = plan.items_per_week * plan.n_warehouses
    week = rows // per_week
    slot = (rows % per_week) // plan.n_warehouses
    warehouse = rows % plan.n_warehouses + 1
    item = 1 + slot * plan.stride
    n_days = ctx.rows("date_dim")
    date_sk = ctx.calendar.sk_at(0) + np.minimum(week * 7, n_days - 1)
    rng = ctx.streams.fresh("inventory", "body")
    raw = rng.jump(2 * int(r0)).raw_batch(2 * len(rows)).reshape(len(rows), 2)
    # layout: [quantity, null_u] — matching the scalar
    # maybe_null(uniform_int(0, 1000), 0.02) draw order
    quantity = ints_from_raw(raw[:, 0], 0, 1000)
    null = uniforms_from_raw(raw[:, 1]) < 0.02
    out = ColumnarTable(ALL_TABLES["inventory"])
    out.set("inv_date_sk", date_sk)
    out.set("inv_item_sk", item)
    out.set("inv_warehouse_sk", warehouse)
    out.set("inv_quantity_on_hand", quantity, null)
    return out.finish()


# ---------------------------------------------------------------------------
# whole-table wrappers (serial path and row-oriented compatibility)
# ---------------------------------------------------------------------------


def generate_channel(
    ctx: GeneratorContext, table: str
) -> tuple[ColumnarTable, ColumnarTable]:
    """One sales channel, whole-table (the single-chunk case)."""
    return generate_channel_chunk(ctx, table, 0, 1)


def generate_inventory(ctx: GeneratorContext) -> ColumnarTable:
    """The whole inventory snapshot table (the single-chunk case)."""
    return generate_inventory_chunk(ctx, 0, 1)


def gen_store_sales(ctx: GeneratorContext) -> tuple[list[tuple], list[tuple]]:
    """Returns (store_sales rows, store_returns rows)."""
    sales, returns = generate_channel(ctx, "store_sales")
    return sales.to_rows(), returns.to_rows()


def gen_catalog_sales(ctx: GeneratorContext) -> tuple[list[tuple], list[tuple]]:
    """Catalog channel: (catalog_sales rows, catalog_returns rows)."""
    sales, returns = generate_channel(ctx, "catalog_sales")
    return sales.to_rows(), returns.to_rows()


def gen_web_sales(ctx: GeneratorContext) -> tuple[list[tuple], list[tuple]]:
    """Web channel: (web_sales rows, web_returns rows)."""
    sales, returns = generate_channel(ctx, "web_sales")
    return sales.to_rows(), returns.to_rows()


def gen_inventory(ctx: GeneratorContext) -> list[tuple]:
    """Weekly warehouse inventory snapshots (shared by the catalog and
    web channels)."""
    return generate_inventory(ctx).to_rows()

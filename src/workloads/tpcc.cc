#include "workloads/tpcc.hh"

#include "sim/logging.hh"

namespace starnuma
{
namespace workloads
{

Tpcc::Tpcc(std::uint64_t rng_seed, int n_warehouses,
           int districts_per_wh, int customers_per_district,
           int n_items)
    : seed(rng_seed), warehouses(n_warehouses),
      districts(districts_per_wh),
      customers(customers_per_district), items(n_items)
{
}

int
Tpcc::homeWarehouse(ThreadId t) const
{
    return static_cast<int>(t) % warehouses;
}

void
Tpcc::setup(trace::CaptureContext &ctx, const SimScale &scale)
{
    threads = scale.threads();
    threadRng.clear();
    for (int t = 0; t < threads; ++t)
        threadRng.emplace_back(seed + 77 + t);

    std::size_t n_dist =
        static_cast<std::size_t>(warehouses) * districts;
    std::size_t n_cust = n_dist * customers;
    std::size_t n_stock =
        static_cast<std::size_t>(warehouses) * items;

    whTable = ctx.alloc(static_cast<Addr>(warehouses) * pageBytes);
    distTable = ctx.alloc(static_cast<Addr>(warehouses) * pageBytes);
    custTable = ctx.alloc(n_cust * custRowBytes);
    stockTable = ctx.alloc(n_stock * rowBytes);
    itemTable = ctx.alloc(items * rowBytes);
    orderLines = ctx.alloc(n_dist * olRingPerDistrict * rowBytes);

    whYtd.assign(warehouses, 0.0);
    distNextOrder.assign(n_dist, 1);
    custBalance.assign(n_cust, -10.0);
    stockQty.assign(n_stock, 100);
    olCursor.assign(n_dist, 0);

    // Partitioned load: each thread populates its home warehouse's
    // rows (the standard NUMA-friendly loading pattern). Warehouse
    // and district rows are padded onto per-warehouse pages, like
    // Silo's per-partition heaps — without this every warehouse row
    // shares one page and the partitioned tables degrade into
    // artificial vagabonds. The read-only item catalog is loaded
    // once, by a middle thread.
    for (int t = 0; t < threads; ++t) {
        int wh = homeWarehouse(t);
        if (t >= warehouses)
            continue; // one loader per warehouse
        ctx.store(t, whTable + wh * pageBytes);
        for (int d = 0; d < districts; ++d) {
            std::size_t did =
                static_cast<std::size_t>(wh) * districts + d;
            ctx.store(t, distTable + wh * pageBytes + d * rowBytes);
            for (int c = 0; c < customers; ++c)
                ctx.store(t, custTable +
                                 (did * customers + c) * custRowBytes);
            for (std::size_t ol = 0; ol < olRingPerDistrict; ++ol)
                ctx.store(t, orderLines +
                                 (did * olRingPerDistrict + ol) *
                                     rowBytes);
        }
        for (int i = 0; i < items; ++i)
            ctx.store(t, stockTable +
                             (static_cast<std::size_t>(wh) * items + i) *
                                 rowBytes);
    }
    ThreadId loader = threads / 2;
    for (int i = 0; i < items; ++i)
        ctx.store(loader, itemTable + i * rowBytes);
}

void
Tpcc::newOrder(ThreadId t, trace::CaptureContext &ctx)
{
    Rng &rng = threadRng[t];
    int wh = homeWarehouse(t);
    int d = static_cast<int>(rng.range32(districts));
    std::size_t did = static_cast<std::size_t>(wh) * districts + d;

    // Read warehouse tax, read+write district next-order id.
    ctx.load(t, whTable + wh * pageBytes);
    Addr dist_row = distTable + wh * pageBytes + d * rowBytes;
    ctx.load(t, dist_row);
    std::uint32_t o_id = distNextOrder[did]++;
    ctx.store(t, dist_row);

    // Read the ordering customer.
    std::size_t cid = did * customers + rng.range32(customers);
    ctx.load(t, custTable + cid * custRowBytes);
    ctx.instr(t, 24);

    int lines = 5 + static_cast<int>(rng.range32(11)); // 5..15
    for (int l = 0; l < lines; ++l) {
        // Popular-item skew: a small fraction of the catalog takes
        // most order lines (NURand-flavored).
        std::uint32_t item = rng.skewed(items, 2.0);
        ctx.load(t, itemTable + item * rowBytes);

        // TPC-C: 1% of order lines come from a remote warehouse.
        int supply_wh = wh;
        if (warehouses > 1 && rng.chance(0.01)) {
            supply_wh = static_cast<int>(rng.range32(warehouses - 1));
            if (supply_wh >= wh)
                ++supply_wh;
        }
        std::size_t sid =
            static_cast<std::size_t>(supply_wh) * items + item;
        ctx.load(t, stockTable + sid * rowBytes);
        stockQty[sid] -= 1 + static_cast<int>(rng.range32(10));
        if (stockQty[sid] < 10)
            stockQty[sid] += 91;
        ctx.store(t, stockTable + sid * rowBytes);

        // Append the order line into the district's ring.
        std::size_t slot = did * olRingPerDistrict +
                           (olCursor[did]++ % olRingPerDistrict);
        ctx.store(t, orderLines + slot * rowBytes);
        ctx.instr(t, 18);
    }
    (void)o_id;
    ++newOrders;
}

void
Tpcc::payment(ThreadId t, trace::CaptureContext &ctx)
{
    Rng &rng = threadRng[t];
    int wh = homeWarehouse(t);

    // TPC-C: 15% of payments are for a remote warehouse customer.
    int cust_wh = wh;
    if (warehouses > 1 && rng.chance(0.15)) {
        cust_wh = static_cast<int>(rng.range32(warehouses - 1));
        if (cust_wh >= wh)
            ++cust_wh;
    }
    int d = static_cast<int>(rng.range32(districts));
    std::size_t home_did =
        static_cast<std::size_t>(wh) * districts + d;
    std::size_t cust_did =
        static_cast<std::size_t>(cust_wh) * districts + d;
    std::size_t cid = cust_did * customers + rng.range32(customers);

    double amount = 1.0 + rng.uniform() * 4999.0;

    // Update home warehouse and district YTD (hot per-warehouse
    // rows), then the customer's balance (possibly remote).
    ctx.load(t, whTable + wh * rowBytes);
    whYtd[wh] += amount;
    ctx.store(t, whTable + wh * pageBytes);
    ctx.load(t, distTable + home_did * rowBytes);
    ctx.store(t, distTable + home_did * rowBytes);
    ctx.load(t, custTable + cid * custRowBytes);
    custBalance[cid] -= amount;
    ctx.store(t, custTable + cid * custRowBytes);
    ctx.instr(t, 30);
    ++payments;
}

void
Tpcc::step(ThreadId t, trace::CaptureContext &ctx)
{
    if (threadRng[t].chance(0.5))
        newOrder(t, ctx);
    else
        payment(t, ctx);
}

} // namespace workloads
} // namespace starnuma

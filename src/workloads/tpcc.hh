/**
 * @file
 * Transaction-processing workload: an in-memory TPC-C subset
 * standing in for Silo/tpcc-runner with 64 warehouses (§IV-E).
 * NewOrder and Payment transactions run against warehouse,
 * district, customer, stock, item, and order-line tables. Each
 * thread owns a home warehouse; the TPC-C-specified remote touches
 * (1% remote stock per order line, 15% remote Payment customers)
 * plus the read-only shared item table produce the partially
 * partitionable pattern behind TPCC's Table IV row.
 */

#ifndef STARNUMA_WORKLOADS_TPCC_HH
#define STARNUMA_WORKLOADS_TPCC_HH

#include <cstdint>
#include <vector>

#include "sim/rng.hh"
#include "workloads/workload.hh"

namespace starnuma
{
namespace workloads
{

/** Simplified TPC-C (NewOrder + Payment) over traced tables. */
class Tpcc : public Workload
{
  public:
    explicit Tpcc(std::uint64_t rng_seed, int n_warehouses = 64,
                  int districts_per_wh = 10,
                  int customers_per_district = 200,
                  int n_items = 5000);

    std::string name() const override { return "tpcc"; }
    void setup(trace::CaptureContext &ctx,
               const SimScale &scale) override;
    void step(ThreadId t, trace::CaptureContext &ctx) override;

    std::uint64_t committedNewOrders() const { return newOrders; }
    std::uint64_t committedPayments() const { return payments; }

    /** Warehouse YTD total (consistency check for tests). */
    double warehouseYtd(int wh) const { return whYtd[wh]; }

  private:
    void newOrder(ThreadId t, trace::CaptureContext &ctx);
    void payment(ThreadId t, trace::CaptureContext &ctx);

    int homeWarehouse(ThreadId t) const;

    std::uint64_t seed;
    int warehouses;
    int districts;
    int customers;
    int items;
    int threads = 0;

    // Simulated table bases (one row = one 64 B slot multiple).
    Addr whTable = 0;
    Addr distTable = 0;
    Addr custTable = 0;
    Addr stockTable = 0;
    Addr itemTable = 0;
    Addr orderLines = 0;

    // Real state mirrored behind the traced accesses.
    std::vector<double> whYtd;
    std::vector<std::uint32_t> distNextOrder;
    std::vector<double> custBalance;
    std::vector<std::int32_t> stockQty;
    std::vector<std::size_t> olCursor; ///< per-district ring cursor

    std::vector<Rng> threadRng;
    std::uint64_t newOrders = 0;
    std::uint64_t payments = 0;

    static constexpr Addr rowBytes = 64;
    static constexpr Addr custRowBytes = 256;
    static constexpr std::size_t olRingPerDistrict = 1024;
};

} // namespace workloads
} // namespace starnuma

#endif // STARNUMA_WORKLOADS_TPCC_HH

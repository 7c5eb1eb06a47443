// vm_churn: structural address-space writes beside lock-free fault reads, in a
// 4-stripe address space. Two churners each repeat a cycle in their own stripe: mmap 8
// pages, first-touch write fault, mprotect of the middle 3 pages to read-only (a split
// into three VMAs), munmap. Two readers fault random pages of a 512-page mapping in a
// third stripe, 30% of them writes. Lanes run the range-scoped variant of each lock.
//
// A lane's rate is churn cycles per second and its tail is the p99 of a cycle; the
// readers' fault rate is a per-layer metric. Every slice runs in a fresh address space:
// the mmap cursor never reuses unmapped space, so one space churned for a whole run
// would exhaust its churners' 64 GiB stripe windows and spill into other stripes.
//
// Checks, after every slice: every churner call and every reader fault succeeds; a
// fault in a never-mapped gap fails; once everything is unmapped and the sweeps are
// drained no page is present and the address space's invariants hold.
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/bench.h"
#include "perfbench/src/vm_report.h"
#include "src/harness/prng.h"
#include "src/harness/wait_stats.h"
#include "src/vm/address_space.h"

namespace perfbench {
namespace {

using srl::vm::AddressSpace;
using srl::vm::VmVariant;

constexpr uint64_t kPage = AddressSpace::kPageSize;
constexpr unsigned kStripes = 4;
constexpr unsigned kReaderStripe = 3;
constexpr uint64_t kReaderPages = 512;
constexpr uint64_t kCyclePages = 8;
constexpr int kChurners = 2;                // clients 0 and 1 churn in stripes 0 and 1
// Sampling periods are odd: a churner's sweep queue flushes on every 128th cycle
// (1024 queued pages / 8 per cycle), and an even period would over- or under-sample
// exactly the cycles that pay the flush.
constexpr uint64_t kLatencyEvery = 5;       // cycles timed for tail_us (their p99)
constexpr uint64_t kCycleSpanEvery = 61;    // cycles traced in a traced round
constexpr uint64_t kFaultSpanEvery = 251;   // reader faults traced in a traced round
constexpr uint32_t kRw = srl::vm::kProtRead | srl::vm::kProtWrite;

constexpr VmVariant kVariants[kLaneCount] = {VmVariant::kListScoped, VmVariant::kListLfScoped,
                                             VmVariant::kSkiplistScoped,
                                             VmVariant::kTreeScoped};

struct Client {
  uint64_t ops = 0;     // cycles (churner) or faults (reader)
  uint64_t errors = 0;  // calls that failed
  std::vector<uint32_t> lat_ns;
  srl::Xoshiro256 rng{0};
};

struct Lane {
  std::unique_ptr<AddressSpace> as;  // the current slice's space
  uint64_t reader_base = 0;
  std::vector<Client> clients;
  std::vector<std::unique_ptr<ThreadTrace>> traces;
  srl::WaitStats waits;
  LaneRates rates;
  std::vector<double> fault_rate;  // reader faults per second, untraced rounds
  VmTotals totals;                 // over every closed space
  std::vector<double> drain_ns;    // closing DrainSweeps of traced slices
};

// Gives the lane a fresh address space with the readers' mapping faulted in.
void OpenSpace(Lane& ln, int lane) {
  ln.as = std::make_unique<AddressSpace>(kVariants[lane], kStripes);
  ln.reader_base = ln.as->MmapInStripe(kReaderStripe, kReaderPages * kPage, kRw);
  for (uint64_t p = 0; p < kReaderPages && ln.reader_base != 0; ++p) {
    ln.as->PageFault(ln.reader_base + p * kPage, /*is_write=*/true);
  }
}

// Runs the closing checks on the lane's space, folds its counters into the lane's
// totals and drops it.
void CloseSpace(Result* r, Lane& ln, int lane, bool traced) {
  const std::string b = kLanes[lane];
  AddressSpace& as = *ln.as;
  if (ln.reader_base == 0) {
    r->Fail("vm_churn/" + b + ": the readers' mmap failed");
  } else {
    // Nothing but the readers' mapping is ever carved from their stripe.
    const uint64_t gap = ln.reader_base + (kReaderPages + 64) * kPage;
    if (as.StripeOf(gap) != kReaderStripe) {
      r->Fail("vm_churn/" + b + ": the gap probe left the readers' stripe");
    } else if (as.PageFault(gap, /*is_write=*/false)) {
      r->Fail("vm_churn/" + b + ": a fault in a never-mapped gap succeeded");
    }
    if (!as.Munmap(ln.reader_base, kReaderPages * kPage)) {
      r->Fail("vm_churn/" + b + ": munmap of the readers' mapping failed");
    }
  }
  const uint64_t t0 = NowNs();
  as.DrainSweeps();
  if (traced) {
    ln.drain_ns.push_back(static_cast<double>(NowNs() - t0));
  }
  if (as.PresentPages() != 0) {
    r->Fail("vm_churn/" + b + ": " + std::to_string(as.PresentPages()) +
            " pages still present after everything was unmapped and drained");
  }
  if (!as.CheckInvariants()) {
    r->Fail("vm_churn/" + b + ": address-space invariants do not hold");
  }
  ln.totals.Add(as);
  ln.as.reset();
}

void Churn(AddressSpace& as, unsigned stripe, Client& c, ThreadTrace* trace, int lane,
           const std::atomic<bool>& stop) {
  while (!stop.load(std::memory_order_relaxed)) {
    ++c.ops;
    ThreadTrace* t = (trace != nullptr && c.ops % kCycleSpanEvery == 0) ? trace : nullptr;
    const bool timed = c.ops % kLatencyEvery == 0;
    const uint64_t t0 = timed ? NowNs() : 0;
    {
      SpanScope cycle(t, kCycle, lane);
      uint64_t base = 0;
      {
        SpanScope s(t, kMmap, lane, cycle.Index());
        base = as.MmapInStripe(stripe, kCyclePages * kPage, kRw);
      }
      if (base == 0) {
        ++c.errors;
        continue;
      }
      c.errors += as.PageFault(base, /*is_write=*/true) ? 0 : 1;
      {
        SpanScope s(t, kMprotect, lane, cycle.Index());
        c.errors += as.Mprotect(base + 2 * kPage, 3 * kPage, srl::vm::kProtRead) ? 0 : 1;
      }
      {
        SpanScope s(t, kMunmap, lane, cycle.Index());
        c.errors += as.Munmap(base, kCyclePages * kPage) ? 0 : 1;
      }
    }
    if (timed) {
      c.lat_ns.push_back(static_cast<uint32_t>(std::min<uint64_t>(NowNs() - t0, UINT32_MAX)));
    }
  }
}

void Read(AddressSpace& as, uint64_t base, Client& c, ThreadTrace* trace, int lane,
          const std::atomic<bool>& stop) {
  while (!stop.load(std::memory_order_relaxed)) {
    ++c.ops;
    const uint64_t addr = base + c.rng.NextBelow(kReaderPages) * kPage;
    const bool write = c.rng.NextChance(0.3);
    SpanScope s((trace != nullptr && c.ops % kFaultSpanEvery == 0) ? trace : nullptr, kFault,
                lane);
    c.errors += as.PageFault(addr, write) ? 0 : 1;
  }
}

void RunSlice(Result* r, Lane& ln, int lane, bool traced, double secs) {
  if (ln.as == nullptr) {
    OpenSpace(ln, lane);
  }
  std::vector<uint64_t> before;
  for (const Client& c : ln.clients) {
    before.push_back(c.ops);
  }
  ln.as->Lock().SetWaitStats(traced ? &ln.waits : nullptr);
  const double elapsed = RunClients(kThreads, secs, [&](int t, const std::atomic<bool>& stop) {
    ThreadTrace* trace = traced ? ln.traces[t].get() : nullptr;
    if (t < kChurners) {
      Churn(*ln.as, static_cast<unsigned>(t), ln.clients[t], trace, lane, stop);
    } else {
      Read(*ln.as, ln.reader_base, ln.clients[t], trace, lane, stop);
    }
  });
  ln.as->Lock().SetWaitStats(nullptr);
  uint64_t cycles = 0;
  uint64_t faults = 0;
  for (int t = 0; t < kThreads; ++t) {
    (t < kChurners ? cycles : faults) += ln.clients[t].ops - before[t];
  }
  (traced ? ln.rates.traced_rate : ln.rates.rate).push_back(static_cast<double>(cycles) / elapsed);
  if (!traced) {
    ln.fault_rate.push_back(static_cast<double>(faults) / elapsed);
  }
  CloseSpace(r, ln, lane, traced);
}

// Builds a lane with its first address space.
std::unique_ptr<Lane> NewLane(int lane, uint64_t seed, bool trace) {
  auto lp = std::make_unique<Lane>();
  Lane& ln = *lp;
  OpenSpace(ln, lane);
  ln.clients.resize(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    ln.clients[t].rng = srl::Xoshiro256(seed ^ (0x7a3b9 * static_cast<uint64_t>(lane * 8 + t + 1)));
    ln.traces.push_back(trace ? std::make_unique<ThreadTrace>() : nullptr);
  }
  return lp;
}

// Reports a lane once all its slices have run.
void Finish(Result* r, int lane, Lane& ln, const Options& o) {
  const std::string b = kLanes[lane];
  for (int t = 0; t < kThreads; ++t) {
    r->Attempted(ln.clients[t].ops);
    r->Failed(ln.clients[t].errors);
    if (ln.clients[t].errors != 0) {
      r->Fail("vm_churn/" + b + ": " + std::to_string(ln.clients[t].errors) + " failed " +
              (t < kChurners ? "churn calls" : "reader faults") + " in client " +
              std::to_string(t));
    }
    ln.rates.lat_ns.insert(ln.rates.lat_ns.end(), ln.clients[t].lat_ns.begin(),
                           ln.clients[t].lat_ns.end());
  }
  ReportLane(r, lane, ln.rates);
  if (o.trace) {
    TraceSummary ts;
    for (const auto& t : ln.traces) {
      ts.Add(*t);
    }
    r->Set("vm.mmap_ns.p50." + b, ts.Quantile(kMmap, lane, 0.5), "ns");
    r->Set("vm.mprotect_ns.p50." + b, ts.Quantile(kMprotect, lane, 0.5), "ns");
    r->Set("vm.munmap_ns.p50." + b, ts.Quantile(kMunmap, lane, 0.5), "ns");
    r->Set("vm.munmap_ns.p99." + b, ts.Quantile(kMunmap, lane, 0.99), "ns");
    r->Set("vm.fault_ns.p50." + b, ts.Quantile(kFault, lane, 0.5), "ns");
    r->Set("vm.fault_ns.p99." + b, ts.Quantile(kFault, lane, 0.99), "ns");
    ReportVm(r, lane, ln.totals, ln.waits, Median(ln.fault_rate), Median(ln.drain_ns));
  }
}

}  // namespace

Result RunVmChurn(const Options& o) {
  Result r;
  std::unique_ptr<Lane> lanes[kLaneCount];
  TimeSetup(&r, 5, [&] {
    for (int l = 0; l < kLaneCount; ++l) {
      lanes[l] = nullptr;
      lanes[l] = NewLane(l, o.seed, o.trace);
    }
  });
  const double slice = o.seconds / (kRounds * kLaneCount);
  for (int round = 0; round < kRounds; ++round) {
    for (int l = 0; l < kLaneCount; ++l) {
      RunSlice(&r, *lanes[l], l, TracedRound(o, round), slice);
    }
  }
  for (int l = 0; l < kLaneCount; ++l) {
    Finish(&r, l, *lanes[l], o);
  }
  return r;
}

}  // namespace perfbench

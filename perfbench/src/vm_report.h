// Per-layer counters of the vm and epoch modules, read from one lane's address space;
// vm_churn and metis_wrmem report the same names.
#ifndef PERFBENCH_VM_REPORT_H_
#define PERFBENCH_VM_REPORT_H_

#include <cstdint>
#include <string>

#include "perfbench/src/bench.h"
#include "src/harness/wait_stats.h"
#include "src/vm/address_space.h"

namespace perfbench {

// Running totals of one lane's counters; the rates use VmStats' own definitions.
// metis_wrmem starts a fresh address space per job, so the totals sum over every space
// the lane used.
struct VmTotals {
  uint64_t faults = 0;
  uint64_t fault_spec_ok = 0;
  uint64_t fault_spec_retry = 0;
  uint64_t fault_spec_fallback = 0;
  uint64_t find_retries = 0;
  uint64_t scoped = 0;
  uint64_t scoped_fallback = 0;
  uint64_t full_writes = 0;
  uint64_t mprotects = 0;
  uint64_t spec_success = 0;
  uint64_t spec_retries = 0;
  uint64_t spec_fallback = 0;
  uint64_t fault_try_fallback = 0;
  uint64_t sweep_flushes = 0;
  uint64_t swept_pages = 0;
  uint64_t sweep_coalesced = 0;

  void Add(srl::vm::AddressSpace& as) {
    const srl::vm::VmStats& s = as.Stats();
    auto get = [](const std::atomic<uint64_t>& a) { return a.load(std::memory_order_relaxed); };
    faults += s.Faults();
    fault_spec_ok += s.FaultSpecOk();
    fault_spec_retry += get(s.fault_spec_retry);
    fault_spec_fallback += get(s.fault_spec_fallback);
    find_retries += get(s.find_retries);
    scoped += get(s.scoped_structural);
    scoped_fallback += get(s.scoped_fallback);
    full_writes += as.Lock().FullWriteAcquisitions();
    mprotects += get(s.mprotects);
    spec_success += get(s.spec_success);
    spec_retries += get(s.spec_retries);
    spec_fallback += get(s.spec_fallback);
    fault_try_fallback += get(s.fault_try_fallback);
    sweep_flushes += get(s.sweeps_flushes);
    swept_pages += get(s.sweeps_swept_pages);
    sweep_coalesced += get(s.sweeps_coalesced);
  }
};

inline double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

inline void ReportVm(Result* r, int lane, const VmTotals& v, const srl::WaitStats& waits,
                     double faults_per_s, double drain_ns) {
  const std::string b = std::string(".") + kLanes[lane];
  r->Set("vm.faults_per_s" + b, faults_per_s, "1/s");
  r->Set("vm.fault_spec_rate" + b, Ratio(v.fault_spec_ok, v.faults), "ratio");
  r->Set("vm.fault_spec_retry" + b, static_cast<double>(v.fault_spec_retry), "count");
  r->Set("vm.fault_spec_fallback" + b, static_cast<double>(v.fault_spec_fallback), "count");
  r->Set("vm.find_retries" + b, static_cast<double>(v.find_retries), "count");
  r->Set("vm.scoped_rate" + b, Ratio(v.scoped, v.scoped + v.scoped_fallback), "ratio");
  r->Set("vm.full_writes" + b, static_cast<double>(v.full_writes), "count");
  r->Set("vm.mprotects" + b, static_cast<double>(v.mprotects), "count");
  r->Set("vm.spec_mprotect_rate" + b, Ratio(v.spec_success, v.mprotects), "ratio");
  r->Set("vm.spec_retries" + b, static_cast<double>(v.spec_retries), "count");
  r->Set("vm.spec_fallback" + b, static_cast<double>(v.spec_fallback), "count");
  r->Set("vm.fault_try_fallback" + b, static_cast<double>(v.fault_try_fallback), "count");
  r->Set("vm.lock_wait_read_ns.mean" + b, waits.MeanReadNs(), "ns");
  r->Set("vm.lock_wait_write_ns.mean" + b, waits.MeanWriteNs(), "ns");
  r->Set("epoch.sweep_flushes" + b, static_cast<double>(v.sweep_flushes), "count");
  r->Set("epoch.swept_pages" + b, static_cast<double>(v.swept_pages), "count");
  r->Set("epoch.sweep_coalesced" + b, static_cast<double>(v.sweep_coalesced), "count");
  r->Set("epoch.drain_ns" + b, drain_ns, "ns");
}

}  // namespace perfbench

#endif  // PERFBENCH_VM_REPORT_H_

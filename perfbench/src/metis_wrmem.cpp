// metis_wrmem: the paper's Figure 5 wrmem job (§7.2). Four workers generate text into
// mprotect-grown arenas, hash the words and trim the arenas every round; each job runs
// in a fresh address space. Lanes: list-refined and tree-refined are the paper's
// refined-fault plus speculative-mprotect configurations; list-lf and skiplist have no
// refined-only variant, so their lanes run the range-scoped one.
//
// At four workers compute dominates, so this is the control workload: lock and VM gains
// should move it little, allocator or VM-path regressions still show. A lane's rate is
// words per second of one job (median over jobs) and its tail is the 90th percentile of
// a job's wall time: a run holds about 160 jobs per lane, and p90 is the highest
// percentile that leaves at least ten of them beyond it.
//
// Checks: the job's ok flag is set; total words, distinct words and the digest equal a
// plain std::unordered_map count over the same generated text.
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "perfbench/src/bench.h"
#include "perfbench/src/vm_report.h"
#include "src/harness/wait_stats.h"
#include "src/metis/metis_job.h"
#include "src/metis/text_gen.h"
#include "src/metis/word_table.h"
#include "src/vm/address_space.h"

namespace perfbench {
namespace {

using srl::vm::AddressSpace;
using srl::vm::VmVariant;

constexpr VmVariant kVariants[kLaneCount] = {VmVariant::kListRefined, VmVariant::kListLfScoped,
                                             VmVariant::kSkiplistScoped,
                                             VmVariant::kTreeRefined};

srl::metis::MetisConfig JobConfig(uint64_t seed) {
  srl::metis::MetisConfig cfg;
  cfg.app = srl::metis::MetisApp::kWrmem;
  cfg.threads = kThreads;
  cfg.chunk_bytes = 256 * 1024;  // 8 MiB of text per job, about 60 ms on the reference host
  cfg.rounds = 8;
  cfg.seed = seed;
  return cfg;
}

struct Expected {
  uint64_t total_words = 0;
  uint64_t distinct_words = 0;
  uint64_t checksum = 0;
};

// Recounts the job's words apart from the program: the same generators, seeds and
// per-worker, per-round slices, counted with a std::unordered_map per round and folded
// into the digest the way the job's reduce does.
Expected Recount(const srl::metis::MetisConfig& cfg) {
  Expected e;
  std::unordered_set<uint64_t> distinct;
  for (int w = 0; w < cfg.threads; ++w) {
    srl::metis::TextGenerator gen(cfg.seed * 7919 + static_cast<uint64_t>(w));
    std::string text;
    for (int round = 0; round < cfg.rounds; ++round) {
      text.clear();
      gen.Fill(&text, cfg.chunk_bytes);
      std::unordered_map<std::string_view, uint64_t> counts;
      std::size_t i = 0;
      while (i < text.size()) {
        const std::size_t start = text.find_first_not_of(' ', i);
        if (start == std::string::npos) {
          break;
        }
        const std::size_t end = std::min(text.find(' ', start), text.size());
        ++counts[std::string_view(text).substr(start, end - start)];
        ++e.total_words;
        i = end;
      }
      for (const auto& [word, count] : counts) {
        const uint64_t h = srl::metis::HashBytes(word.data(), word.size());
        distinct.insert(h);
        e.checksum += h * 0x9e3779b97f4a7c15ull + count;
      }
    }
  }
  e.distinct_words = distinct.size();
  return e;
}

struct Lane {
  LaneRates rates;
  VmTotals vm;
  srl::WaitStats waits;
  std::vector<double> drain_ns;
  double job_seconds = 0;
  uint64_t jobs = 0;
};

void RunSlice(Result* r, Lane& ln, int lane, bool traced, double secs,
              const srl::metis::MetisConfig& cfg, const Expected& want) {
  const std::string b = kLanes[lane];
  const auto t0 = Clock::now();
  do {
    AddressSpace as(kVariants[lane]);
    as.Lock().SetWaitStats(traced ? &ln.waits : nullptr);
    const srl::metis::MetisResult got = srl::metis::RunMetis(as, cfg);
    const uint64_t d0 = NowNs();
    as.DrainSweeps();
    if (traced) {
      ln.drain_ns.push_back(static_cast<double>(NowNs() - d0));
    }
    as.Lock().SetWaitStats(nullptr);
    ln.vm.Add(as);
    ++ln.jobs;
    ln.job_seconds += got.seconds;
    if (!got.ok) {
      r->Failed(1);
      r->Fail("metis_wrmem/" + b + ": the job reported a failed VM operation");
    }
    if (got.total_words != want.total_words || got.distinct_words != want.distinct_words ||
        got.checksum != want.checksum) {
      r->Fail("metis_wrmem/" + b + ": job counted " + std::to_string(got.total_words) +
              " words, " + std::to_string(got.distinct_words) + " distinct, digest " +
              std::to_string(got.checksum) + "; the recount gives " +
              std::to_string(want.total_words) + ", " + std::to_string(want.distinct_words) +
              ", " + std::to_string(want.checksum));
    }
    if (as.PresentPages() != 0) {
      r->Fail("metis_wrmem/" + b + ": pages still present after the job unmapped its arenas");
    }
    const double rate = got.seconds > 0 ? static_cast<double>(got.total_words) / got.seconds : 0;
    (traced ? ln.rates.traced_rate : ln.rates.rate).push_back(rate);
    if (!traced) {
      ln.rates.lat_ns.push_back(static_cast<uint32_t>(std::min(got.seconds * 1e9, 4e9)));
    }
  } while (SecondsSince(t0) < secs);
}

}  // namespace

Result RunMetisWrmem(const Options& o) {
  Result r;
  const srl::metis::MetisConfig cfg = JobConfig(o.seed);
  Expected want;
  TimeSetup(&r, 5, [&] { want = Recount(cfg); });
  Lane lanes[kLaneCount];
  const double slice = o.seconds / (kRounds * kLaneCount);
  for (int round = 0; round < kRounds; ++round) {
    for (int l = 0; l < kLaneCount; ++l) {
      RunSlice(&r, lanes[l], l, TracedRound(o, round), slice, cfg, want);
    }
  }
  for (int l = 0; l < kLaneCount; ++l) {
    Lane& ln = lanes[l];
    r.Attempted(ln.jobs);
    ReportLane(&r, l, ln.rates, 0.90);
    if (o.trace) {
      const double faults_per_s =
          ln.job_seconds > 0 ? static_cast<double>(ln.vm.faults) / ln.job_seconds : 0;
      ReportVm(&r, l, ln.vm, ln.waits, faults_per_s, Median(ln.drain_ns));
    }
  }
  return r;
}

}  // namespace perfbench

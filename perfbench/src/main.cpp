// perfbench: runs one workload of the end-to-end benchmark and prints its result as
// the last line of standard output, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {value, unit}}}
// The line before it records the host, the build and the seed. Exits 1 when an output
// check fails. perfbench/run.py builds this program and is the command to run.
//
// Flags: --workload=file_store|vm_churn|metis_wrmem --seed=N --seconds=S --trace=0|1
//        --broken-lock (file_store only: run on a lock that excludes nothing)
//        --git-sha=SHA (recorded in the host line)
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>

#include "perfbench/src/bench.h"
#include "src/epoch/epoch_domain.h"
#include "src/harness/cli.h"
#include "src/sync/admission.h"
#include "src/sync/topology.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  srl::Cli cli(argc, argv);
  perfbench::Options o;
  o.workload = cli.GetString("--workload", "");
  o.seed = static_cast<uint64_t>(cli.GetInt("--seed", 1));
  o.seconds = cli.GetDouble("--seconds", 20);
  o.trace = cli.GetInt("--trace", 0) != 0;
  o.broken_lock = cli.Has("--broken-lock");
  const std::string sha = cli.GetString("--git-sha", "unknown");

  perfbench::Result (*run)(const perfbench::Options&) = nullptr;
  if (o.workload == "file_store") {
    run = perfbench::RunFileStore;
  } else if (o.workload == "vm_churn" && !o.broken_lock) {
    run = perfbench::RunVmChurn;
  } else if (o.workload == "metis_wrmem" && !o.broken_lock) {
    run = perfbench::RunMetisWrmem;
  }
  if (run == nullptr || !(o.seconds > 0)) {
    std::cerr << "usage: perfbench --workload=file_store|vm_churn|metis_wrmem --seed=N "
                 "--seconds=S --trace=0|1 [--broken-lock] [--git-sha=SHA]\n";
    return 2;
  }

  const srl::Topology& topo = srl::Topology::Get();
  std::cout << "host: {\"cpus\": " << topo.CpuCount() << ", \"numa_nodes\": "
            << topo.NodeCount() << ", \"compiler\": \"" << __VERSION__
            << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\", \"git_sha\": \""
            << sha << "\", \"workload\": \"" << o.workload << "\", \"seed\": " << o.seed
            << ", \"seconds\": " << o.seconds << ", \"trace\": " << (o.trace ? 1 : 0)
            << ", \"threads\": " << perfbench::kThreads << "}\n";

  srl::EpochDomain& epoch = srl::EpochDomain::Global();
  const uint64_t quiesces0 = epoch.ForcedQuiesces();
  const uint64_t parks0 = srl::AdmissionGate::TotalParks();
  const uint64_t culls0 = srl::AdmissionGate::TotalCulls();
  perfbench::Result r = run(o);
  if (o.trace) {
    r.Set("epoch.forced_quiesces", static_cast<double>(epoch.ForcedQuiesces() - quiesces0),
          "count");
    r.Set("sync.admission_parks",
          static_cast<double>(srl::AdmissionGate::TotalParks() - parks0), "count");
    r.Set("sync.admission_culls",
          static_cast<double>(srl::AdmissionGate::TotalCulls() - culls0), "count");
  }

  for (const std::string& e : r.Errors()) {
    std::cerr << "CHECK FAILED: " << e << "\n";
  }
  std::string metrics;
  bool finite = true;
  for (const auto& [name, vu] : r.Metrics()) {
    finite = finite && std::isfinite(vu.first);
    metrics += (metrics.empty() ? "" : ", ") + ("\"" + name + "\": {\"value\": ") +
               Num(std::isfinite(vu.first) ? vu.first : 0) + ", \"unit\": \"" + vu.second +
               "\"}";
  }
  if (!finite) {
    std::cerr << "CHECK FAILED: a metric is not a finite number\n";
  }
  const bool correct = r.Correct() && finite;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << r.AttemptedOps() << ", \"failed\": " << r.FailedOps()
            << ", \"metrics\": {"
            << metrics << "}}" << std::endl;
  return correct ? 0 : 1;
}

#pragma once

/// \file layers.h
/// \brief The traced run's per-layer measurements: calls into each src/
/// module's public functions, timed from the benchmark's own code on the
/// workload's generated inputs, after the served phases have ended.

#include <cstdint>
#include <string>
#include <vector>

#include "stream.h"
#include "trace.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What the served phases of the traced run measured from outside, which
/// some layer metrics are derived from.
struct ServedFacts {
  double cache_hits = 0.0;
  double cache_lookups = 0.0;
  double batch_items = 0.0;
  double batches = 0.0;
  double forecast_hit_tcp_p50_us = 0.0;  ///< closed loop, traced client spans
  double cpu_ms_total = 0.0;             ///< all program processes
  double cpu_ms_max_process = 0.0;       ///< the busiest one
};

/// Runs every layer probe and returns the per-layer metrics, in the order
/// BENCHMARK.json lists them. \p run_dir is scratch space inside the
/// checkout; \p worker_binary serves the router-hop probe; \p suite is
/// the stored suite the workload was built from.
std::vector<Metric> RunLayerProbes(const WorkloadSpec& spec,
                                   const std::vector<SuiteSeries>& suite,
                                   uint64_t seed, int seconds,
                                   const std::string& run_dir,
                                   const std::string& worker_binary,
                                   const ServedFacts& facts, SpanLog* spans);

/// Self-tests of the checks and the streams; returns the number of
/// failures and prints one line per test to stderr.
int RunSelfTest();

}  // namespace perfbench

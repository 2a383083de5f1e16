// Serving-latency bench: tail latency and throughput of the online
// inference subsystem across query arrival patterns, comparing exact
// embedding serving against error-bounded compressed serving (the
// DeepRecSys-style workload the ROADMAP's "heavy traffic" north star
// calls for). Compressed paths serve from a one-shard, zero-cache
// ShardedEmbeddingStore, so every lookup decodes a page of the paper's
// codecs.

#include <cstdio>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "common/arg_parser.hpp"
#include "serve/simulator.hpp"

namespace {

using namespace dlcomp;

struct CodecPath {
  const char* label;
  const char* codec;  // "" = exact
  double eb;
};

/// Prefixes one pattern x path cell's snapshot into the combined dump.
void merge_cell_metrics(MetricsSnapshot& all, const MetricsSnapshot& cell,
                        const std::string& prefix) {
  for (const auto& [key, value] : cell.values) {
    all.set(prefix + "/" + key, value);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const ArgParser args(argc, argv, 1, {"--metrics"});
  bench::banner("bench_serving_latency",
                "online serving extension (DeepRecSys-style load, "
                "compressed embedding payloads)");

  const std::size_t queries = bench::scaled(2000, 20000);

  ServingConfig base;
  base.load.qps = 2000.0;
  base.load.num_queries = queries;
  base.load.mean_query_size = 16;
  base.load.max_query_size = 128;
  base.scheduler.max_batch_samples = 256;
  base.scheduler.max_delay_s = 0.002;
  base.spec = DatasetSpec::small_training_proxy(26, 16);
  base.seed = 1234;

  const ArrivalPattern patterns[] = {ArrivalPattern::kPoisson,
                                     ArrivalPattern::kBursty,
                                     ArrivalPattern::kDiurnal};
  const CodecPath paths[] = {
      {"exact", "", 0.0},
      {"hybrid eb=0.01", "hybrid", 0.01},
      {"hybrid eb=0.05", "hybrid", 0.05},
      {"fp16", "fp16", 0.0},
  };

  std::vector<ServingReport> reports;  // reserved: `rows` points into it
  reports.reserve(std::size(patterns) * std::size(paths));
  std::vector<std::pair<std::string, const ServingReport*>> rows;
  MetricsSnapshot all_metrics;
  for (const ArrivalPattern pattern : patterns) {
    const std::string pattern_name(arrival_pattern_name(pattern));
    for (const CodecPath& path : paths) {
      ServingConfig config = base;
      config.load.pattern = pattern;
      if (*path.codec != '\0') {
        config.store.num_shards = 1;
        config.store.cache_budget_bytes = 0;
        config.store.codec = path.codec;
        config.store.error_bound = path.eb;
      }
      const ServingReport& r =
          reports.emplace_back(ServingSimulator(config).run());
      std::string cell = path.label;  // "hybrid eb=0.01" -> "hybrid_eb_0.01"
      for (char& c : cell) {
        if (c == ' ' || c == '=') c = '_';
      }
      merge_cell_metrics(all_metrics, r.metrics, pattern_name + "/" + cell);
      rows.emplace_back(pattern_name + " " + path.label, &r);
    }
  }
  std::printf("%s\n", format_serving_table(rows).c_str());
  std::printf(
      "latency = simulated queueing delay + measured forward wall time; "
      "achieved qps = queries / busiest replica's forward time.\n");
  bench::dump_metrics(args.str("--metrics"), all_metrics);
  return 0;
}

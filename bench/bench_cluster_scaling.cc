// Multi-GPU scaling and routing-policy ablation.
//
// The paper's scheduler "schedules this batch on the GPU(s)"; this bench
// runs the Figure 3 RAG workload on a data-parallel cluster of Symphony
// replicas and asks two questions:
//   1. How does throughput scale with replica count?
//   2. Does cache-affinity routing (same topic -> same replica, so named KV
//      files are shared) beat round-robin (topics scatter, every replica
//      re-prefills and caches every hot document)?
// Offered load scales with the replica count so each point runs at pressure.
//
// `--scale R N` is the memory-at-scale probe instead: one RAG run on R
// replicas with N requests per replica and nothing cached, printed as one
// row of replicas, requests, completed, wall microseconds per finished
// request and peak RSS. Run it once per process, since RSS is a high-water
// mark; bench/scale_probe.py runs the standard points and derives the RSS
// growth per finished request.
#include <sys/resource.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/workload/rag.h"

namespace symphony {
namespace {

int ScaleProbe(size_t replicas, size_t requests_per_replica) {
  RagConfig config;
  config.answer_tokens = 32;
  config.pareto_index = 0.8;
  config.cache_top_k = 0;
  config.max_active = 16;  // Per replica.
  config.request_rate = 6.0 * static_cast<double>(replicas);
  config.num_requests = requests_per_replica * replicas;
  ClusterOptions cluster;
  cluster.replicas = replicas;
  cluster.routing = RoutingPolicy::kAffinityBounded;
  auto start = std::chrono::steady_clock::now();
  RagRunResult r = RunRagOnCluster(config, cluster);
  double wall_us = std::chrono::duration<double, std::micro>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  double us_per_request =
      r.completed > 0 ? wall_us / static_cast<double>(r.completed) : 0.0;
  BenchTable table({"replicas", "requests", "completed", "wall_us/req",
                    "peak_rss_mb"});
  table.AddRow({std::to_string(replicas), std::to_string(config.num_requests),
                std::to_string(r.completed), Fmt(us_per_request, 1),
                Fmt(peak_rss_mb, 1)});
  table.Print("RAG at scale (aff-bounded, Pareto 0.8, nothing cached, 6 req/s "
              "per replica)");
  std::printf("JSON {\"bench\":\"cluster_scaling\",\"row\":\"scale\","
              "\"replicas\":%zu,\"requests\":%zu,\"completed\":%llu,"
              "\"wall_us_per_request\":%.1f,\"peak_rss_mb\":%.2f}\n",
              replicas, config.num_requests,
              static_cast<unsigned long long>(r.completed), us_per_request,
              peak_rss_mb);
  return r.completed == config.num_requests ? 0 : 1;
}

// A positive decimal count, or 0 for anything else.
size_t ParseCount(const char* text) {
  char* end = nullptr;
  errno = 0;
  unsigned long long value = std::strtoull(text, &end, 10);
  bool valid = std::isdigit(static_cast<unsigned char>(text[0])) &&
               *end == '\0' && errno == 0 && value <= SIZE_MAX;
  return valid ? static_cast<size_t>(value) : 0;
}

RagConfig BaseConfig(size_t replicas) {
  RagConfig config;
  config.answer_tokens = 32;
  config.num_requests = 250 * replicas;
  config.request_rate = 12.0 * static_cast<double>(replicas);
  config.pareto_index = 0.3;
  config.cache_top_k = 20;
  config.max_active = 20;  // Per replica.
  return config;
}

}  // namespace
}  // namespace symphony

int main(int argc, char** argv) {
  using namespace symphony;
  if (argc == 4 && std::strcmp(argv[1], "--scale") == 0) {
    size_t replicas = ParseCount(argv[2]);
    size_t requests = ParseCount(argv[3]);
    if (replicas > 0 && requests > 0 && requests <= SIZE_MAX / replicas) {
      return ScaleProbe(replicas, requests);
    }
  }
  if (argc != 1) {
    std::fprintf(stderr,
                 "usage: %s [--scale REPLICAS REQUESTS_PER_REPLICA]\n",
                 argv[0]);
    return 2;
  }
  std::printf("bench_cluster_scaling: data-parallel replicas + routing policy\n");

  BenchTable table({"replicas", "routing", "tok/s", "scaling", "hit%",
                    "mean_ms/tok", "util"});
  double single = 0.0;
  for (size_t replicas : {1u, 2u, 4u}) {
    for (RoutingPolicy routing :
         {RoutingPolicy::kRoundRobin, RoutingPolicy::kCacheAffinity,
          RoutingPolicy::kAffinityBounded}) {
      if (replicas == 1 && routing != RoutingPolicy::kRoundRobin) {
        continue;  // Identical to round-robin at one replica.
      }
      ClusterOptions cluster;
      cluster.replicas = replicas;
      cluster.routing = routing;
      RagConfig config = BaseConfig(replicas);
      RagRunResult r = RunRagOnCluster(config, cluster);
      if (single == 0.0) {
        single = r.throughput_tok_s;
      }
      double hit_rate = 100.0 * static_cast<double>(r.cache_hits) /
                        static_cast<double>(r.completed);
      const char* name = routing == RoutingPolicy::kRoundRobin ? "round-robin"
                         : routing == RoutingPolicy::kCacheAffinity
                             ? "affinity"
                             : "aff-bounded";
      table.AddRow({std::to_string(replicas), name, Fmt(r.throughput_tok_s, 1),
                    Fmt(r.throughput_tok_s / single), Fmt(hit_rate, 1),
                    Fmt(r.mean_latency_per_token_ms), Fmt(r.gpu_utilization)});
    }
  }
  table.Print("RAG (Pareto 0.3) at 12 req/s per replica; scaling normalized "
              "to 1 replica");
  return 0;
}

// M1 — google-benchmark micro benchmarks for the substrate kernels:
// Dijkstra, multilevel partitioning, serialization, and the
// communicator collectives. These are the building blocks whose constants
// determine every figure's absolute numbers.
#include <benchmark/benchmark.h>

#include "analysis/shortest_paths.hpp"
#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "partition/partition.hpp"
#include "runtime/comm.hpp"
#include "runtime/serialize.hpp"

namespace {

using namespace aacc;

const Graph& ba_graph(VertexId n) {
  static std::map<VertexId, Graph> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    Rng rng(1);
    it = cache.emplace(n, barabasi_albert(n, 2, rng)).first;
  }
  return it->second;
}

void BM_DijkstraSingleSource(benchmark::State& state) {
  const auto n = static_cast<VertexId>(state.range(0));
  const Graph& g = ba_graph(n);
  const CsrGraph csr(g);
  VertexId src = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dijkstra(csr, src));
    src = (src + 17) % n;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_DijkstraSingleSource)->Arg(1000)->Arg(4000)->Arg(16000);

void BM_MultilevelPartition(benchmark::State& state) {
  const auto n = static_cast<VertexId>(state.range(0));
  const Graph& g = ba_graph(n);
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        partition_graph(g, 16, PartitionerKind::kMultilevel, rng));
  }
}
BENCHMARK(BM_MultilevelPartition)->Arg(1000)->Arg(4000)->Arg(16000);

void BM_SerializeDistRow(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<Dist> row(n, 12345);
  for (auto _ : state) {
    rt::ByteWriter w;
    w.write_vec(row);
    auto buf = w.take();
    rt::ByteReader r(buf);
    benchmark::DoNotOptimize(r.read_vec<Dist>());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) * 4);
}
BENCHMARK(BM_SerializeDistRow)->Arg(1000)->Arg(50000);

void BM_AllToAll(benchmark::State& state) {
  const auto p = static_cast<Rank>(state.range(0));
  const std::size_t bytes = 4096;
  rt::World world(p);
  for (auto _ : state) {
    world.run([&](rt::Comm& comm) {
      std::vector<std::vector<std::byte>> out(static_cast<std::size_t>(p));
      for (auto& payload : out) payload.resize(bytes);
      benchmark::DoNotOptimize(comm.all_to_all(std::move(out)));
    });
  }
}
BENCHMARK(BM_AllToAll)->Arg(4)->Arg(16);

void BM_AllReduce(benchmark::State& state) {
  const auto p = static_cast<Rank>(state.range(0));
  rt::World world(p);
  for (auto _ : state) {
    world.run([&](rt::Comm& comm) {
      benchmark::DoNotOptimize(
          comm.all_reduce_sum(static_cast<std::uint64_t>(comm.rank())));
    });
  }
}
BENCHMARK(BM_AllReduce)->Arg(4)->Arg(16);

}  // namespace

BENCHMARK_MAIN();

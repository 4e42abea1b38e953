// Wall-clock microbenchmarks of the demultiplexer: the engine's four
// strategies on a growing filter set, priority ordering, and
// busy-reordering — the ablations DESIGN.md §6 calls out.
#include <benchmark/benchmark.h>

#include "src/net/pup_endpoint.h"
#include "src/pf/demux.h"
#include "tests/test_packets.h"

namespace {

// A demux with `ports` Pup-socket filters (sockets 1..ports, equal
// priority); traffic goes to `target`.
pf::PacketFilter MakeDemux(int ports, pf::Strategy strategy) {
  pf::PacketFilter filter;
  filter.SetStrategy(strategy);
  for (int socket = 1; socket <= ports; ++socket) {
    const pf::PortId port = filter.OpenPort();
    filter.SetFilter(port, pfnet::MakePupSocketFilter(static_cast<uint32_t>(socket), 10));
    filter.SetQueueLimit(port, 1);  // keep the queues from growing
  }
  return filter;
}

// Worst case for the sequential strategies: the matching filter is the last
// one applied.
void RunDemux(benchmark::State& state, pf::Strategy strategy) {
  const int ports = static_cast<int>(state.range(0));
  pf::PacketFilter filter = MakeDemux(ports, strategy);
  const auto packet = pftest::MakePupFrame(8, static_cast<uint32_t>(ports));
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.Demux(packet));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_DemuxChecked(benchmark::State& state) { RunDemux(state, pf::Strategy::kChecked); }
BENCHMARK(BM_DemuxChecked)->Arg(1)->Arg(16)->Arg(64);

void BM_DemuxFast(benchmark::State& state) { RunDemux(state, pf::Strategy::kFast); }
BENCHMARK(BM_DemuxFast)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

void BM_DemuxDecisionTree(benchmark::State& state) { RunDemux(state, pf::Strategy::kTree); }
BENCHMARK(BM_DemuxDecisionTree)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

// The hash dispatch index with the flow cache on (the default: repeated
// packets of one flow are the cache's best case)...
void BM_DemuxIndexed(benchmark::State& state) { RunDemux(state, pf::Strategy::kIndexed); }
BENCHMARK(BM_DemuxIndexed)->Arg(1)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

// ...and with it off, isolating the raw index probe + re-confirm cost.
void BM_DemuxIndexedNoCache(benchmark::State& state) {
  const int ports = static_cast<int>(state.range(0));
  pf::PacketFilter filter = MakeDemux(ports, pf::Strategy::kIndexed);
  filter.SetFlowCacheCapacity(0);
  const auto packet = pftest::MakePupFrame(8, static_cast<uint32_t>(ports));
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.Demux(packet));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DemuxIndexedNoCache)->Arg(1)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

// §3.2's priority argument: the busy filter first vs last.
void BM_DemuxMatchFirst(benchmark::State& state) {
  pf::PacketFilter filter;
  for (int socket = 1; socket <= 32; ++socket) {
    const pf::PortId port = filter.OpenPort();
    // Socket 1 gets the highest priority.
    filter.SetFilter(port, pfnet::MakePupSocketFilter(static_cast<uint32_t>(socket),
                                                      static_cast<uint8_t>(255 - socket)));
    filter.SetQueueLimit(port, 1);
  }
  const auto packet = pftest::MakePupFrame(8, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.Demux(packet));
  }
}
BENCHMARK(BM_DemuxMatchFirst);

void BM_DemuxMatchLast(benchmark::State& state) {
  pf::PacketFilter filter;
  for (int socket = 1; socket <= 32; ++socket) {
    const pf::PortId port = filter.OpenPort();
    filter.SetFilter(port, pfnet::MakePupSocketFilter(static_cast<uint32_t>(socket),
                                                      static_cast<uint8_t>(socket)));
    filter.SetQueueLimit(port, 1);
  }
  const auto packet = pftest::MakePupFrame(8, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.Demux(packet));
  }
}
BENCHMARK(BM_DemuxMatchLast);

// Busy-reordering recovers most of the ordering win automatically.
void BM_DemuxMatchLastWithReordering(benchmark::State& state) {
  pf::PacketFilter filter;
  filter.SetBusyReordering(true);
  for (int socket = 1; socket <= 32; ++socket) {
    const pf::PortId port = filter.OpenPort();
    // Equal priority: application order is open order, then busyness.
    filter.SetFilter(port, pfnet::MakePupSocketFilter(static_cast<uint32_t>(socket), 10));
    filter.SetQueueLimit(port, 1);
  }
  const auto packet = pftest::MakePupFrame(8, 32);
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.Demux(packet));
  }
}
BENCHMARK(BM_DemuxMatchLastWithReordering);

}  // namespace

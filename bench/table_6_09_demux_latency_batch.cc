// Table 6-9: per-packet cost of user-level demultiplexing *with
// received-packet batching* (bursts of 4+ packets per read, §6.5.3).
//
// OCR caveat: the reprint's table rows are garbled; we follow the only
// consistent reading (kernel 1.9/3.5 ms, user process 2.4/5.9 ms at
// 128/1500 bytes) — batching narrows the gap but the kernel still wins.
// Four more rows measure kernel demultiplexing over shared-memory ring
// delivery and ring + poll mode (DESIGN.md §13).
#include <cmath>

#include "bench/recv_common.h"

static int BenchMain(int /*argc*/, char** /*argv*/) {
  using pfbench::MeasureReceivePerPacketMs;
  using pfbench::RecvConfig;

  RecvConfig base;
  base.burst = 4;
  base.batching = true;

  RecvConfig kernel128 = base;
  kernel128.frame_total = 128;
  RecvConfig kernel1500 = base;
  kernel1500.frame_total = 1500;
  RecvConfig user128 = kernel128;
  user128.user_demux = true;
  RecvConfig user1500 = kernel1500;
  user1500.user_demux = true;

  RecvConfig ring128 = kernel128;
  ring128.ring_slots = 128;
  RecvConfig ring1500 = kernel1500;
  ring1500.ring_slots = 128;
  RecvConfig ring_poll128 = ring128;
  ring_poll128.poll = true;
  RecvConfig ring_poll1500 = ring1500;
  ring_poll1500.poll = true;

  const double nan = std::nan("");
  const std::vector<pfbench::Row> rows = {
      {"128 bytes, demux in kernel", 1.9, MeasureReceivePerPacketMs(kernel128)},
      {"128 bytes, demux in user process", 2.4, MeasureReceivePerPacketMs(user128)},
      {"1500 bytes, demux in kernel", 3.5, MeasureReceivePerPacketMs(kernel1500)},
      {"1500 bytes, demux in user process", 5.9, MeasureReceivePerPacketMs(user1500)},
      {"128 bytes, kernel + ring", nan, MeasureReceivePerPacketMs(ring128)},
      {"128 bytes, kernel + ring + poll", nan, MeasureReceivePerPacketMs(ring_poll128)},
      {"1500 bytes, kernel + ring", nan, MeasureReceivePerPacketMs(ring1500)},
      {"1500 bytes, kernel + ring + poll", nan, MeasureReceivePerPacketMs(ring_poll1500)},
  };
  pfbench::PrintTable(
      "Table 6-9: User-level demultiplexing with received-packet batching",
      "elapsed receive time, batches of 4, §6.5.3", "(ms)", rows);
  pfbench::PrintNote(
      "batching amortizes the wakeup switch + read syscall over the burst; copies remain "
      "per-packet.");
  return 0;
}

PFBENCH_MAIN("table_6_09_demux_latency_batch", BenchMain)

// Table 6-8: "Per-packet cost of user-level demultiplexing" — elapsed time
// to receive a packet when demultiplexing is done in the kernel (packet
// filter, fig. 2-2) vs. in a user process forwarding through a pipe
// (fig. 2-1). No batching. Four more rows measure kernel demultiplexing
// over the DESIGN.md §13 delivery modes (shared-memory ring, ring + poll).
//
// With `--trace=<file.json>` (`pfbench table_6_08_demux_latency
// --trace=<file.json>`) the kernel-demux 128-byte run is repeated with a
// TraceSession attached and the resulting Chrome trace_event JSON written
// to <file.json> (load it in Perfetto / chrome://tracing).
#include <cmath>
#include <cstring>
#include <string>

#include "bench/recv_common.h"
#include "src/obs/trace.h"

static int BenchMain(int argc, char** argv) {
  using pfbench::MeasureReceivePerPacketMs;
  using pfbench::RecvConfig;

  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      trace_path = argv[i] + 8;
    } else {
      std::fprintf(stderr, "usage: %s [--trace=<file.json>]\n", argv[0]);
      return 2;
    }
  }

  RecvConfig kernel128;
  kernel128.frame_total = 128;
  RecvConfig kernel1500 = kernel128;
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
      {"128 bytes, demux in kernel", 2.3, MeasureReceivePerPacketMs(kernel128)},
      {"128 bytes, demux in user process", 5.0, MeasureReceivePerPacketMs(user128)},
      {"1500 bytes, demux in kernel", 4.0, MeasureReceivePerPacketMs(kernel1500)},
      {"1500 bytes, demux in user process", 9.0, MeasureReceivePerPacketMs(user1500)},
      {"128 bytes, kernel + ring", nan, MeasureReceivePerPacketMs(ring128)},
      {"128 bytes, kernel + ring + poll", nan, MeasureReceivePerPacketMs(ring_poll128)},
      {"1500 bytes, kernel + ring", nan, MeasureReceivePerPacketMs(ring1500)},
      {"1500 bytes, kernel + ring + poll", nan, MeasureReceivePerPacketMs(ring_poll1500)},
  };
  pfbench::PrintTable(
      "Table 6-8: Per-packet cost of user-level demultiplexing",
      "elapsed receive time, no batching, §6.5.3", "(ms)", rows);
  pfbench::PrintNote(
      "the user-process path adds 2 context switches, 2 syscalls, and 2 copies per packet "
      "(the paper's analytical model, §6.5.1).");

  if (!trace_path.empty()) {
    pfobs::TraceSession session;
    RecvConfig traced = kernel128;
    traced.bursts = 10;  // a short run keeps the trace readable
    traced.trace = &session;
    MeasureReceivePerPacketMs(traced);
    if (session.event_count() == 0) {
      std::fprintf(stderr, "--trace: no events recorded\n");
      return 1;
    }
    if (!session.WriteChromeTraceFile(trace_path)) {
      std::fprintf(stderr, "--trace: cannot write %s\n", trace_path.c_str());
      return 1;
    }
    std::printf("    trace: %zu events -> %s\n", session.event_count(), trace_path.c_str());
  }
  return 0;
}

PFBENCH_MAIN("table_6_08_demux_latency", BenchMain)

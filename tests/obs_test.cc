// Observability subsystem (src/obs): metrics registry semantics, trace
// session recording and Chrome trace_event export, the end-to-end span/flow
// instrumentation of a two-machine user-level VMTP transaction, and the
// reconciliation of the per-strategy filter-eval histograms with the Ledger.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <string>
#include <vector>

#include "src/kernel/machine.h"
#include "src/kernel/pf_device.h"
#include "src/net/vmtp.h"
#include "src/obs/metrics.h"
#include "src/obs/sampler.h"
#include "src/obs/trace.h"
#include "src/pf/builder.h"

namespace {

using pfkern::Cost;
using pfkern::Machine;
using pflink::EthernetSegment;
using pflink::LinkType;
using pflink::MacAddr;
using pfobs::Phase;
using pfobs::TraceEvent;
using pfobs::TraceSession;
using pfsim::Seconds;
using pfsim::Simulator;
using pfsim::Task;

// ------------------------------------------------------------------ metrics

TEST(MetricsTest, CounterAndGauge) {
  pfobs::MetricsRegistry registry;
  uint64_t field = 2;  // counts before the Expose are not the counter's
  registry.Expose("a.b", &field);
  const pfobs::Counter* c = registry.FindCounter("a.b");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value(), 0u);
  field += 5;
  EXPECT_EQ(c->value(), 5u);  // read in place: no second count
  EXPECT_EQ(registry.FindCounter("missing"), nullptr);

  pfobs::Gauge* g = registry.gauge("g");
  g->Set(10);
  g->Add(-3);
  EXPECT_EQ(g->value(), 7);

  registry.Reset();
  EXPECT_EQ(c->value(), 0u);  // cached pointer survives Reset
  EXPECT_EQ(field, 7u);       // the owner's field is untouched
  ++field;
  EXPECT_EQ(c->value(), 1u);
  EXPECT_EQ(g->value(), 0);
  registry.Retire(field);
}

// An owner that goes away first folds its count into the registry, and a
// later owner of the same name counts on from there.
TEST(MetricsTest, RetiredOwnerFoldsAndALaterOwnerCountsOn) {
  pfobs::MetricsRegistry registry;
  const pfobs::Counter* c = nullptr;
  {
    struct Stats {
      uint64_t hits = 0;
      uint64_t misses = 0;
    } first;
    registry.Expose("t.hits", &first.hits);
    registry.Expose("t.misses", &first.misses);
    c = registry.FindCounter("t.hits");
    first.hits = 4;
    first.misses = 9;
    registry.Retire(first);
    first.hits = 100;  // no longer read
    EXPECT_EQ(c->value(), 4u);
  }
  EXPECT_EQ(c->value(), 4u);  // the folded value outlives the owner
  EXPECT_EQ(registry.FindCounter("t.misses")->value(), 9u);

  uint64_t second = 50;
  registry.Expose("t.hits", &second);
  EXPECT_EQ(c->value(), 4u);
  second += 3;
  EXPECT_EQ(c->value(), 7u);
  registry.Retire(second);
  ++second;
  EXPECT_EQ(c->value(), 7u);
  EXPECT_NE(registry.ToJson().find("\"t.hits\":7"), std::string::npos);
}

TEST(MetricsTest, HistogramBucketsAndPercentiles) {
  pfobs::Histogram hist({10, 100, 1000});
  EXPECT_EQ(hist.Percentile(0.5), 0);  // empty

  for (int i = 0; i < 90; ++i) {
    hist.Record(5);  // first bucket (<=10)
  }
  for (int i = 0; i < 9; ++i) {
    hist.Record(50);  // second bucket (<=100)
  }
  hist.Record(5000);  // overflow bucket

  EXPECT_EQ(hist.count(), 100u);
  EXPECT_EQ(hist.min(), 5);
  EXPECT_EQ(hist.max(), 5000);
  EXPECT_EQ(hist.sum(), 90 * 5 + 9 * 50 + 5000);
  // Bucket-resolution percentiles: p50 lands in the first bucket, p99 in
  // the second, and the overflow bucket reports the exact max.
  EXPECT_EQ(hist.Percentile(0.50), 10);
  EXPECT_EQ(hist.Percentile(0.99), 100);
  EXPECT_EQ(hist.Percentile(1.0), 5000);

  hist.Reset();
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.sum(), 0);
}

TEST(MetricsTest, DefaultLatencyBounds) {
  const std::vector<int64_t> bounds = pfobs::DefaultLatencyBoundsNs();
  ASSERT_FALSE(bounds.empty());
  EXPECT_EQ(bounds.front(), 1000);  // 1 us
  EXPECT_TRUE(std::is_sorted(bounds.begin(), bounds.end()));
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_EQ(bounds[i], bounds[i - 1] * 2);
  }
}

TEST(MetricsTest, DumpFormats) {
  pfobs::MetricsRegistry registry;
  uint64_t packets_in = 0;
  registry.Expose("pf.demux.packets_in", &packets_in);
  packets_in = 3;
  registry.gauge("queue.depth")->Set(-2);
  registry.histogram("lat")->Record(2000);

  const std::string text = registry.ToText();
  EXPECT_NE(text.find("pf.demux.packets_in"), std::string::npos);
  EXPECT_NE(text.find("queue.depth"), std::string::npos);
  EXPECT_NE(text.find("lat"), std::string::npos);

  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"pf.demux.packets_in\":3"), std::string::npos);
  EXPECT_NE(json.find("\"queue.depth\":-2"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

// Percentile edge cases (documented in metrics.h): an empty histogram
// reports 0 for every quantile; with data the result is clamped to the
// observed [min, max], so a single sample answers *itself* for every
// quantile and an all-overflow histogram answers its exact max rather
// than a bucket bound.
TEST(MetricsTest, PercentileEdgeCases) {
  pfobs::Histogram empty({10, 100});
  EXPECT_EQ(empty.Percentile(0.0), 0);
  EXPECT_EQ(empty.Percentile(0.99), 0);
  EXPECT_EQ(empty.Percentile(1.0), 0);

  pfobs::Histogram one({10, 100});
  one.Record(7);
  EXPECT_EQ(one.Percentile(0.0), 7);
  EXPECT_EQ(one.Percentile(0.5), 7);  // bucket bound 10 clamped down to max=7
  EXPECT_EQ(one.Percentile(0.99), 7);
  EXPECT_EQ(one.Percentile(1.0), 7);

  pfobs::Histogram overflow({10});
  overflow.Record(5000);
  overflow.Record(9000);
  EXPECT_EQ(overflow.Percentile(0.5), 9000);  // overflow bucket: exact max
  EXPECT_EQ(overflow.Percentile(1.0), 9000);

  // Low quantiles never report below the observed minimum.
  pfobs::Histogram spread({10, 100, 1000});
  spread.Record(50);
  spread.Record(500);
  EXPECT_GE(spread.Percentile(0.0), 50);
  EXPECT_LE(spread.Percentile(1.0), 500);
}

// ----------------------------------------------------------------- sampler

TEST(SamplerTest, SelectorsColumnsAndCsv) {
  pfobs::MetricsRegistry registry;
  uint64_t no_match = 0;
  uint64_t packets_in = 0;
  uint64_t frames_out = 0;
  registry.Expose("pf.drop.no_match", &no_match);
  registry.Expose("pf.demux.packets_in", &packets_in);
  registry.Expose("nic.frames_out", &frames_out);  // not selected
  no_match = 3;
  packets_in = 10;
  frames_out = 99;
  registry.histogram("pf.demux.latency")->Record(2000);

  pfobs::MetricsSampler sampler(&registry, {"pf.*"});
  sampler.Sample(1000);
  no_match += 2;
  sampler.Sample(2000);

  EXPECT_EQ(sampler.row_count(), 2u);
  const auto& columns = sampler.columns();
  const auto has = [&columns](const std::string& name) {
    return std::find(columns.begin(), columns.end(), name) != columns.end();
  };
  EXPECT_TRUE(has("pf.drop.no_match"));
  EXPECT_TRUE(has("pf.demux.packets_in"));
  EXPECT_FALSE(has("nic.frames_out"));
  // A histogram expands to three derived columns.
  EXPECT_TRUE(has("pf.demux.latency.count"));
  EXPECT_TRUE(has("pf.demux.latency.p50"));
  EXPECT_TRUE(has("pf.demux.latency.p99"));

  const std::string csv = sampler.ToCsv();
  EXPECT_EQ(csv.rfind("time_ns,", 0), 0u);  // header leads with the timestamp
  EXPECT_NE(csv.find("pf.drop.no_match"), std::string::npos);
  EXPECT_NE(csv.find("\n1000,"), std::string::npos);
  EXPECT_NE(csv.find("\n2000,"), std::string::npos);
}

TEST(SamplerTest, LateRegisteredColumnsBackfillAsZero) {
  pfobs::MetricsRegistry registry;
  uint64_t a = 0;
  uint64_t b = 0;
  registry.Expose("pf.a", &a);
  a = 1;
  pfobs::MetricsSampler sampler(&registry, {"pf.*"});
  sampler.Sample(10);
  registry.Expose("pf.b", &b);  // appears after the first row
  b = 5;
  sampler.Sample(20);

  ASSERT_EQ(sampler.columns().size(), 2u);  // pf.a, pf.b (time_ns is implicit)
  const std::string csv = sampler.ToCsv();
  // Row 1 exports 0 for the column that didn't exist yet; row 2 has it.
  EXPECT_NE(csv.find("10,1,0"), std::string::npos);
  EXPECT_NE(csv.find("20,1,5"), std::string::npos);
}

TEST(SamplerTest, JsonExportIsWellFormed) {
  pfobs::MetricsRegistry registry;
  uint64_t x = 0;
  registry.Expose("pf.x", &x);
  x = 2;
  registry.gauge("pf.depth")->Set(-4);
  pfobs::MetricsSampler sampler(&registry, {});  // empty selector: everything
  sampler.Sample(100);
  sampler.Sample(200);

  const std::string json = sampler.ToJson();
  EXPECT_NE(json.find("\"columns\""), std::string::npos);
  EXPECT_NE(json.find("\"rows\""), std::string::npos);
  EXPECT_NE(json.find("\"pf.depth\""), std::string::npos);
}

// ---------------------------------------------------- minimal JSON checker

// A tiny recursive-descent JSON syntax validator — enough to prove the
// Chrome trace export is well-formed without a JSON library dependency.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool Valid() {
    SkipWs();
    if (!Value()) {
      return false;
    }
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  bool Value() {
    if (pos_ >= text_.size()) {
      return false;
    }
    switch (text_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWs();
      if (!String()) {
        return false;
      }
      SkipWs();
      if (Peek() != ':') {
        return false;
      }
      ++pos_;
      SkipWs();
      if (!Value()) {
        return false;
      }
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWs();
      if (!Value()) {
        return false;
      }
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') {
      return false;
    }
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        ++pos_;
      }
      ++pos_;
    }
    if (pos_ >= text_.size()) {
      return false;
    }
    ++pos_;  // closing quote
    return true;
  }

  bool Number() {
    const size_t start = pos_;
    if (Peek() == '-') {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(const char* word) {
    const size_t n = std::string(word).size();
    if (text_.compare(pos_, n, word) != 0) {
      return false;
    }
    pos_ += n;
    return true;
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

TEST(JsonCheckerTest, SanityOnKnownInputs) {
  EXPECT_TRUE(JsonChecker(R"({"a":[1,2.5,-3],"b":"x\"y","c":null})").Valid());
  EXPECT_FALSE(JsonChecker(R"({"a":1,})").Valid());
  EXPECT_FALSE(JsonChecker(R"([1,2)").Valid());
}

TEST(SamplerTest, JsonExportValidates) {
  pfobs::MetricsRegistry registry;
  uint64_t x = 0;
  registry.Expose("pf.x", &x);
  x = 2;
  registry.histogram("pf.lat")->Record(1500);
  pfobs::MetricsSampler sampler(&registry, {"pf.*"});
  sampler.Sample(100);
  sampler.Sample(200);
  const std::string json = sampler.ToJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
}

// -------------------------------------------------------------------- trace

TEST(TraceTest, RecordsAndExportsValidChromeJson) {
  TraceSession session;
  const int track = session.RegisterTrack("m1");
  session.Complete(track, "kernel", "interrupt", 1000, 1500, {{"bytes", 128}});
  session.Instant(track, "pf", "pf.wakeup", 1500, {{"readers", 1}});
  session.Flow(Phase::kFlowStart, track, 1000, 7);
  session.Flow(Phase::kFlowEnd, track, 2000, 7);
  EXPECT_EQ(session.event_count(), 4u);

  const std::string json = session.ToChromeTraceJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":0.500"), std::string::npos);  // 500 ns as us
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
}

TEST(TraceTest, PromotesFirstStepOfUnseenFlowToStart) {
  TraceSession session;
  const int track = session.RegisterTrack("m");
  session.Flow(Phase::kFlowStep, track, 10, 42);  // no start emitted yet
  session.Flow(Phase::kFlowStep, track, 20, 42);
  ASSERT_EQ(session.event_count(), 2u);
  EXPECT_EQ(session.events()[0].phase, Phase::kFlowStart);
  EXPECT_EQ(session.events()[1].phase, Phase::kFlowStep);
}

// --------------------------------------- end-to-end: two-machine VMTP trace

int64_t FlowArg(const TraceEvent& event) {
  for (const auto& [key, value] : event.args) {
    if (std::string(key) == "flow") {
      return value;
    }
  }
  return 0;
}

// A user-level VMTP transaction between two machines with tracing attached:
// one packet (the request) must be followable sender-syscall -> receiver
// user-level read, as a flow whose spans appear in causal order.
TEST(TraceEndToEndTest, VmtpTransactionProducesFollowableFlow) {
  Simulator sim;
  EthernetSegment segment(&sim, LinkType::kEthernet10Mb);
  Machine client_machine(&sim, &segment, MacAddr::Dix(2, 0, 0, 0, 0, 1),
                         pfkern::MicroVaxUltrixCosts(), "client");
  Machine server_machine(&sim, &segment, MacAddr::Dix(2, 0, 0, 0, 0, 2),
                         pfkern::MicroVaxUltrixCosts(), "server");

  TraceSession session;
  client_machine.AttachTrace(&session);
  server_machine.AttachTrace(&session);
  const int client_track = client_machine.trace_track();
  const int server_track = server_machine.trace_track();
  ASSERT_NE(client_track, server_track);
  ASSERT_EQ(session.tracks().size(), 2u);

  constexpr uint32_t kServerId = 0x51;
  constexpr uint32_t kClientId = 0xc1;
  std::optional<std::vector<uint8_t>> response;
  auto scenario = [&]() -> Task {
    auto server = co_await pfnet::UserVmtpServer::Create(&server_machine,
                                                         server_machine.NewPid(), kServerId,
                                                         /*batching=*/true);
    auto client = co_await pfnet::UserVmtpClient::Create(&client_machine,
                                                         client_machine.NewPid(), kClientId,
                                                         /*batching=*/true);
    auto echo = [&]() -> Task {
      const int pid = server_machine.NewPid();
      auto request = co_await server->ReceiveRequest(pid, Seconds(30));
      if (request.has_value()) {
        co_await server->SendResponse(pid, *request, request->data);
      }
    };
    sim.Spawn(echo());
    std::vector<uint8_t> request = {'p', 'k', 't'};
    response = co_await client->Transact(client_machine.NewPid(),
                                         server_machine.link_addr(), kServerId,
                                         std::move(request), Seconds(10));
    co_await sim.Delay(Seconds(1));
    (void)server;
    (void)client;
  };
  sim.Spawn(scenario());
  sim.Run();
  ASSERT_TRUE(response.has_value());

  const std::vector<TraceEvent>& events = session.events();
  ASSERT_FALSE(events.empty());

  // Find a packet flow that starts on the client track (the request leaving
  // the client's driver) and ends on the server track (the server process
  // reading it from its packet-filter port).
  uint64_t flow = 0;
  for (const TraceEvent& event : events) {
    if (event.phase == Phase::kFlowStart && event.track == client_track) {
      const uint64_t candidate = event.flow_id;
      const bool ends_on_server =
          std::any_of(events.begin(), events.end(), [&](const TraceEvent& other) {
            return other.phase == Phase::kFlowEnd && other.track == server_track &&
                   other.flow_id == candidate;
          });
      if (ends_on_server) {
        flow = candidate;
        break;
      }
    }
  }
  ASSERT_NE(flow, 0u) << "no flow runs client -> server";

  // The request packet's span sequence, in causal order:
  //   client: vmtp.user.send_proc, pf.write, driver.send
  //   server: interrupt -> pf.demux -> pf.read (which ends the flow).
  auto find_span = [&](const char* name, int track, uint64_t want_flow) -> const TraceEvent* {
    for (const TraceEvent& event : events) {
      if (event.phase == Phase::kComplete && std::string(event.name) == name &&
          event.track == track && (want_flow == 0 || FlowArg(event) == int64_t(want_flow))) {
        return &event;
      }
    }
    return nullptr;
  };

  const TraceEvent* send = find_span("driver.send", client_track, flow);
  const TraceEvent* interrupt = find_span("interrupt", server_track, flow);
  const TraceEvent* demux = find_span("pf.demux", server_track, flow);
  ASSERT_NE(send, nullptr);
  ASSERT_NE(interrupt, nullptr);
  ASSERT_NE(demux, nullptr);
  EXPECT_LE(send->ts_ns, interrupt->ts_ns);
  EXPECT_LE(interrupt->ts_ns + interrupt->dur_ns, demux->ts_ns + demux->dur_ns);

  // The user-level protocol + device surface spans all appear.
  EXPECT_NE(find_span("vmtp.user.send_proc", client_track, 0), nullptr);
  EXPECT_NE(find_span("pf.write", client_track, 0), nullptr);
  EXPECT_NE(find_span("pf.read", server_track, 0), nullptr);
  EXPECT_NE(find_span("vmtp.user.recv_proc", server_track, 0), nullptr);

  // The flow end is stamped by the server's read, after the demux finished.
  const TraceEvent* flow_end = nullptr;
  for (const TraceEvent& event : events) {
    if (event.phase == Phase::kFlowEnd && event.flow_id == flow) {
      flow_end = &event;
    }
  }
  ASSERT_NE(flow_end, nullptr);
  EXPECT_EQ(flow_end->track, server_track);
  EXPECT_GE(flow_end->ts_ns, demux->ts_ns + demux->dur_ns);

  // And the whole thing exports as valid Chrome trace JSON.
  EXPECT_TRUE(JsonChecker(session.ToChromeTraceJson()).Valid());

  // Machine-level metrics saw the same traffic the trace did.
  EXPECT_GT(client_machine.metrics().FindCounter("nic.frames_out")->value(), 0u);
  EXPECT_GT(server_machine.metrics().FindCounter("pf.demux.packets_in")->value(), 0u);
  EXPECT_GT(server_machine.metrics().FindCounter("pfdev.reads")->value(), 0u);
  EXPECT_GT(server_machine.metrics().FindCounter("pfdev.wakeups")->value(), 0u);
  // Every frame wakes exactly the ports its demux reached: one wakeup per
  // enqueued copy, even when frames' interrupt work overlaps.
  for (Machine* machine : {&client_machine, &server_machine}) {
    EXPECT_EQ(machine->metrics().FindCounter("pfdev.wakeups")->value(),
              machine->metrics().FindCounter("pf.demux.deliveries")->value())
        << machine->name();
  }
}

// ------------------------------- filter-eval histogram <-> ledger reconcile

TEST(ObsReconcileTest, FilterEvalHistogramMatchesLedger) {
  Simulator sim;
  EthernetSegment segment(&sim, LinkType::kEthernet10Mb);
  Machine machine(&sim, &segment, MacAddr::Dix(2, 0, 0, 0, 0, 9),
                  pfkern::MicroVaxUltrixCosts(), "m");
  machine.pf().core().SetStrategy(pf::Strategy::kFast);

  // A 5-instruction filter so every demux charges a non-zero kFilterEval.
  pf::FilterBuilder builder;
  builder.PushOne();
  for (int i = 1; i < 5; ++i) {
    builder.ConstOp(pf::StackAction::kPushOne, pf::BinaryOp::kAnd);
  }

  pflink::LinkHeader link;
  link.dst = machine.link_addr();
  link.src = MacAddr::Dix(2, 0, 0, 0, 0, 8);
  link.ether_type = 0x3333;
  const pflink::Frame frame =
      *pflink::BuildFrame(LinkType::kEthernet10Mb, link, std::vector<uint8_t>(64, 0xaa));

  int packets_read = 0;
  auto reader = [&]() -> Task {
    const int pid = machine.NewPid();
    const pf::PortId port = co_await machine.pf().Open(pid);
    co_await machine.pf().SetFilter(pid, port, builder.Build(10));
    machine.ledger().Reset();
    for (int i = 0; i < 20; ++i) {
      machine.OnFrameDelivered(frame, sim.Now());
    }
    while (packets_read < 20) {
      const auto got = co_await machine.pf().Read(pid, port, Seconds(5));
      if (got.empty()) {
        break;
      }
      packets_read += static_cast<int>(got.size());
    }
  };
  sim.Spawn(reader());
  sim.Run();
  ASSERT_EQ(packets_read, 20);

  const pfobs::Histogram* hist = machine.metrics().FindHistogram("pf.filter_eval.fast");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count(), machine.ledger().count(Cost::kFilterEval));
  EXPECT_EQ(hist->sum(), machine.ledger().total(Cost::kFilterEval).count());
  EXPECT_GT(hist->count(), 0u);
  // The other strategies' histograms exist but stay empty.
  const pfobs::Histogram* indexed = machine.metrics().FindHistogram("pf.filter_eval.indexed");
  ASSERT_NE(indexed, nullptr);
  EXPECT_EQ(indexed->count(), 0u);

  // SnapshotText/SnapshotJson bundle ledger + registry; spot-check both.
  const std::string text = machine.SnapshotText();
  EXPECT_NE(text.find("pf.filter_eval.fast"), std::string::npos);
  EXPECT_NE(text.find("filter evaluation"), std::string::npos);
  const std::string json = machine.SnapshotJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"ledger.filter_eval.total_ns\""), std::string::npos);
}

}  // namespace

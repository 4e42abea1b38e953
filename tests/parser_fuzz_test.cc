// Seeded, time-boxed generators for the repository's parsers: the JSON
// reader behind `pfbench --compare` and pfstat --trend (pfutil::ParseJson),
// and the src/proto wire codecs (IPv4, UDP, TCP-lite, Pup, VMTP, ARP/RARP).
//
// * Round trip: a random value is built (or, for JSON, written with random
//   whitespace and escapes) and parsed back to the same value.
// * Mutated-valid and random input: byte flips, truncations, insertions and
//   duplicated ranges of a valid encoding, and plain random bytes, must parse
//   or fail cleanly. What parses must be self-consistent: views stay inside
//   the input and agree with its length fields; checksummed headers flag a
//   single flipped bit; a JSON value re-written and re-read is unchanged.
// * Regression seeds: minimized inputs that once broke a parser, replayed on
//   every run (kJsonRegressions, the surrogate case and the numbers the
//   JSON grammar forbids, below).
//
// Run under ASan+UBSan, a crash or an out-of-bounds read is a failure on its
// own. The first seed always runs; further seeds run while the budget lasts
// (PF_PARSER_FUZZ_SECONDS, default 1 per test). A failure names its seed;
// PF_PARSER_FUZZ_SEED=N PF_PARSER_FUZZ_SECONDS=0 replays exactly that seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "src/proto/arp_rarp.h"
#include "src/proto/ip.h"
#include "src/proto/pup.h"
#include "src/proto/vmtp.h"
#include "src/util/json.h"
#include "src/util/rng.h"

namespace {

using pfutil::JsonValue;
using pfutil::Rng;

constexpr int kCasesPerSeed = 200;

// Runs body(rng) kCasesPerSeed times per seed while the budget lasts.
void RunSeeds(const std::function<void(Rng&)>& body) {
  const char* seconds_env = std::getenv("PF_PARSER_FUZZ_SECONDS");
  const char* seed_env = std::getenv("PF_PARSER_FUZZ_SEED");
  const double budget_s = seconds_env != nullptr ? std::atof(seconds_env) : 1.0;
  const uint64_t first_seed = seed_env != nullptr ? std::strtoull(seed_env, nullptr, 10) : 1;
  const auto start = std::chrono::steady_clock::now();
  const auto elapsed_s = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  };
  uint64_t seed = first_seed;
  do {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    for (int i = 0; i < kCasesPerSeed; ++i) {
      body(rng);
      if (::testing::Test::HasFailure()) {
        return;
      }
    }
    ++seed;
  } while (elapsed_s() < budget_s);
  ::testing::Test::RecordProperty("seeds", static_cast<int>(seed - first_seed));
}

std::vector<uint8_t> RandomBytes(Rng& rng, size_t n) {
  std::vector<uint8_t> out(n);
  for (uint8_t& b : out) {
    b = rng.NextU8();
  }
  return out;
}

// One to four random edits of `in`: flip a bit, overwrite a byte, delete or
// duplicate a range, insert a byte, or truncate.
template <typename Bytes>
Bytes Mutate(Rng& rng, Bytes in) {
  const uint64_t edits = rng.Range(1, 4);
  for (uint64_t e = 0; e < edits; ++e) {
    const size_t n = in.size();
    const size_t at = n == 0 ? 0 : rng.Below(n);
    switch (rng.Below(6)) {
      case 0:
        if (n > 0) {
          in[at] ^= static_cast<uint8_t>(1u << rng.Below(8));
        }
        break;
      case 1:
        if (n > 0) {
          in[at] = static_cast<typename Bytes::value_type>(rng.NextU8());
        }
        break;
      case 2:
        in.erase(in.begin() + at, in.begin() + at + rng.Range(0, n - at));
        break;
      case 3: {
        const size_t len = rng.Range(0, std::min<size_t>(n - at, 64));
        const Bytes copy(in.begin() + at, in.begin() + at + len);
        in.insert(in.begin() + at, copy.begin(), copy.end());
        break;
      }
      case 4:
        in.insert(in.begin() + at, static_cast<typename Bytes::value_type>(rng.NextU8()));
        break;
      default:
        in.resize(n == 0 ? 0 : rng.Below(n));
        break;
    }
  }
  return in;
}

// --------------------------------------------------------------- JSON

void AppendUtf8(uint32_t cp, std::string* s) {
  if (cp < 0x80) {
    *s += static_cast<char>(cp);
  } else if (cp < 0x800) {
    *s += static_cast<char>(0xC0 | (cp >> 6));
    *s += static_cast<char>(0x80 | (cp & 0x3F));
  } else if (cp < 0x10000) {
    *s += static_cast<char>(0xE0 | (cp >> 12));
    *s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    *s += static_cast<char>(0x80 | (cp & 0x3F));
  } else {
    *s += static_cast<char>(0xF0 | (cp >> 18));
    *s += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
    *s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    *s += static_cast<char>(0x80 | (cp & 0x3F));
  }
}

std::string Hex4(uint32_t v) {
  char buf[8];
  std::snprintf(buf, sizeof(buf), "\\u%04X", v);
  return buf;
}

// A random string: `text` gets the JSON literal (raw UTF-8 or escapes, at
// random), the return value the bytes it must parse to.
std::string RandomJsonString(Rng& rng, std::string* text) {
  std::string value;
  *text += '"';
  const uint64_t n = rng.Below(12);
  for (uint64_t i = 0; i < n; ++i) {
    uint32_t cp = 0;
    switch (rng.Below(5)) {
      case 0: cp = static_cast<uint32_t>(rng.Below(0x20)); break;        // control
      case 1: cp = static_cast<uint32_t>(rng.Range(0x20, 0x7E)); break;  // ASCII
      case 2: cp = static_cast<uint32_t>(rng.Range(0x80, 0xD7FF)); break;
      case 3: cp = static_cast<uint32_t>(rng.Range(0xE000, 0xFFFF)); break;
      default: cp = static_cast<uint32_t>(rng.Range(0x10000, 0x10FFFF)); break;
    }
    AppendUtf8(cp, &value);
    const bool must_escape = cp < 0x20 || cp == '"' || cp == '\\';
    if (!must_escape && rng.Chance(0.6)) {
      AppendUtf8(cp, text);
    } else if (cp >= 0x10000) {
      const uint32_t v = cp - 0x10000;
      *text += Hex4(0xD800 + (v >> 10)) + Hex4(0xDC00 + (v & 0x3FF));
    } else if (cp == '\n' && rng.Chance(0.5)) {
      *text += "\\n";
    } else if (cp == '"' && rng.Chance(0.5)) {
      *text += "\\\"";
    } else {
      *text += Hex4(cp);
    }
  }
  *text += '"';
  return value;
}

void RandomWs(Rng& rng, std::string* text) {
  static constexpr char kWs[] = {' ', '\t', '\n', '\r'};
  while (rng.Chance(0.3)) {
    *text += kWs[rng.Below(4)];
  }
}

// A random value of nesting depth at most `depth`, written into `text`.
JsonValue RandomJson(Rng& rng, int depth, std::string* text) {
  RandomWs(rng, text);
  JsonValue value;
  switch (rng.Below(depth > 0 ? 7 : 5)) {
    case 0:
      *text += "null";
      break;
    case 1: {
      const bool b = rng.Chance(0.5);
      *text += b ? "true" : "false";
      value = JsonValue::MakeBool(b);
      break;
    }
    case 2: {
      double v = static_cast<double>(static_cast<int64_t>(rng.Next() >> rng.Below(64)));
      if (rng.Chance(0.5)) {
        v = std::ldexp(static_cast<double>(rng.Next() >> 11), static_cast<int>(rng.Below(200)) - 150);
      }
      if (rng.Chance(0.3)) {
        v = -v;
      }
      *text += pfutil::JsonNumber(v);
      value = JsonValue::MakeNumber(v);
      break;
    }
    case 3:
    case 4: {
      std::string s = RandomJsonString(rng, text);
      value = JsonValue::MakeString(std::move(s));
      break;
    }
    case 5: {
      *text += '[';
      std::vector<JsonValue> items;
      const uint64_t n = rng.Below(4);
      for (uint64_t i = 0; i < n; ++i) {
        if (i > 0) {
          *text += ',';
        }
        items.push_back(RandomJson(rng, depth - 1, text));
      }
      RandomWs(rng, text);
      *text += ']';
      value = JsonValue::MakeArray(std::move(items));
      break;
    }
    default: {
      *text += '{';
      std::map<std::string, JsonValue> members;
      const uint64_t n = rng.Below(4);
      for (uint64_t i = 0; i < n; ++i) {
        if (i > 0) {
          *text += ',';
        }
        RandomWs(rng, text);
        std::string key = RandomJsonString(rng, text);
        RandomWs(rng, text);
        *text += ':';
        members[std::move(key)] = RandomJson(rng, depth - 1, text);  // last key wins
      }
      RandomWs(rng, text);
      *text += '}';
      value = JsonValue::MakeObject(std::move(members));
      break;
    }
  }
  RandomWs(rng, text);
  return value;
}

bool JsonEqual(const JsonValue& a, const JsonValue& b) {
  if (a.kind() != b.kind()) {
    return false;
  }
  switch (a.kind()) {
    case JsonValue::Kind::kNull: return true;
    case JsonValue::Kind::kBool: return a.AsBool() == b.AsBool();
    case JsonValue::Kind::kNumber:
      return a.AsNumber() == b.AsNumber() ||
             (std::isnan(a.AsNumber()) && std::isnan(b.AsNumber()));
    case JsonValue::Kind::kString: return a.AsString() == b.AsString();
    case JsonValue::Kind::kArray: {
      const auto& x = a.AsArray();
      const auto& y = b.AsArray();
      if (x.size() != y.size()) {
        return false;
      }
      for (size_t i = 0; i < x.size(); ++i) {
        if (!JsonEqual(x[i], y[i])) {
          return false;
        }
      }
      return true;
    }
    case JsonValue::Kind::kObject: {
      const auto& x = a.AsObject();
      const auto& y = b.AsObject();
      if (x.size() != y.size()) {
        return false;
      }
      for (auto i = x.begin(), j = y.begin(); i != x.end(); ++i, ++j) {
        if (i->first != j->first || !JsonEqual(i->second, j->second)) {
          return false;
        }
      }
      return true;
    }
  }
  return false;
}

// Writes `v` with the repository's writer helpers (out-of-range numbers,
// which a parse of "1e999" yields, as an out-of-range literal).
void WriteJson(const JsonValue& v, std::string* out) {
  switch (v.kind()) {
    case JsonValue::Kind::kNull: *out += "null"; break;
    case JsonValue::Kind::kBool: *out += v.AsBool() ? "true" : "false"; break;
    case JsonValue::Kind::kNumber:
      if (std::isinf(v.AsNumber())) {
        *out += v.AsNumber() > 0 ? "1e999" : "-1e999";
      } else {
        *out += pfutil::JsonNumber(v.AsNumber());
      }
      break;
    case JsonValue::Kind::kString: *out += '"' + pfutil::JsonEscape(v.AsString()) + '"'; break;
    case JsonValue::Kind::kArray: {
      *out += '[';
      for (size_t i = 0; i < v.AsArray().size(); ++i) {
        *out += i > 0 ? "," : "";
        WriteJson(v.AsArray()[i], out);
      }
      *out += ']';
      break;
    }
    case JsonValue::Kind::kObject: {
      *out += '{';
      bool first = true;
      for (const auto& [key, member] : v.AsObject()) {
        *out += first ? "\"" : ",\"";
        first = false;
        *out += pfutil::JsonEscape(key) + "\":";
        WriteJson(member, out);
      }
      *out += '}';
      break;
    }
  }
}

// Whatever parses must re-read, once written, as the same value.
void ExpectStable(const std::string& text) {
  JsonValue parsed;
  std::string error;
  if (!pfutil::ParseJson(text, &parsed, &error)) {
    EXPECT_FALSE(error.empty()) << "a failed parse must say why";
    return;
  }
  std::string written;
  WriteJson(parsed, &written);
  JsonValue reread;
  ASSERT_TRUE(pfutil::ParseJson(written, &reread, &error)) << error << "\n" << written;
  EXPECT_TRUE(JsonEqual(parsed, reread)) << written;
}

// Minimized inputs that once crashed ParseJson ("deep:" repeats the rest
// 100,000 times: the recursive descent overflowed its stack); each must
// now parse, or fail cleanly.
const char* const kJsonRegressions[] = {
    "deep:[",
    "deep:{\"a\":",
};

TEST(ParserFuzzTest, JsonRoundTripsAndRejectsMalformedInputCleanly) {
  for (const char* seed : kJsonRegressions) {
    std::string text = seed;
    if (text.rfind("deep:", 0) == 0) {
      const std::string unit = text.substr(5);
      text.clear();
      for (int i = 0; i < 100000; ++i) {
        text += unit;
      }
    }
    ExpectStable(text);
  }
  RunSeeds([](Rng& rng) {
    std::string text;
    const JsonValue value = RandomJson(rng, static_cast<int>(rng.Below(6)), &text);
    JsonValue parsed;
    std::string error;
    ASSERT_TRUE(pfutil::ParseJson(text, &parsed, &error)) << error << "\n" << text;
    ASSERT_TRUE(JsonEqual(value, parsed)) << text;
    ExpectStable(Mutate(rng, text));
    // Random text over the JSON alphabet.
    static constexpr char kAlphabet[] = "{}[]\",:0123456789.eE+-truefalsn \\/u\n";
    std::string noise;
    const uint64_t n = rng.Below(40);
    for (uint64_t i = 0; i < n; ++i) {
      noise += rng.Chance(0.9) ? kAlphabet[rng.Below(sizeof(kAlphabet) - 1)]
                               : static_cast<char>(rng.NextU8());
    }
    ExpectStable(noise);
  });
}

// Regression: numbers RFC 8259 forbids used to parse (strtod took them), and
// 1e999 read as infinity, which JsonNumber writes back as null. Each is now
// a "malformed number".
TEST(ParserFuzzTest, JsonRejectsNumbersTheGrammarForbids) {
  for (const char* text : {"+1", "01", "-01", ".5", "1.", "-", "1e", "1e+", "-.5", "1.e3",
                           "1e999", "-1e999", "[1e999]", "{\"a\":01}"}) {
    JsonValue parsed;
    std::string error;
    EXPECT_FALSE(pfutil::ParseJson(text, &parsed, &error)) << text;
    EXPECT_NE(error.find("malformed number"), std::string::npos) << text << ": " << error;
  }
  for (const char* text : {"0", "-0", "1.5", "-1.25e-3", "1E+2", "2e0", "1e-999"}) {
    JsonValue parsed;
    std::string error;
    EXPECT_TRUE(pfutil::ParseJson(text, &parsed, &error)) << text << ": " << error;
    EXPECT_TRUE(std::isfinite(parsed.AsNumber())) << text;
  }
}

TEST(ParserFuzzTest, JsonNestingIsBoundedNotFatal) {
  JsonValue parsed;
  std::string error;
  std::string ok;
  for (size_t i = 0; i < pfutil::kMaxJsonDepth; ++i) {
    ok += '[';
  }
  ok += std::string(pfutil::kMaxJsonDepth, ']');
  EXPECT_TRUE(pfutil::ParseJson(ok, &parsed, &error)) << error;
  EXPECT_FALSE(pfutil::ParseJson('[' + ok + ']', &parsed, &error));
  EXPECT_NE(error.find("nesting"), std::string::npos) << error;
}

// Regression: a high surrogate followed by an escape that is not a low
// surrogate used to drop the second character.
TEST(ParserFuzzTest, JsonLoneHighSurrogateKeepsTheNextCharacter) {
  JsonValue parsed;
  std::string error;
  ASSERT_TRUE(pfutil::ParseJson("\"\\uD800\\u0041\"", &parsed, &error)) << error;
  std::string expected;
  AppendUtf8(0xD800, &expected);
  expected += 'A';
  EXPECT_EQ(parsed.AsString(), expected);
}

// --------------------------------------------------------------- src/proto

uint16_t Be16(std::span<const uint8_t> in, size_t at) {
  return static_cast<uint16_t>((in[at] << 8) | in[at + 1]);
}

// `view` lies inside `in`.
void ExpectInside(std::span<const uint8_t> view, std::span<const uint8_t> in) {
  if (!view.empty()) {
    EXPECT_GE(view.data(), in.data());
    EXPECT_LE(view.data() + view.size(), in.data() + in.size());
  }
}

// Parses `in` with every codec; what parses must agree with its own length
// fields and stay inside the input.
void ParseAll(std::span<const uint8_t> in, uint32_t src_ip, uint32_t dst_ip) {
  if (auto ip = pfproto::ParseIp(in)) {
    ExpectInside(ip->payload, in);
    EXPECT_EQ(ip->payload.size() + pfproto::kIpHeaderBytes, Be16(in, 2));
  }
  if (auto udp = pfproto::ParseUdp(in)) {
    ExpectInside(udp->payload, in);
    EXPECT_EQ(udp->payload.size() + pfproto::kUdpHeaderBytes, Be16(in, 4));
  }
  if (auto tcp = pfproto::ParseTcp(in, src_ip, dst_ip)) {
    ExpectInside(tcp->payload, in);
    EXPECT_EQ(tcp->payload.size() + pfproto::kTcpHeaderBytes, in.size());
  }
  if (auto pup = pfproto::ParsePup(in)) {
    ExpectInside(pup->data, in);
    EXPECT_EQ(pup->data.size() + pfproto::kPupHeaderBytes + pfproto::kPupChecksumBytes,
              Be16(in, 0));
  }
  if (auto vmtp = pfproto::ParseVmtp(in)) {
    ExpectInside(vmtp->data, in);
    EXPECT_EQ(vmtp->data.size(), vmtp->header.data_bytes);
  }
  if (pfproto::ParseArp(in).has_value()) {
    EXPECT_GE(in.size(), pfproto::kArpPacketBytes);
  }
}

// The same bytes with one bit flipped somewhere in [from, to).
std::vector<uint8_t> FlipOneBit(Rng& rng, std::vector<uint8_t> bytes, size_t from, size_t to) {
  bytes[rng.Range(from, to - 1)] ^= static_cast<uint8_t>(1u << rng.Below(8));
  return bytes;
}

bool SameBytes(std::span<const uint8_t> a, std::span<const uint8_t> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

TEST(ParserFuzzTest, ProtoCodecsRoundTripAndRejectMalformedInputCleanly) {
  RunSeeds([](Rng& rng) {
    const uint32_t src_ip = static_cast<uint32_t>(rng.Next());
    const uint32_t dst_ip = static_cast<uint32_t>(rng.Next());
    const std::vector<uint8_t> payload = RandomBytes(rng, rng.Below(rng.Chance(0.2) ? 1500 : 64));
    std::vector<std::vector<uint8_t>> valid;

    pfproto::IpHeader ip;
    ip.ttl = rng.NextU8();
    ip.protocol = rng.NextU8();
    ip.src = src_ip;
    ip.dst = dst_ip;
    ip.identification = rng.NextU16();
    const std::vector<uint8_t> ip_bytes = pfproto::BuildIp(ip, payload);
    const auto ip_view = pfproto::ParseIp(ip_bytes);
    ASSERT_TRUE(ip_view.has_value());
    EXPECT_TRUE(ip_view->checksum_ok);
    EXPECT_EQ(ip_view->header.ttl, ip.ttl);
    EXPECT_EQ(ip_view->header.protocol, ip.protocol);
    EXPECT_EQ(ip_view->header.src, ip.src);
    EXPECT_EQ(ip_view->header.dst, ip.dst);
    EXPECT_EQ(ip_view->header.identification, ip.identification);
    EXPECT_TRUE(SameBytes(ip_view->payload, payload));
    // The header checksum catches any one flipped header bit.
    const std::vector<uint8_t> flipped = FlipOneBit(rng, ip_bytes, 0, pfproto::kIpHeaderBytes);
    if (const auto bad = pfproto::ParseIp(flipped)) {
      EXPECT_FALSE(bad->checksum_ok);
    }
    valid.push_back(ip_bytes);

    pfproto::UdpHeader udp{rng.NextU16(), rng.NextU16()};
    const std::vector<uint8_t> udp_bytes =
        pfproto::BuildUdp(udp, src_ip, dst_ip, payload, rng.Chance(0.8));
    const auto udp_view = pfproto::ParseUdp(udp_bytes);
    ASSERT_TRUE(udp_view.has_value());
    EXPECT_EQ(udp_view->header.src_port, udp.src_port);
    EXPECT_EQ(udp_view->header.dst_port, udp.dst_port);
    EXPECT_TRUE(SameBytes(udp_view->payload, payload));
    valid.push_back(udp_bytes);

    pfproto::TcpHeader tcp;
    tcp.src_port = rng.NextU16();
    tcp.dst_port = rng.NextU16();
    tcp.seq = static_cast<uint32_t>(rng.Next());
    tcp.ack = static_cast<uint32_t>(rng.Next());
    tcp.flags = rng.NextU8();
    tcp.window = rng.NextU16();
    const std::vector<uint8_t> tcp_bytes = pfproto::BuildTcp(tcp, src_ip, dst_ip, payload);
    const auto tcp_view = pfproto::ParseTcp(tcp_bytes, src_ip, dst_ip);
    ASSERT_TRUE(tcp_view.has_value());
    EXPECT_TRUE(tcp_view->checksum_ok);
    EXPECT_EQ(tcp_view->header.seq, tcp.seq);
    EXPECT_EQ(tcp_view->header.ack, tcp.ack);
    EXPECT_EQ(tcp_view->header.flags, tcp.flags);
    EXPECT_EQ(tcp_view->header.window, tcp.window);
    EXPECT_TRUE(SameBytes(tcp_view->payload, payload));
    // The pseudo-header checksum covers the whole segment.
    const std::vector<uint8_t> tcp_flipped = FlipOneBit(rng, tcp_bytes, 0, tcp_bytes.size());
    if (const auto bad = pfproto::ParseTcp(tcp_flipped, src_ip, dst_ip)) {
      EXPECT_FALSE(bad->checksum_ok);
    }
    valid.push_back(tcp_bytes);

    pfproto::PupHeader pup;
    pup.transport_control = rng.NextU8();
    pup.type = rng.NextU8();
    pup.identifier = static_cast<uint32_t>(rng.Next());
    pup.dst = {rng.NextU8(), rng.NextU8(), static_cast<uint32_t>(rng.Next())};
    pup.src = {rng.NextU8(), rng.NextU8(), static_cast<uint32_t>(rng.Next())};
    const bool with_checksum = rng.Chance(0.8);
    const auto pup_bytes = pfproto::BuildPup(pup, payload, with_checksum);
    ASSERT_EQ(pup_bytes.has_value(), payload.size() <= pfproto::kMaxPupData);
    if (pup_bytes.has_value()) {
      const auto pup_view = pfproto::ParsePup(*pup_bytes);
      ASSERT_TRUE(pup_view.has_value());
      EXPECT_EQ(pup_view->checksum_present, with_checksum);
      EXPECT_TRUE(pup_view->checksum_ok);
      EXPECT_EQ(pup_view->header.transport_control, pup.transport_control);
      EXPECT_EQ(pup_view->header.type, pup.type);
      EXPECT_EQ(pup_view->header.identifier, pup.identifier);
      EXPECT_EQ(pup_view->header.dst, pup.dst);
      EXPECT_EQ(pup_view->header.src, pup.src);
      EXPECT_TRUE(SameBytes(pup_view->data, payload));
      valid.push_back(*pup_bytes);
    }

    pfproto::VmtpHeader vmtp;
    vmtp.client = static_cast<uint32_t>(rng.Next());
    vmtp.server = static_cast<uint32_t>(rng.Next());
    vmtp.transaction = static_cast<uint32_t>(rng.Next());
    vmtp.func = static_cast<pfproto::VmtpFunc>(rng.Range(1, 3));
    vmtp.flags = rng.NextU8();
    vmtp.packet_index = rng.NextU16();
    vmtp.packet_count = rng.NextU16();
    vmtp.segment_bytes = static_cast<uint32_t>(rng.Next());
    const std::vector<uint8_t> vmtp_bytes = pfproto::BuildVmtp(vmtp, payload);
    const auto vmtp_view = pfproto::ParseVmtp(vmtp_bytes);
    ASSERT_TRUE(vmtp_view.has_value());
    EXPECT_EQ(vmtp_view->header.client, vmtp.client);
    EXPECT_EQ(vmtp_view->header.server, vmtp.server);
    EXPECT_EQ(vmtp_view->header.transaction, vmtp.transaction);
    EXPECT_EQ(vmtp_view->header.func, vmtp.func);
    EXPECT_EQ(vmtp_view->header.flags, vmtp.flags);
    EXPECT_EQ(vmtp_view->header.packet_index, vmtp.packet_index);
    EXPECT_EQ(vmtp_view->header.packet_count, vmtp.packet_count);
    EXPECT_EQ(vmtp_view->header.segment_bytes, vmtp.segment_bytes);
    EXPECT_EQ(vmtp_view->header.data_bytes, payload.size());
    EXPECT_TRUE(SameBytes(vmtp_view->data, payload));
    valid.push_back(vmtp_bytes);

    pfproto::ArpPacket arp;
    arp.op = static_cast<pfproto::ArpOp>(rng.Range(1, 4));
    for (size_t i = 0; i < 6; ++i) {
      arp.sender_hw[i] = rng.NextU8();
      arp.target_hw[i] = rng.NextU8();
    }
    arp.sender_ip = src_ip;
    arp.target_ip = dst_ip;
    const std::vector<uint8_t> arp_bytes = pfproto::BuildArp(arp);
    const auto arp_view = pfproto::ParseArp(arp_bytes);
    ASSERT_TRUE(arp_view.has_value());
    EXPECT_EQ(arp_view->op, arp.op);
    EXPECT_EQ(arp_view->sender_hw, arp.sender_hw);
    EXPECT_EQ(arp_view->target_hw, arp.target_hw);
    EXPECT_EQ(arp_view->sender_ip, arp.sender_ip);
    EXPECT_EQ(arp_view->target_ip, arp.target_ip);
    valid.push_back(arp_bytes);

    // Every codec on every mutated encoding, and on noise.
    for (const std::vector<uint8_t>& bytes : valid) {
      ParseAll(Mutate(rng, bytes), src_ip, dst_ip);
    }
    ParseAll(RandomBytes(rng, rng.Below(96)), src_ip, dst_ip);
  });
}

}  // namespace

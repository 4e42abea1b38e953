// pcapng_verify: structural validation of a pcapng capture, used by the
// pcapng_smoke CI test on files the tap plane (src/pf/tap.h) emits.
//
// The block walker (SHB/IDB/EPB grammar, lengths, alignment, snaplens,
// option lists) is pcapng::Walk in pcapng_walk.h, where the fuzz test
// calls it too. Totals are printed for the smoke test to assert against.
//
// Usage: pcapng_verify FILE [--min-idb N] [--min-epb N]
//                           [--expect-interface SUBSTR] [--expect-comment SUBSTR]
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "examples/pcapng_walk.h"

namespace {

// True when some value contains `needle`.
bool AnyContains(const std::vector<std::string>& values, const char* needle) {
  for (const std::string& value : values) {
    if (value.find(needle) != std::string::npos) {
      return true;
    }
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  const char* path = nullptr;
  size_t min_idb = 1;
  size_t min_epb = 0;
  const char* expect_interface = nullptr;
  const char* expect_comment = nullptr;
  for (int i = 1; i < argc; ++i) {
    const auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (std::strcmp(argv[i], "--min-idb") == 0) {
      const char* v = value();
      if (v == nullptr) return 2;
      min_idb = static_cast<size_t>(std::atoi(v));
    } else if (std::strcmp(argv[i], "--min-epb") == 0) {
      const char* v = value();
      if (v == nullptr) return 2;
      min_epb = static_cast<size_t>(std::atoi(v));
    } else if (std::strcmp(argv[i], "--expect-interface") == 0) {
      if ((expect_interface = value()) == nullptr) return 2;
    } else if (std::strcmp(argv[i], "--expect-comment") == 0) {
      if ((expect_comment = value()) == nullptr) return 2;
    } else if (path == nullptr) {
      path = argv[i];
    } else {
      std::fprintf(stderr, "usage: pcapng_verify FILE [--min-idb N] [--min-epb N]\n"
                           "       [--expect-interface SUBSTR] [--expect-comment SUBSTR]\n");
      return 2;
    }
  }
  if (path == nullptr) {
    std::fprintf(stderr, "pcapng_verify: no input file\n");
    return 2;
  }

  std::vector<uint8_t> data;
  {
    FILE* f = std::fopen(path, "rb");
    if (f == nullptr) {
      std::fprintf(stderr, "pcapng_verify: cannot open %s\n", path);
      return 2;
    }
    uint8_t buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      data.insert(data.end(), buf, buf + n);
    }
    std::fclose(f);
  }
  pcapng::Stats stats;
  pcapng::Error error;
  if (!pcapng::Walk(data, &stats, &error)) {
    std::fprintf(stderr, "pcapng_verify: offset %zu: %s\n", error.offset, error.what);
    return 1;
  }
  std::printf("pcapng ok: %zu bytes, shb=%zu idb=%zu epb=%zu comments=%zu other=%zu\n",
              data.size(), stats.shb, stats.idb, stats.epb, stats.comments.size(), stats.other);
  if (stats.shb != 1) {
    std::fprintf(stderr, "pcapng_verify: want exactly 1 section header, saw %zu\n", stats.shb);
    return 1;
  }
  if (stats.idb < min_idb) {
    std::fprintf(stderr, "pcapng_verify: want >= %zu interfaces, saw %zu\n", min_idb, stats.idb);
    return 1;
  }
  if (stats.epb < min_epb) {
    std::fprintf(stderr, "pcapng_verify: want >= %zu packets, saw %zu\n", min_epb, stats.epb);
    return 1;
  }
  if (expect_interface != nullptr && !AnyContains(stats.interface_names, expect_interface)) {
    std::fprintf(stderr, "pcapng_verify: no interface named like \"%s\"\n", expect_interface);
    return 1;
  }
  if (expect_comment != nullptr && !AnyContains(stats.comments, expect_comment)) {
    std::fprintf(stderr, "pcapng_verify: no packet comment containing \"%s\"\n", expect_comment);
    return 1;
  }
  return 0;
}

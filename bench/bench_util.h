// Copyright (c) wbstream authors. Licensed under the MIT license.
//
// Shared helpers for the experiment harness: fixed-width table printing in
// the style of the paper-claim tables indexed in EXPERIMENTS.md.

#ifndef WBS_BENCH_BENCH_UTIL_H_
#define WBS_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdint>
#include <string>
#include <vector>

namespace wbs::bench {

/// Prints a banner naming the experiment and the paper claim it regenerates.
inline void Banner(const std::string& experiment, const std::string& claim) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("claim: %s\n", claim.c_str());
  std::printf("================================================================\n");
}

/// Prints one checked claim as "check <name>: ok" or "check <name>: FAILED",
/// followed by what was required, and returns whether it held. A table whose
/// claims are checked exits nonzero when any fails.
inline bool Check(const std::string& name, bool held,
                  const std::string& required) {
  std::printf("check %s: %s (%s)\n", name.c_str(), held ? "ok" : "FAILED",
              required.c_str());
  return held;
}

/// Minimal fixed-width table writer.
class Table {
 public:
  explicit Table(std::vector<std::string> headers, int col_width = 14)
      : headers_(std::move(headers)), width_(col_width) {
    for (const auto& h : headers_) std::printf("%*s", width_, h.c_str());
    std::printf("\n");
    for (size_t i = 0; i < headers_.size(); ++i) {
      for (int j = 0; j < width_; ++j) std::printf("-");
    }
    std::printf("\n");
  }

  /// Starts a new row.
  Table& Row() {
    if (in_row_) std::printf("\n");  // defensive: close a short row
    in_row_ = true;
    col_ = 0;
    return *this;
  }

  Table& Cell(const std::string& s) {
    std::printf("%*s", width_, s.c_str());
    ++col_;
    if (col_ == headers_.size()) {
      std::printf("\n");
      in_row_ = false;
      col_ = 0;
    }
    return *this;
  }
  Table& Cell(uint64_t v) { return Cell(std::to_string(v)); }
  Table& Cell(int v) { return Cell(std::to_string(v)); }
  Table& Cell(double v, int precision = 3) {
    char buf[64];
    if (v >= 1e9 || v <= -1e9) {
      std::snprintf(buf, sizeof(buf), "%.3e", v);
    } else {
      std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    }
    return Cell(std::string(buf));
  }
  Table& Cell(bool b) { return Cell(std::string(b ? "yes" : "no")); }

  ~Table() {
    if (in_row_) std::printf("\n");
  }

 private:
  std::vector<std::string> headers_;
  int width_;
  bool in_row_ = false;
  size_t col_ = 0;
};

}  // namespace wbs::bench

#endif  // WBS_BENCH_BENCH_UTIL_H_

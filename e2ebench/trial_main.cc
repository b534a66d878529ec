// One trial of one workload in a fresh process, printed as a JSON line:
//
//   e2e_trial --workload ingest_w --seed 1 --trace 0 --dir DIR [--scale F]
//   e2e_trial --spin      # seconds of the reference spin loop
//
// Exit status: 0 when every operation and check passed, 1 when some
// failed (the JSON line is still printed), 2 when the trial could not run.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "driver.h"

namespace {

using apmbench::e2ebench::FindWorkload;
using apmbench::e2ebench::RunTrial;
using apmbench::e2ebench::SpinSeconds;
using apmbench::e2ebench::TrialOptions;
using apmbench::e2ebench::TrialResult;

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

int Usage() {
  std::fprintf(stderr,
               "usage: e2e_trial --workload NAME --seed N --trace 0|1 "
               "--dir DIR [--scale F]\n       e2e_trial --spin\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, dir;
  TrialOptions options;
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    if (arg == "--spin") {
      std::printf("{\"spin_s\": %.6f}\n", SpinSeconds());
      return 0;
    }
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (arg == "--scale") {
      options.scale = std::strtod(value, nullptr);
    } else if (arg == "--dir") {
      options.dir = value;
    } else {
      return Usage();
    }
  }
  const auto* spec = FindWorkload(workload);
  if (spec == nullptr || options.dir.empty() || !(options.scale > 0)) {
    return Usage();
  }

  TrialResult result;
  apmbench::Status s = RunTrial(*spec, options, &result);
  if (!s.ok()) {
    std::fprintf(stderr, "trial failed to run: %s\n", s.ToString().c_str());
    return 2;
  }
  std::string line = "{\"attempted\": " + std::to_string(result.attempted) +
                     ", \"failed\": " + std::to_string(result.failed) +
                     ", \"errors\": [";
  for (size_t i = 0; i < result.errors.size(); i++) {
    if (i > 0) line += ", ";
    line += JsonString(result.errors[i]);
  }
  line += "], \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); i++) {
    if (i > 0) line += ", ";
    line += JsonString(result.metrics[i].first) + ": " +
            Number(result.metrics[i].second);
  }
  line += "}, \"segments\": [";
  for (size_t k = 0; k < result.segments.size(); k++) {
    line += k > 0 ? ", {" : "{";
    for (size_t i = 0; i < result.segments[k].size(); i++) {
      if (i > 0) line += ", ";
      line += JsonString(result.segments[k][i].first) + ": " +
              Number(result.segments[k][i].second);
    }
    line += "}";
  }
  line += "]}";
  std::printf("%s\n", line.c_str());
  return result.failed == 0 ? 0 : 1;
}

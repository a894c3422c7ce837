// perfbench_node: the end-to-end benchmark program.
//
//   perfbench_node --workload <eng_ebbiot|wide_ebms|fleet_faults|eval_fig4>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  [--tiny] [--perturb <none|drop_window|alter_track>]
//                  [--results-dir <dir>] [--source-id <id>]
//
// Prints a provenance line and an input-property line, then, as the last
// line, {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.  Exits 1
// when a correctness check failed, 2 on a usage or run error.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "build_info.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out.push_back(c);
    }
  }
  return out + "\"";
}

std::string jsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string metricsJson(const Metrics& m) {
  std::string out = "{";
  for (std::size_t i = 0; i < m.items().size(); ++i) {
    const Metric& x = m.items()[i];
    out += (i > 0 ? ", " : "") + jsonString(x.name) + ": {\"value\": " +
           jsonNumber(x.value) + ", \"unit\": " + jsonString(x.unit) + "}";
  }
  return out + "}";
}

std::string cpuInfoField(const std::string& field) {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, field.size(), field) == 0) {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? "" : line.substr(colon + 2);
    }
  }
  return "";
}

bool hasFlag(const std::string& flags, const std::string& flag) {
  std::istringstream words(flags);
  std::string w;
  while (words >> w) {
    if (w == flag) {
      return true;
    }
  }
  return false;
}

std::string marchOf(const std::string& flags) {
  const std::size_t at = flags.find("-march=");
  if (at == std::string::npos) {
    return "compiler default";
  }
  const std::size_t end = flags.find(' ', at);
  return flags.substr(at + 7, end == std::string::npos ? end : end - at - 7);
}

std::string provenanceJson(const Options& o, std::uint64_t fingerprint) {
  const std::string flags = cpuInfoField("flags");
  const std::string buildFlags =
      std::string(PERFBENCH_CXX_FLAGS) + " " + PERFBENCH_LIB_OPTIONS;
  char fp[32];
  std::snprintf(fp, sizeof(fp), "%016llx",
                static_cast<unsigned long long>(fingerprint));
  std::string out = "{";
  out += "\"workload\": " + jsonString(o.workload);
  out += ", \"seed\": " + std::to_string(o.seed);
  out += ", \"seconds\": " + jsonNumber(o.seconds);
  out += ", \"trace\": " + std::to_string(o.trace ? 1 : 0);
  out += ", \"tiny\": " + std::string(o.tiny ? "true" : "false");
  out += ", \"source\": " + jsonString(o.sourceId);
  out += ", \"input_fingerprint\": " + jsonString(fp);
  out += ", \"host_cpus\": " +
         std::to_string(std::thread::hardware_concurrency());
  out += ", \"host_cpu_model\": " + jsonString(cpuInfoField("model name"));
  out += ", \"host_cpu_mhz\": " + jsonString(cpuInfoField("cpu MHz"));
  out += ", \"host_popcnt\": " + std::string(hasFlag(flags, "popcnt") ? "true" : "false");
  out += ", \"host_avx2\": " + std::string(hasFlag(flags, "avx2") ? "true" : "false");
  out += ", \"build_march\": " + jsonString(marchOf(buildFlags));
#if defined(__POPCNT__)
  out += ", \"build_popcnt\": true";
#else
  out += ", \"build_popcnt\": false";
#endif
#if defined(__AVX2__)
  out += ", \"build_avx2\": true";
#else
  out += ", \"build_avx2\": false";
#endif
  out += ", \"build_type\": " + jsonString(PERFBENCH_BUILD_TYPE);
  out += ", \"compiler\": " + jsonString(PERFBENCH_COMPILER);
  out += ", \"cxx_flags\": " + jsonString(PERFBENCH_CXX_FLAGS);
  out += ", \"lib_compile_options\": " + jsonString(PERFBENCH_LIB_OPTIONS);
  return out + "}";
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench_node: " << why
            << "\nusage: perfbench_node --workload W --seed N --seconds S"
               " --trace 0|1 [--tiny] [--perturb none|drop_window|alter_track]"
               " [--results-dir D] [--source-id ID]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool haveWorkload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage("missing value for " + a);
      }
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
      haveWorkload = true;
    } else if (a == "--seed") {
      o.seed = std::stoull(value());
    } else if (a == "--seconds") {
      o.seconds = std::stod(value());
    } else if (a == "--trace") {
      o.trace = value() != "0";
    } else if (a == "--tiny") {
      o.tiny = true;
    } else if (a == "--perturb") {
      const std::string p = value();
      if (p == "drop_window") {
        o.perturb = Perturb::kDropWindow;
      } else if (p == "alter_track") {
        o.perturb = Perturb::kAlterTrack;
      } else if (p != "none") {
        usage("unknown perturbation " + p);
      }
    } else if (a == "--results-dir") {
      o.resultsDir = value();
    } else if (a == "--source-id") {
      o.sourceId = value();
    } else {
      usage("unknown argument " + a);
    }
  }
  if (!haveWorkload) {
    usage("--workload is required");
  }
  if (!(o.seconds > 0.0)) {
    usage("--seconds must be positive");
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  Checker checker;
  RunOutput out;
  try {
    if (options.workload == "eval_fig4") {
      out = runEvalWorkload(options, checker);
    } else if (options.workload == "eng_ebbiot" ||
               options.workload == "wide_ebms" ||
               options.workload == "fleet_faults") {
      out = runNodeWorkload(options, checker);
    } else {
      usage("unknown workload " + options.workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench_node: run failed: " << e.what() << "\n";
    return 2;
  }
  const bool correct = checker.failures() == 0;
  if (!correct && out.failed == 0) {
    out.failed = 1;  // a wrong result is a failed operation
  }
  const std::string provenance = provenanceJson(options, out.inputFingerprint);
  const std::string inputs = metricsJson(out.inputs);
  const Metrics& reported = options.trace ? out.layers : out.endToEnd;
  const std::string result =
      std::string("{\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(out.attempted) +
      ", \"failed\": " + std::to_string(out.failed) +
      ", \"metrics\": " + metricsJson(reported) + "}";

  if (!options.resultsDir.empty()) {
    const std::string stem = options.resultsDir + "/" + options.workload +
                             "-seed" + std::to_string(options.seed) +
                             "-trace" + (options.trace ? "1" : "0");
    std::ofstream record(stem + ".json");
    record << "{\"provenance\": " << provenance
           << ", \"input_properties\": " << inputs
           << ", \"checks\": " << checker.checks() << ", \"pass_windows_per_s\": ["
           << [&] {
                std::string v;
                for (const double x : out.passWindowsPerS) {
                  v += (v.empty() ? "" : ", ") + jsonNumber(x);
                }
                return v;
              }()
           << "], \"result\": " << result
           << "}\n";
    if (!out.spansTsv.empty()) {
      std::ofstream(stem + "-spans.tsv") << out.spansTsv;
    }
  }
  std::cout << "{\"provenance\": " << provenance << "}\n";
  std::cout << "{\"input_properties\": " << inputs << "}\n";
  std::cout << result << std::endl;
  return correct ? 0 : 1;
}

// colcom_perfbench — runs one benchmark workload for a fixed host-time
// budget and prints what it measured as one JSON line on stdout.
//
//   colcom_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--spans <out.json>]
//
// After one warm-up pass, untraced (--trace 0) repeats set-up samples and
// an untraced pass of the workload until the budget is spent. Workloads
// other than paper_scale then run the paper_scale job set once, untimed and
// after peak memory is read, for the Fig. 10 calibration gap. Traced
// (--trace 1) adds a traced pass after each untraced one, so the tracing
// overhead is the difference of the two; host spans are kept in memory and
// written to --spans when the run ends. Every job's output is checked
// against serial ground truth outside the timed region. perfbench/run.py
// turns this line into the benchmark's result.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace {

using perfbench::Pass;

// Set-up takes microseconds to milliseconds: each set-up sample is the mean
// over a batch of set-ups lasting kSetupBatchS. Before every pass the run
// takes kSetupSamplesPerPass samples, so the median covers the whole run as
// the pass times do.
constexpr int kSetupSamplesPerPass = 3;
constexpr double kSetupBatchS = 0.02;

double setup_sample(perfbench::Workload& w) {
  const double t0 = perfbench::host_now();
  double sum = 0;
  int n = 0;
  do {
    sum += w.setup();
    ++n;
  } while (perfbench::host_now() - t0 < kSetupBatchS);
  return sum / n;
}

void put_string(const std::string& s) {
  std::putchar('"');
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') std::putchar('\\');
    std::putchar(ch);
  }
  std::putchar('"');
}

void put_map(const std::map<std::string, double>& m) {
  std::putchar('{');
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) std::putchar(',');
    first = false;
    put_string(k);
    std::printf(":%.17g", v);
  }
  std::putchar('}');
}

void put_array(const std::vector<double>& xs) {
  std::putchar('[');
  for (std::size_t i = 0; i < xs.size(); ++i) {
    std::printf(i == 0 ? "%.17g" : ",%.17g", xs[i]);
  }
  std::putchar(']');
}

void put_passes(const std::vector<Pass>& passes) {
  std::putchar('[');
  for (std::size_t i = 0; i < passes.size(); ++i) {
    if (i != 0) std::putchar(',');
    std::printf("{\"host\":");
    put_map(passes[i].host);
    std::printf(",\"exact\":");
    put_map(passes[i].exact);
    std::printf(",\"latencies\":");
    put_array(passes[i].latencies);
    std::putchar('}');
  }
  std::putchar(']');
}

int usage(const char* msg) {
  std::cerr << "colcom_perfbench: " << msg
            << "\nusage: colcom_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans <out.json>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return usage("malformed arguments");
    args[key.substr(2)] = argv[i + 1];
  }
  if (args.count("workload") == 0 || args.count("seed") == 0 ||
      args.count("seconds") == 0 || args.count("trace") == 0) {
    return usage("missing argument");
  }
  const std::string name = args["workload"];
  const std::uint64_t seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  const double seconds = std::strtod(args["seconds"].c_str(), nullptr);
  const bool traced = args["trace"] == "1";
  auto workload = perfbench::make_workload(name, seed);
  if (workload == nullptr) return usage(("unknown workload " + name).c_str());

  perfbench::SpanLog spans;
  perfbench::SpanLog* log = traced ? &spans : nullptr;
  perfbench::Verdict verdict;
  const double serial_host_s = workload->prepare(log);

  // Warm-up: the first pass of a process also pays for growing the heap
  // (fresh pages for 256 KB fiber stacks and chunk buffers) and ran up to
  // 30% slower than the passes after it. Its outputs are checked; its times
  // are not used.
  workload->run(nullptr, verdict);

  std::vector<double> setup_samples;
  std::vector<Pass> untraced_passes;
  std::vector<Pass> traced_passes;
  const double start = perfbench::host_now();
  do {
    for (int i = 0; i < kSetupSamplesPerPass; ++i) {
      setup_samples.push_back(setup_sample(*workload));
    }
    untraced_passes.push_back(workload->run(nullptr, verdict));
    if (!traced) continue;
    perfbench::Probes probes;
    probes.spans = &spans;
    const double submit0 = spans.total("svc.submit");
    const double run0 = spans.total("svc.run_all");
    Pass p = workload->run(&probes, verdict);
    p.exact["pfs.synth_bytes"] = static_cast<double>(probes.synth.bytes);
    p.exact["des.intervals"] = static_cast<double>(probes.sink.intervals);
    p.host["pfs.synth_host_s"] = probes.synth.host_s;
    p.host["svc.submit_host_s"] = spans.total("svc.submit") - submit0;
    p.host["svc.run_host_s"] = spans.total("svc.run_all") - run0;
    traced_passes.push_back(std::move(p));
  } while (perfbench::host_now() - start < seconds);

  const double rss = perfbench::peak_rss_mb();

  std::map<std::string, double> extra;
  if (traced) {
    extra = workload->extra_layers(untraced_passes.front());
  } else if (name != "paper_scale") {
    auto calib = perfbench::make_workload("paper_scale", seed);
    calib->prepare(nullptr);
    extra["fig10_gap"] = calib->run(nullptr, verdict).exact.at("fig10_gap");
  }
  bool spans_ok = true;
  if (traced && args.count("spans") != 0) {
    spans_ok = spans.write_chrome(args["spans"]);
  }

  std::printf("{\"workload\":");
  put_string(name);
  std::printf(",\"seed\":%llu,\"serial_host_s\":%.17g,\"peak_rss_mb\":%.17g",
              static_cast<unsigned long long>(seed), serial_host_s, rss);
  std::printf(",\"attempted\":%llu,\"failed\":%llu,\"errors\":[",
              static_cast<unsigned long long>(verdict.attempted),
              static_cast<unsigned long long>(verdict.failed));
  for (std::size_t i = 0; i < verdict.errors.size(); ++i) {
    if (i != 0) std::putchar(',');
    put_string(verdict.errors[i]);
  }
  std::printf("],\"spans_written\":%s,\"setup_samples\":",
              spans_ok ? "true" : "false");
  put_array(setup_samples);
  std::printf(",\"untraced\":");
  put_passes(untraced_passes);
  std::printf(",\"traced\":");
  put_passes(traced_passes);
  std::printf(",\"extra\":");
  put_map(extra);
  std::printf("}\n");
  return 0;
}

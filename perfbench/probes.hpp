// Measurement seams of the benchmark. Everything here observes the library
// from outside, through public interfaces only: a timing pfs::Store
// decorator installed with Pfs::wrap_store, a counting des::TraceSink, and
// host spans the workloads open around calls into the library on rank 0.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "des/trace_sink.hpp"
#include "pfs/store.hpp"

namespace perfbench {

/// Host seconds on a monotonic clock.
double host_now();

/// Peak resident set size of this process, in MB (10^6 bytes).
double peak_rss_mb();

/// Byte synthesis observed at the store boundary.
struct SynthCounters {
  double host_s = 0;
  std::uint64_t bytes = 0;
  std::uint64_t reads = 0;
};

/// Times every read of the wrapped store. pristine() forwards, so integrity
/// checks that compare against the trustworthy copy see the same bytes.
class TimedStore final : public colcom::pfs::Store {
 public:
  TimedStore(std::unique_ptr<colcom::pfs::Store> inner, SynthCounters& c)
      : inner_(std::move(inner)), c_(&c) {}

  void read(std::uint64_t offset, std::span<std::byte> dst) const override;
  void write(std::uint64_t offset, std::span<const std::byte> src) override {
    inner_->write(offset, src);
  }
  std::uint64_t size() const override { return inner_->size(); }
  const colcom::pfs::Store& pristine() const override {
    return inner_->pristine();
  }

 private:
  std::unique_ptr<colcom::pfs::Store> inner_;
  SynthCounters* c_;
};

/// Counts the CPU intervals the engine reports.
class CountingSink final : public colcom::des::TraceSink {
 public:
  void on_interval(int, int, colcom::des::CpuKind, colcom::des::SimTime,
                   colcom::des::SimTime) override {
    ++intervals;
  }
  std::uint64_t intervals = 0;
};

/// Host-time spans kept in memory and written once, when the run ends, as a
/// Chrome trace_event file. Spans nest: a span opened while another is open
/// records it as its parent.
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::string job;  ///< the simulated job the span belongs to
    double t0 = 0;
    double t1 = 0;
    int parent = -1;
  };

  int begin(std::string name, std::string job);
  void end(int id);
  /// Sum of the durations of every closed span called `name`.
  double total(const std::string& name) const;
  const std::vector<Span>& spans() const { return spans_; }
  bool write_chrome(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  double origin_ = host_now();
};

/// Opens a span on construction and closes it on destruction; inert when
/// the log is null (untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, std::string job)
      : log_(log),
        id_(log != nullptr ? log->begin(std::move(name), std::move(job))
                           : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

}  // namespace perfbench

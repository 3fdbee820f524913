#include "probes.hpp"

#include <sys/resource.h>

#include <chrono>
#include <fstream>

namespace perfbench {

double host_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss: KiB
}

void TimedStore::read(std::uint64_t offset, std::span<std::byte> dst) const {
  const double t0 = host_now();
  inner_->read(offset, dst);
  c_->host_s += host_now() - t0;
  c_->bytes += dst.size();
  ++c_->reads;
}

int SpanLog::begin(std::string name, std::string job) {
  Span s;
  s.name = std::move(name);
  s.job = std::move(job);
  s.parent = open_.empty() ? -1 : open_.back();
  s.t0 = host_now();
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanLog::end(int id) {
  spans_[static_cast<std::size_t>(id)].t1 = host_now();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

double SpanLog::total(const std::string& name) const {
  double sum = 0;
  for (const Span& s : spans_) {
    if (s.name == name && s.t1 >= s.t0) sum += s.t1 - s.t0;
  }
  return sum;
}

bool SpanLog::write_chrome(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << (i == 0 ? "" : ",") << "\n{\"name\":\"" << s.name
      << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
      << (s.t0 - origin_) * 1e6 << ",\"dur\":" << (s.t1 - s.t0) * 1e6
      << ",\"args\":{\"job\":\"" << s.job << "\",\"id\":" << i
      << ",\"parent\":" << s.parent << "}}";
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

}  // namespace perfbench

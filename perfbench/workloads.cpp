#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <sstream>
#include <utility>

#include "core/object_io.hpp"
#include "core/runtime.hpp"
#include "integrity/integrity.hpp"
#include "mpi/runtime.hpp"
#include "ncio/dataset.hpp"
#include "svc/svc.hpp"
#include "util/prng.hpp"

namespace perfbench {

using namespace colcom;

void Verdict::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (errors.size() < 8) errors.push_back(what);
}

namespace {

/// The paper's testbed as the figure benches configure it: 24-core
/// Hopper-like nodes, Lustre with 40 OSTs at 4 MB stripes.
mpi::MachineConfig paper_machine() {
  mpi::MachineConfig cfg;
  cfg.cores_per_node = 24;
  cfg.pfs.n_osts = 40;
  cfg.pfs.stripe_size = 4ull << 20;
  cfg.pfs.ost_bw = 400e6;
  cfg.pfs.ost_seek = 3e-3;
  cfg.pfs.storage_net_bw = 16e9;
  return cfg;
}

/// The climate generator of the figure benches with a seeded phase per
/// dimension: the seed moves every value but not the shape of the data.
/// Elements are f64 so float sums have a usable error bound (see close()).
ncio::Dataset make_climate(pfs::Pfs& fs, std::vector<std::uint64_t> dims,
                           std::uint64_t seed) {
  SplitMix64 sm(seed);
  std::vector<std::uint64_t> phase(dims.size());
  for (auto& p : phase) p = sm.next() % 977;
  return ncio::DatasetBuilder(fs, "climate.nc")
      .add_generated_var<double>(
          "temperature", std::move(dims),
          [phase](std::span<const std::uint64_t> c) {
            double v = 250.0;
            for (std::size_t d = 0; d < c.size(); ++d) {
              v += static_cast<double>(
                       (c[d] * (d + 3) * 2654435761ull + phase[d]) % 977) /
                   977.0;
            }
            return v;
          })
      .finish();
}

/// Sums of positive terms: any two summation orders of n terms agree within
/// 2*gamma(n-1) = 2(n-1)u/(1-(n-1)u) relative, u = 2^-53 (Higham, Thm 4.1).
/// Min and max must match bit for bit.
bool close(double got, double want, bool is_sum, std::uint64_t n) {
  if (!is_sum) return std::memcmp(&got, &want, sizeof got) == 0;
  const double nu = static_cast<double>(n) * 0x1.0p-53;
  const double tol = 2 * nu / (1 - nu);
  return std::abs(got - want) <= tol * std::abs(want);
}

std::string describe(const std::string& job, double got, double want) {
  std::ostringstream o;
  o.precision(17);
  o << job << ": got " << got << ", ground truth " << want;
  return o.str();
}

/// Serial ground truth over the slab [start, start+count) of `dims`, on a
/// store of its own (no runtime, no virtual time). Adds its host seconds.
double serial_truth(const std::vector<std::uint64_t>& dims,
                    std::uint64_t seed, std::vector<std::uint64_t> start,
                    std::vector<std::uint64_t> count, const mpi::Op& op,
                    SpanLog* spans, double& host_s) {
  des::Engine engine;
  pfs::Pfs fs(engine, paper_machine().pfs);
  auto ds = make_climate(fs, dims, seed);
  core::ObjectIO io;
  io.var = ds.var("temperature");
  io.start = std::move(start);
  io.count = std::move(count);
  io.op = op;
  const double t0 = host_now();
  double v = 0;
  {
    ScopedSpan span(spans, "core.serial_reduce", "serial");
    v = core::serial_reduce(ds, io).as<double>();
  }
  host_s += host_now() - t0;
  return v;
}

/// One simulated machine with the climate dataset (plus optional extra
/// files). Construction is the workload's set-up and is timed as such;
/// run() is the timed simulated job.
class Sim {
 public:
  Sim(int nprocs, const std::vector<std::uint64_t>& dims, std::uint64_t seed,
      Pass& pass, const std::function<void(pfs::Pfs&)>& extra = {})
      : pass_(&pass) {
    const double t0 = host_now();
    rt_ = std::make_unique<mpi::Runtime>(paper_machine(), nprocs);
    ds_ = std::make_unique<ncio::Dataset>(make_climate(rt_->fs(), dims, seed));
    if (extra) extra(rt_->fs());
    pass.host["setup_s"] += host_now() - t0;
  }

  const ncio::Dataset& ds() const { return *ds_; }
  mpi::Runtime& rt() { return *rt_; }

  /// Runs `body` on every rank; adds host time and layer counters.
  void run(const std::string& job, Probes* probes,
           std::function<void(mpi::Comm&)> body) {
    if (probes != nullptr) {
      rt_->fs().wrap_store(ds_->file(), [probes](auto inner) {
        return std::make_unique<TimedStore>(std::move(inner), probes->synth);
      });
      rt_->engine().add_trace_sink(&probes->sink);
    }
    integrity::reset_stats();
    const double t0 = host_now();
    rt_->run(std::move(body));
    const double dt = host_now() - t0;
    if (probes != nullptr) rt_->engine().remove_trace_sink(&probes->sink);

    Pass& p = *pass_;
    p.host["host_s"] += dt;
    p.exact["job." + job + ".virt_s"] = rt_->elapsed();
    const pfs::PfsStats& fs = rt_->fs().stats();
    p.exact["pfs.read_bytes"] += static_cast<double>(fs.read_bytes);
    p.exact["pfs.written_bytes"] += static_cast<double>(fs.written_bytes);
    p.exact["pfs.ost_requests"] += static_cast<double>(fs.ost_requests);
    p.exact["pfs.seeks"] += static_cast<double>(fs.seeks);
    const net::NetStats& ns = rt_->network().stats();
    p.exact["net.messages"] += static_cast<double>(ns.messages);
    p.exact["net.bytes"] += static_cast<double>(ns.bytes);
    p.exact["net.intra_node_messages"] +=
        static_cast<double>(ns.intra_node_messages);
    p.exact["net.busy_s"] += ns.total_busy;
    p.exact["des.events"] +=
        static_cast<double>(rt_->engine().events_dispatched());
    p.exact["integrity.verified"] +=
        static_cast<double>(integrity::stats().verified);
  }

 private:
  Pass* pass_;
  std::unique_ptr<mpi::Runtime> rt_;
  std::unique_ptr<ncio::Dataset> ds_;
};

/// Accumulates the fields add_core reports.
void add_stats(core::CcStats& a, const core::CcStats& s) {
  a.plan_s += s.plan_s;
  a.io_s += s.io_s;
  a.construct_s += s.construct_s;
  a.map_s += s.map_s;
  a.shuffle_s += s.shuffle_s;
  a.reduce_s += s.reduce_s;
  a.shuffle_bytes += s.shuffle_bytes;
  a.partial_count += s.partial_count;
  a.metadata_bytes += s.metadata_bytes;
  a.elements += s.elements;
}

/// Adds the per-rank CcStats phases as max and mean over ranks, and the
/// volume counters as sums over ranks.
void add_core(Pass& pass, const std::vector<core::CcStats>& st) {
  const std::pair<const char*, double core::CcStats::*> phases[] = {
      {"plan", &core::CcStats::plan_s},
      {"io", &core::CcStats::io_s},
      {"construct", &core::CcStats::construct_s},
      {"map", &core::CcStats::map_s},
      {"shuffle", &core::CcStats::shuffle_s},
      {"reduce", &core::CcStats::reduce_s},
  };
  for (const auto& [name, field] : phases) {
    double mx = 0;
    double sum = 0;
    for (const core::CcStats& s : st) {
      mx = std::max(mx, s.*field);
      sum += s.*field;
    }
    const std::string k = std::string("core.") + name;
    pass.exact[k + "_max_s"] += mx;
    pass.exact[k + "_mean_s"] += sum / static_cast<double>(st.size());
  }
  for (const core::CcStats& s : st) {
    pass.exact["core.shuffle_bytes"] += static_cast<double>(s.shuffle_bytes);
    pass.exact["core.partial_count"] += static_cast<double>(s.partial_count);
    pass.exact["core.metadata_bytes"] +=
        static_cast<double>(s.metadata_bytes);
    pass.exact["core.elements"] += static_cast<double>(s.elements);
  }
}

// --- weak-scaling points: paper_scale and many_ranks -----------------------

/// The Fig. 10 set-up: rank r of n owns rows [2r, 2r+2) of every time step
/// of a (nt, 2n, nx) variable, summed at computation:I/O = 1:5 with one
/// aggregator per 24-core node. Each point runs through collective
/// computing and the blocking read-then-compute baseline.
class ScalingPoints final : public Workload {
 public:
  struct Point {
    int nprocs;
    double paper_speedup;  ///< 0: the paper reports none for this scale
  };

  ScalingPoints(std::uint64_t seed, std::vector<Point> points,
                std::uint64_t nt, std::uint64_t nx)
      : seed_(seed), points_(std::move(points)), nt_(nt), nx_(nx) {}

  double prepare(SpanLog* spans) override {
    double host_s = 0;
    for (const Point& p : points_) {
      const auto d = dims(p);
      truth_.push_back(serial_truth(d, seed_, {0, 0, 0}, d, mpi::Op::sum(),
                                    spans, host_s));
    }
    return host_s;
  }

  Pass run(Probes* probes, Verdict& verdict) override {
    Pass pass;
    double gap = 0;
    int gap_points = 0;
    for (std::size_t i = 0; i < points_.size(); ++i) {
      const Point& p = points_[i];
      double virt[2] = {};
      for (const bool cc : {true, false}) {
        const std::string job = std::string(cc ? "cc" : "mpi") + "." +
                                std::to_string(p.nprocs);
        Sim sim(p.nprocs, dims(p), seed_, pass);
        std::vector<core::CcStats> st(static_cast<std::size_t>(p.nprocs));
        double result = 0;
        bool has_result = false;
        sim.run(job, probes, [&](mpi::Comm& comm) {
          core::ObjectIO io;
          io.var = sim.ds().var("temperature");
          io.start = {0, 2 * static_cast<std::uint64_t>(comm.rank()), 0};
          io.count = {nt_, 2, nx_};
          io.op = mpi::Op::sum();
          io.blocking = !cc;
          io.compute.ratio_of_io = 0.2;
          io.hints.cb_buffer_size = 4ull << 20;
          io.hints.pipelined = cc;
          core::CcOutput out;
          SpanLog* log =
              probes != nullptr && comm.rank() == 0 ? probes->spans : nullptr;
          core::CcStats s;
          {
            ScopedSpan span(log,
                            cc ? "core.collective_compute"
                               : "core.traditional_compute",
                            job);
            s = cc ? core::collective_compute(comm, sim.ds(), io, out)
                   : core::traditional_compute(comm, sim.ds(), io, out);
          }
          st[static_cast<std::size_t>(comm.rank())] = s;
          if (comm.rank() == 0 && out.has_global) {
            result = out.global_as<double>();
            has_result = true;
          }
        });
        virt[cc ? 0 : 1] = sim.rt().elapsed();
        pass.latencies.push_back(sim.rt().elapsed());
        if (cc) add_core(pass, st);
        verdict.check(has_result &&
                          close(result, truth_[i], true, elements(p)),
                      describe(job, result, truth_[i]));
      }
      pass.exact["virt_s"] += virt[0];
      pass.exact["romio.baseline_virt_s"] += virt[1];
      pass.exact["point." + std::to_string(p.nprocs) + ".cc_speedup"] =
          virt[1] / virt[0];
      if (p.paper_speedup > 0) {
        gap += std::abs(virt[1] / virt[0] / p.paper_speedup - 1);
        ++gap_points;
      }
    }
    pass.exact["core.cc_speedup"] =
        pass.exact["romio.baseline_virt_s"] / pass.exact["virt_s"];
    if (gap_points > 0) pass.exact["fig10_gap"] = gap / gap_points;
    return pass;
  }

  double setup() override {
    Pass pass;
    for (const Point& p : points_) {
      for (int path = 0; path < 2; ++path) {
        Sim sim(p.nprocs, dims(p), seed_, pass);
      }
    }
    return pass.host["setup_s"];
  }

 private:
  std::vector<std::uint64_t> dims(const Point& p) const {
    return {nt_, 2 * static_cast<std::uint64_t>(p.nprocs), nx_};
  }
  std::uint64_t elements(const Point& p) const {
    const auto d = dims(p);
    return d[0] * d[1] * d[2];
  }

  std::uint64_t seed_;
  std::vector<Point> points_;
  std::uint64_t nt_;
  std::uint64_t nx_;
  std::vector<double> truth_;  ///< per point
};

// --- tenants: the multi-tenant service ---------------------------------------

/// 120 sum/max queries from 4 tenants, submitted in one batch at t=0 to a
/// weighted-fair service on 48 ranks (two nodes, two aggregators). Each
/// query reduces one time window of the climate variable in three slices;
/// windows are drawn with a Zipf-like skew so hot windows repeat and hit the
/// shared staging cache. Parked mids persist through write-behind into a
/// park file, so slices also write through stage and pfs.
class Tenants final : public Workload {
 public:
  static constexpr int kProcs = 48;
  static constexpr int kTenants = 4;
  static constexpr int kJobs = 120;
  static constexpr std::uint64_t kWindows = 12;  ///< distinct windows
  static constexpr std::uint64_t kWlen = 2;      ///< time steps per window
  static constexpr std::uint64_t kRows = 32;     ///< y rows per rank
  static constexpr std::uint64_t kNx = 128;
  /// Time steps from one window's start to the next: 8 steps of 1.5 MiB are
  /// three 4 MiB stripes, so window w lies on stripe 3w alone and no two
  /// windows share an OST. Which window the seed makes hot then cannot
  /// change the I/O timeline.
  static constexpr std::uint64_t kStride = 8;

  explicit Tenants(std::uint64_t seed) : seed_(seed) {
    // The reuse pattern is fixed: query i asks for the window of popularity
    // rank[i], drawn once from a Zipf-like law by a constant generator, so
    // every seed has the same cache hits and misses at the same positions
    // (the same amount of PFS work and the same schedule). The seed draws
    // which window holds each rank and which queries are sums (exactly
    // half), and moves every generated value.
    Prng shape(0x7e7a7e7aull);
    std::vector<double> cdf;
    double acc = 0;
    for (std::uint64_t w = 0; w < kWindows; ++w) {
      acc += 1.0 / std::pow(static_cast<double>(w + 1), 1.1);
      cdf.push_back(acc);
    }
    Prng rng(seed);
    std::vector<std::uint64_t> window_of_rank(kWindows);
    for (std::uint64_t w = 0; w < kWindows; ++w) window_of_rank[w] = w;
    for (std::uint64_t w = kWindows; w-- > 1;) {
      std::swap(window_of_rank[w], window_of_rank[rng.next_below(w + 1)]);
    }
    for (int i = 0; i < kJobs; ++i) {
      const double u = shape.next_double() * acc;
      const auto rank = std::min<std::uint64_t>(
          static_cast<std::uint64_t>(
              std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin()),
          kWindows - 1);
      queries_.push_back({window_of_rank[rank], i % 2 == 0});
    }
    for (std::uint64_t i = kJobs; i-- > 1;) {
      std::swap(queries_[i].sum, queries_[rng.next_below(i + 1)].sum);
    }
  }

  double prepare(SpanLog* spans) override {
    double host_s = 0;
    for (const Query& q : queries_) {
      const auto key = std::make_pair(q.window, q.sum);
      if (truth_.count(key) != 0) continue;
      truth_[key] = serial_truth(dims(), seed_, {q.window * kStride, 0, 0},
                                 {kWlen, kRows * kProcs, kNx},
                                 q.sum ? mpi::Op::sum() : mpi::Op::max(),
                                 spans, host_s);
    }
    return host_s;
  }

  Pass run(Probes* probes, Verdict& verdict) override {
    return run_service(probes, &verdict, true);
  }

  double setup() override {
    Pass pass;
    ParkFile park;
    Sim sim(kProcs, dims(), seed_, pass, park.maker());
    return pass.host["setup_s"];
  }

  std::map<std::string, double> extra_layers(const Pass& measured) override {
    // The share of the service makespan that park writes add: the same
    // job stream with ServiceConfig::park off.
    const Pass without = run_service(nullptr, nullptr, false);
    return {{"svc.park_share", 1 - without.exact.at("virt_s") /
                                       measured.exact.at("virt_s")}};
  }

 private:
  struct Query {
    std::uint64_t window;
    bool sum;
  };

  /// The file parked mids persist into. The model maps a byte offset to
  /// the same OST in every file, so slots written from offset 0 would
  /// queue on the OSTs that hold the dataset's first windows. Real file
  /// systems give each file its own starting OST; starting the slots on
  /// the first stripe past the dataset's bytes models that. Slots are 1216
  /// bytes (ServiceContext::park_slot_bytes at 48 ranks); the store is
  /// sparse.
  struct ParkFile {
    pfs::FileId id;
    std::uint64_t offset = 0;

    std::function<void(pfs::Pfs&)> maker() {
      return [this](pfs::Pfs& fs) {
        const std::uint64_t stripe = fs.config().stripe_size;
        offset = (fs.file_size(fs.open("climate.nc")) + stripe - 1) / stripe *
                 stripe;
        const std::uint64_t size =
            offset + std::uint64_t{kJobs} * kProcs * 1216;
        id = fs.create("park",
                       std::make_unique<pfs::OverlayStore>(
                           std::make_unique<pfs::GeneratorStore>(
                               size, [](std::uint64_t, std::span<std::byte> d) {
                                 std::fill(d.begin(), d.end(), std::byte{0});
                               })));
      };
    }
  };

  static std::vector<std::uint64_t> dims() {
    return {kWindows * kStride, kRows * kProcs, kNx};
  }

  Pass run_service(Probes* probes, Verdict* verdict, bool park_on) {
    Pass pass;
    ParkFile park;
    Sim sim(kProcs, dims(), seed_, pass, park.maker());
    std::vector<double> value(kJobs, 0);
    std::vector<svc::JobState> state(kJobs, svc::JobState::queued);
    std::vector<core::CcStats> per_rank(kProcs);  ///< summed over jobs
    std::vector<stage::StageStats> stage_st(kProcs);
    svc::ServiceStats sstats;
    sim.run("svc", probes, [&](mpi::Comm& comm) {
      SpanLog* log =
          probes != nullptr && comm.rank() == 0 ? probes->spans : nullptr;
      svc::ServiceConfig cfg;
      cfg.policy = svc::Policy::weighted_fair;
      cfg.slice_iters = 1;
      cfg.max_concurrent = 4;
      if (park_on) {
        cfg.park = park.id;
        cfg.park_offset = park.offset;
      }
      svc::ServiceContext sc(comm, cfg);
      const int d = sc.register_dataset(sim.ds());
      std::vector<svc::JobId> ids;
      for (int i = 0; i < kJobs; ++i) {
        const Query& q = queries_[static_cast<std::size_t>(i)];
        svc::JobSpec s;
        s.name = "q" + std::to_string(i);
        s.tenant = i % kTenants;
        s.weight = s.tenant + 1;
        s.dataset = d;
        s.io.var = sim.ds().var("temperature");
        s.io.start = {q.window * kStride,
                      kRows * static_cast<std::uint64_t>(comm.rank()), 0};
        s.io.count = {kWlen, kRows, kNx};
        s.io.op = q.sum ? mpi::Op::sum() : mpi::Op::max();
        s.io.hints.cb_buffer_size = 512ull << 10;
        ScopedSpan span(log, "svc.submit", s.name);
        ids.push_back(sc.submit(std::move(s)));
      }
      {
        ScopedSpan span(log, "svc.run_all", "svc");
        sc.run_all();
      }
      sc.staging().wb_flush();
      const auto me = static_cast<std::size_t>(comm.rank());
      stage_st[me] = sc.staging().stats();
      for (const svc::JobId id : ids) add_stats(per_rank[me], sc.job_stats(id));
      if (comm.rank() != 0) return;
      sstats = sc.stats();
      for (int i = 0; i < kJobs; ++i) {
        const auto k = static_cast<std::size_t>(i);
        state[k] = sc.state(ids[k]);
        if (state[k] == svc::JobState::done) {
          value[k] = sc.output(ids[k]).global_as<double>();
          pass.latencies.push_back(sc.latency_s(ids[k]));
        }
      }
    });
    pass.exact["virt_s"] = sim.rt().elapsed();

    add_core(pass, per_rank);

    stage::StageStats sum;
    for (const stage::StageStats& s : stage_st) {
      sum.hits += s.hits;
      sum.misses += s.misses;
      sum.hit_bytes += s.hit_bytes;
      sum.cross_query_hits += s.cross_query_hits;
      sum.wb_bytes += s.wb_bytes;
      sum.wb_stalls += s.wb_stalls;
      sum.readahead_denied += s.readahead_denied;
    }
    auto& e = pass.exact;
    e["stage.hits"] = static_cast<double>(sum.hits);
    e["stage.misses"] = static_cast<double>(sum.misses);
    e["stage.hit_ratio"] =
        sum.hits + sum.misses == 0
            ? 0
            : static_cast<double>(sum.hits) /
                  static_cast<double>(sum.hits + sum.misses);
    e["stage.hit_bytes"] = static_cast<double>(sum.hit_bytes);
    e["stage.cross_query_hits"] = static_cast<double>(sum.cross_query_hits);
    e["stage.wb_bytes"] = static_cast<double>(sum.wb_bytes);
    e["stage.wb_stalls"] = static_cast<double>(sum.wb_stalls);
    e["stage.readahead_denied"] = static_cast<double>(sum.readahead_denied);
    e["svc.slices"] = static_cast<double>(sstats.slices);
    e["svc.switches"] = static_cast<double>(sstats.switches);
    e["svc.affinity_admissions"] =
        static_cast<double>(sstats.affinity_admissions);

    if (verdict != nullptr) {
      for (int i = 0; i < kJobs; ++i) {
        const auto k = static_cast<std::size_t>(i);
        const Query& q = queries_[k];
        const double want = truth_.at({q.window, q.sum});
        const std::string job =
            "q" + std::to_string(i) + (q.sum ? ".sum" : ".max");
        verdict->check(state[k] == svc::JobState::done &&
                           close(value[k], want, q.sum,
                                 kWlen * kRows * kProcs * kNx),
                       state[k] == svc::JobState::done
                           ? describe(job, value[k], want)
                           : job + ": did not finish");
      }
    }
    return pass;
  }

  std::uint64_t seed_;
  std::vector<Query> queries_;
  std::map<std::pair<std::uint64_t, bool>, double> truth_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  // paper_scale: the Fig. 10 points the paper quotes speedups for.
  if (name == "paper_scale") {
    return std::make_unique<ScalingPoints>(
        seed,
        std::vector<ScalingPoints::Point>{{120, 1.42}, {1024, 1.70}}, 32,
        256);
  }
  // many_ranks: 2048 ranks with an 8 KB slab each, so the DES, MPI matching
  // and fiber switches dominate host time instead of byte synthesis.
  if (name == "many_ranks") {
    return std::make_unique<ScalingPoints>(
        seed, std::vector<ScalingPoints::Point>{{2048, 0}}, 2, 256);
  }
  if (name == "tenants") return std::make_unique<Tenants>(seed);
  return nullptr;
}

}  // namespace perfbench

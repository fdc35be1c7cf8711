// The adapter between the benchmark and the distserv library: every
// library call the benchmark makes is in this file.
#include "scenarios.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/cutoffs.hpp"
#include "core/host_state.hpp"
#include "core/metrics.hpp"
#include "core/policies/central_queue.hpp"
#include "core/policies/least_work_left.hpp"
#include "core/policies/random.hpp"
#include "core/policies/shortest_queue.hpp"
#include "core/policies/sita.hpp"
#include "core/server.hpp"
#include "core/stream_metrics.hpp"
#include "dist/fit.hpp"
#include "queueing/mg1.hpp"
#include "sim/event_queue.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "util/slot_map.hpp"
#include "workload/arrival.hpp"
#include "workload/catalog.hpp"
#include "workload/job_source.hpp"
#include "workload/synthetic.hpp"

namespace dsbench {

void Counts::add(const Counts& o) {
  jobs += o.jobs;
  completed += o.completed;
  events += o.events;
  probes += o.probes;
  rpc_dispatches += o.rpc_dispatches;
  requests_sent += o.requests_sent;
  retries += o.retries;
  timeouts += o.timeouts;
  fallbacks += o.fallbacks;
  routed += o.routed;
  snapshot_age_gaps += o.snapshot_age_gaps;
  shed += o.shed;
  reneged += o.reneged;
  migrations += o.migrations;
  interruptions += o.interruptions;
  evals += o.evals;
  powered_time += o.powered_time;
  total_time += o.total_time;
}

namespace {

using namespace distserv;
using Clock = Tracer::Clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Forwards to an inner policy, timing assign() and select_next().
class TimedPolicy final : public core::Policy {
 public:
  TimedPolicy(core::PolicyPtr inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  void reset(std::size_t hosts, std::uint64_t seed) override {
    inner_->reset(hosts, seed);
  }
  std::optional<core::HostId> assign(const workload::Job& job,
                                     const core::ServerView& view) override {
    const auto t0 = Clock::now();
    const std::optional<core::HostId> host = inner_->assign(job, view);
    const auto t1 = Clock::now();
    assign_s += std::chrono::duration<double>(t1 - t0).count();
    ++assign_calls;
    tracer_->job_span("policy.assign", job.id, t0, t1);
    return host;
  }
  std::size_t select_next(const std::deque<workload::Job>& held,
                          core::HostId host,
                          const core::ServerView& view) override {
    const auto t0 = Clock::now();
    const std::size_t index = inner_->select_next(held, host, view);
    const auto t1 = Clock::now();
    select_next_s += std::chrono::duration<double>(t1 - t0).count();
    ++select_next_calls;
    tracer_->job_span("policy.select_next", held[index].id, t0, t1);
    return index;
  }
  std::string name() const override { return inner_->name(); }
  core::DegradedInfo degraded_info() const override {
    return inner_->degraded_info();
  }

  double assign_s = 0.0;
  double select_next_s = 0.0;
  std::uint64_t assign_calls = 0;
  std::uint64_t select_next_calls = 0;

 private:
  core::PolicyPtr inner_;
  Tracer* tracer_;
};

/// Forwards to an inner job source, timing next().
class TimedSource final : public workload::JobSource {
 public:
  TimedSource(workload::JobSource& inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  std::optional<workload::Job> next() override {
    const auto t0 = Clock::now();
    std::optional<workload::Job> job = inner_.next();
    const auto t1 = Clock::now();
    seconds += std::chrono::duration<double>(t1 - t0).count();
    ++calls;
    if (job) tracer_->job_span("workload.source_next", job->id, t0, t1);
    return job;
  }
  std::optional<std::uint64_t> size_hint() const override {
    return inner_.size_hint();
  }

  double seconds = 0.0;
  std::uint64_t calls = 0;

 private:
  workload::JobSource& inner_;
  Tracer* tracer_;
};

enum class Kind { kPaperH2, kArgminH1024, kControlLossy, kStreamOverload };

struct Named {
  const char* name;
  Kind kind;
};
constexpr Named kWorkloads[] = {
    {"paper-h2", Kind::kPaperH2},
    {"argmin-h1024", Kind::kArgminH1024},
    {"control-lossy", Kind::kControlLossy},
    {"stream-overload", Kind::kStreamOverload},
};

/// Mean interarrival gap of a trace: the time unit the control, fault and
/// autoscaler constants scale with, so their event volume is proportional
/// to the job count rather than to the workload's time unit.
double mean_gap(const workload::Trace& trace) {
  const auto& jobs = trace.jobs();
  return (jobs.back().arrival - jobs.front().arrival) /
         static_cast<double>(jobs.size() - 1);
}

/// The control-plane configuration of the tracked control rows of
/// bench_micro_simulator: one fleet-wide probe per five arrivals, 10% probe
/// loss, lossy RPCs with two retries and capped backoff, no misroute oracle
/// (a diagnostic, not part of the dispatch path).
sim::ControlPlaneConfig lossy_control(double gap, std::size_t hosts) {
  sim::ControlPlaneConfig c;
  c.enabled = true;
  c.probe_period = 5.0 * gap * static_cast<double>(hosts);
  c.probe_loss = 0.1;
  c.rpc_timeout = gap;
  c.rpc_loss = 0.05;
  c.ack_loss = 0.05;
  c.max_retries = 2;
  c.backoff_base = 0.5 * gap;
  c.backoff_cap = 4.0 * gap;
  c.misroute_oracle = false;
  return c;
}

/// Equal-count size quantiles as SITA-E cutoffs, as the tracked throughput
/// suite derives them (no analytic search).
std::vector<double> quantile_cutoffs(const workload::Trace& trace,
                                     std::size_t hosts) {
  std::vector<double> sizes = trace.sizes();
  std::sort(sizes.begin(), sizes.end());
  std::vector<double> cutoffs;
  for (std::size_t i = 1; i < hosts; ++i) {
    double c = sizes[i * sizes.size() / hosts];
    if (!cutoffs.empty() && c <= cutoffs.back()) c = cutoffs.back() * 1.0001;
    cutoffs.push_back(c);
  }
  return cutoffs;
}

std::uint64_t mix(std::uint64_t h, double x) {
  return util::mix64(h ^ std::bit_cast<std::uint64_t>(x));
}

std::uint64_t records_digest(const core::RunResult& r) {
  std::uint64_t h = util::mix64(r.records.size());
  for (const core::JobRecord& rec : r.records) {
    h = mix(h + rec.host + (static_cast<std::uint64_t>(rec.outcome) << 32),
            rec.start);
    h = mix(h, rec.completion);
  }
  return h;
}

std::uint64_t stream_digest(const core::RunResult& r) {
  const core::StreamSummary& s = *r.stream;
  std::uint64_t h = util::mix64(s.jobs() * 31 + s.jobs_failed());
  h = util::mix64(h ^ (s.jobs_shed() * 131 + s.jobs_reneged()));
  h = mix(h, s.slowdown().mean());
  h = mix(h, s.slowdown().variance_sample());
  h = mix(h, s.response().mean());
  h = mix(h, s.slowdown_quantile(0.99));
  return mix(h, r.makespan);
}

/// One simulation config of a workload.
struct Config {
  std::string name;
  std::size_t trace = 0;  ///< index into Workload::traces_ (record mode)
  core::PolicyPtr policy;
  TimedPolicy* timed = nullptr;  ///< the decorator, in a traced setup
  std::unique_ptr<core::DistributedServer> server;
  bool control = false;  ///< the control plane is on (off in a twin run)
  double gap = 0.0;
  /// Random on two hosts at rho 0.5: has a closed-form mean slowdown.
  bool pk_reference = false;
};

class Workload final : public Scenario {
 public:
  Workload(Kind kind, std::uint64_t seed, double scale)
      : kind_(kind), seed_(seed), scale_(scale) {}

  void setup(Tracer* tracer) override {
    configs_.clear();
    traces_.clear();
    stream_.reset();
    switch (kind_) {
      case Kind::kPaperH2: return setup_paper_h2(tracer);
      case Kind::kArgminH1024: return setup_argmin_h1024(tracer);
      case Kind::kControlLossy: return setup_control_lossy(tracer);
      case Kind::kStreamOverload: return setup_stream_overload(tracer);
    }
  }

  std::vector<RunOutcome> run(RunMode mode, Tracer* tracer) override {
    std::vector<RunOutcome> outcomes;
    outcomes.reserve(configs_.size());
    for (Config& c : configs_) {
      RunOutcome out;
      out.config = c.name;
      try {
        run_config(c, mode, tracer, out);
      } catch (const std::exception& e) {
        out.problems.push_back(std::string("exception: ") + e.what());
      }
      outcomes.push_back(std::move(out));
    }
    return outcomes;
  }

  bool has_control() const override { return kind_ == Kind::kControlLossy; }

 private:
  /// State of the one streaming config: the source pulls its jobs from
  /// these while the run executes.
  struct Stream {
    dist::BoundedParetoMixture sizes;
    workload::Mmpp2Arrivals arrivals;
    dist::Rng rng;
    workload::SyntheticSource source;
    std::uint64_t count;

    Stream(dist::BoundedParetoMixture d, double rate, std::uint64_t n,
           dist::Rng r)
        : sizes(std::move(d)),
          arrivals(workload::Mmpp2Arrivals::with_burstiness(rate, 10.0, 0.1,
                                                            50.0)),
          rng(r),
          source(n, sizes, arrivals, rng),
          count(n) {}
  };

  [[nodiscard]] std::size_t jobs(double full) const {
    return std::max<std::size_t>(1000, static_cast<std::size_t>(full * scale_));
  }
  [[nodiscard]] dist::Rng rng(std::uint64_t stream) const {
    return dist::Rng(seed_).split(stream);
  }
  static const dist::Distribution& c90() {
    return workload::service_distribution(workload::find_workload("c90"));
  }

  /// Adds a config: wraps `policy` in a TimedPolicy when tracing, then
  /// builds its server.
  Config& add_config(std::string name, std::size_t trace, std::size_t hosts,
                     core::PolicyPtr policy, Tracer* tracer) {
    Config c;
    c.name = std::move(name);
    c.trace = trace;
    if (tracer != nullptr) {
      auto timed = std::make_unique<TimedPolicy>(std::move(policy), tracer);
      c.timed = timed.get();
      policy = std::move(timed);
    }
    c.policy = std::move(policy);
    c.server = std::make_unique<core::DistributedServer>(hosts, *c.policy);
    if (!traces_.empty()) c.gap = mean_gap(traces_[trace]);
    configs_.push_back(std::move(c));
    return configs_.back();
  }

  // The paper's experiment (Figs 2, 4, 5): c90 sizes, Poisson arrivals,
  // two hosts at two loads, six policies; cutoffs from the analytic search
  // over a separate training draw.
  void setup_paper_h2(Tracer* tracer) {
    constexpr double kLoads[] = {0.5, 0.8};
    std::vector<double> train;
    {
      Tracer::Scope span(tracer, "workload.trace_build");
      dist::Rng train_rng = rng(1), eval_rng = rng(2);
      train = workload::generate_sizes(c90(), jobs(200000), train_rng);
      const std::vector<double> eval =
          workload::generate_sizes(c90(), jobs(300000), eval_rng);
      for (std::size_t i = 0; i < 2; ++i) {
        dist::Rng arrivals = rng(10 + i);
        traces_.push_back(
            workload::Trace::with_poisson_load(eval, kLoads[i], 2, arrivals));
      }
    }
    std::vector<double> sita_e;
    std::vector<double> u_opt[2], u_fair[2];
    {
      Tracer::Scope span(tracer, "queueing.cutoff_search");
      const core::CutoffDeriver deriver(train);
      sita_e = deriver.sita_e(2);
      for (std::size_t i = 0; i < 2; ++i) {
        const auto opt = deriver.sita_u_opt(kLoads[i]);
        const auto fair = deriver.sita_u_fair(kLoads[i]);
        if (!opt.feasible || !fair.feasible) {
          throw std::runtime_error("paper-h2: no stable SITA-U cutoff");
        }
        u_opt[i] = {opt.cutoff};
        u_fair[i] = {fair.cutoff};
      }
    }
    Tracer::Scope span(tracer, "core.server_build");
    for (std::size_t i = 0; i < 2; ++i) {
      const std::string load = "/rho" + std::to_string(kLoads[i]).substr(0, 3);
      add_config("Random" + load, i, 2, std::make_unique<core::RandomPolicy>(),
                 tracer)
          .pk_reference = i == 0;
      add_config("Least-Work-Left" + load, i, 2,
                 std::make_unique<core::LeastWorkLeftPolicy>(), tracer);
      add_config("Central-Queue" + load, i, 2,
                 std::make_unique<core::CentralQueuePolicy>(), tracer);
      add_config("SITA-E" + load, i, 2,
                 std::make_unique<core::SitaPolicy>(sita_e, "SITA-E"), tracer);
      add_config("SITA-U-opt" + load, i, 2,
                 std::make_unique<core::SitaPolicy>(u_opt[i], "SITA-U-opt"),
                 tracer);
      add_config("SITA-U-fair" + load, i, 2,
                 std::make_unique<core::SitaPolicy>(u_fair[i], "SITA-U-fair"),
                 tracer);
    }
  }

  // Argmin dispatch at scale: the O(log h) HostStateTable queries dominate.
  void setup_argmin_h1024(Tracer* tracer) {
    constexpr std::size_t kHosts = 1024;
    {
      Tracer::Scope span(tracer, "workload.trace_build");
      dist::Rng sizes_rng = rng(1), arrivals = rng(2);
      const std::vector<double> sizes =
          workload::generate_sizes(c90(), jobs(750000), sizes_rng);
      traces_.push_back(
          workload::Trace::with_poisson_load(sizes, 0.95, kHosts, arrivals));
    }
    Tracer::Scope span(tracer, "core.server_build");
    add_config("Shortest-Queue/h1024", 0, kHosts,
               std::make_unique<core::ShortestQueuePolicy>(), tracer);
    add_config("Least-Work-Left/h1024", 0, kHosts,
               std::make_unique<core::LeastWorkLeftPolicy>(), tracer);
  }

  // The tracked lossy control config on the three unexplained control gaps
  // (h=2, SITA-E h=32, herding at h=1024) plus four hash-sharded
  // dispatchers at h=8.
  void setup_control_lossy(Tracer* tracer) {
    struct Spec {
      const char* name;
      std::size_t hosts;
      double jobs;
      std::uint32_t dispatchers;
    };
    constexpr Spec kSpecs[] = {
        {"Least-Work-Left/h2", 2, 750000, 1},
        {"SITA-E/h32", 32, 400000, 1},
        {"Least-Work-Left/h8/d4", 8, 450000, 4},
        {"Shortest-Queue/h1024", 1024, 100000, 1},
    };
    {
      Tracer::Scope span(tracer, "workload.trace_build");
      for (std::size_t i = 0; i < 4; ++i) {
        dist::Rng sizes_rng = rng(2 * i + 1), arrivals = rng(2 * i + 2);
        const std::vector<double> sizes =
            workload::generate_sizes(c90(), jobs(kSpecs[i].jobs), sizes_rng);
        traces_.push_back(workload::Trace::with_poisson_load(
            sizes, 0.7, kSpecs[i].hosts, arrivals));
      }
    }
    std::vector<core::PolicyPtr> policies;
    {
      Tracer::Scope span(tracer, "core.policy_build");
      policies.push_back(std::make_unique<core::LeastWorkLeftPolicy>());
      policies.push_back(std::make_unique<core::SitaPolicy>(
          quantile_cutoffs(traces_[1], 32), "SITA-E"));
      policies.push_back(std::make_unique<core::LeastWorkLeftPolicy>());
      policies.push_back(std::make_unique<core::ShortestQueuePolicy>());
    }
    {
      Tracer::Scope span(tracer, "core.server_build");
      for (std::size_t i = 0; i < 4; ++i) {
        add_config(kSpecs[i].name, i, kSpecs[i].hosts, std::move(policies[i]),
                   tracer);
      }
    }
    Tracer::Scope span(tracer, "sim.feature_enable");
    for (std::size_t i = 0; i < 4; ++i) {
      Config& c = configs_[i];
      sim::ControlPlaneConfig control = lossy_control(c.gap, kSpecs[i].hosts);
      control.dispatchers = kSpecs[i].dispatchers;
      control.shard = sim::ShardMode::kHash;
      c.server->enable_control(control);
      c.control = true;
    }
  }

  // The bounded-memory path: jobs drawn per pull, folded as they resolve,
  // on an overloaded heterogeneous elastic fleet with every protection on.
  void setup_stream_overload(Tracer* tracer) {
    constexpr std::size_t kHosts = 32;
    std::vector<double> speeds(kHosts);
    double capacity = 0.0;
    for (std::size_t h = 0; h < kHosts; ++h) {
      speeds[h] = static_cast<double>(1u << (h % 3));  // 1, 2, 4, 1, ...
      capacity += speeds[h];
    }
    {
      Tracer::Scope span(tracer, "workload.trace_build");
      // The calibrated c90 fit, recomputed per rep: a fresh experiment
      // builds its source from the workload spec.
      const workload::WorkloadSpec& spec = workload::find_workload("c90");
      const dist::BodyTailFit fit = dist::fit_body_tail(
          spec.mean_size, spec.scv_size, spec.min_size,
          spec.body_tail->body_break, spec.body_tail->alpha_body,
          spec.body_tail->alpha_tail);
      if (!fit.converged) throw std::runtime_error("c90 fit did not converge");
      dist::BoundedParetoMixture sizes = fit.distribution();
      const double rate = 0.9 * capacity / sizes.mean();
      stream_ = std::make_unique<Stream>(std::move(sizes), rate,
                                         jobs(2000000), rng(1));
    }
    const double gap = 1.0 / stream_->arrivals.rate();
    const double host_gap = gap * static_cast<double>(kHosts);
    {
      Tracer::Scope span(tracer, "core.server_build");
      add_config("Least-Work-Left/h32/stream", 0, kHosts,
                 std::make_unique<core::LeastWorkLeftPolicy>(), tracer);
    }
    Tracer::Scope span(tracer, "sim.feature_enable");
    Config& c = configs_.back();
    c.gap = gap;
    c.server->set_host_speeds(speeds);
    sim::OverloadConfig overload;
    overload.enabled = true;
    overload.queue_cap = 8;
    overload.overflow = sim::OverflowAction::kShedLargest;
    overload.patience_mean = 5.0 * stream_->sizes.mean();
    overload.migrate_on_drain = true;
    overload.migrate_on_fail = true;
    c.server->enable_overload(overload);
    sim::FaultConfig faults;
    faults.enabled = true;
    // Frequent enough that queued jobs migrate off failing hosts even at
    // the smoke scale; availability stays at 97%.
    faults.mtbf = 300.0 * host_gap;
    faults.mttr = 10.0 * host_gap;
    c.server->enable_faults(faults, core::RecoveryMode::kResubmit);
    sim::AutoscalerConfig scaler;
    scaler.enabled = true;
    scaler.check_period = 20.0 * host_gap;
    scaler.warmup_delay = 5.0 * host_gap;
    scaler.min_hosts = kHosts / 4;
    c.server->enable_autoscaler(scaler);
  }

  void run_config(Config& c, RunMode mode, Tracer* tracer, RunOutcome& out) {
    core::DistributedServer& server = *c.server;
    const bool stream = stream_ != nullptr;
    if (mode == RunMode::kAudited) {
      sim::AuditConfig audit;
      audit.enabled = true;
      audit.bounded_shadow = stream;
      server.enable_audit(audit);
    }
    if (mode == RunMode::kPlainTwin) server.enable_control({});

    core::RunResult result;
    {
      Tracer::Scope span(tracer, "server.run");
      const auto t0 = Clock::now();
      if (stream) {
        if (mode == RunMode::kTraced) {
          TimedSource timed(stream_->source, tracer);
          result = server.run_stream(timed, seed_);
          out.source_s = timed.seconds;
          out.source_calls = timed.calls;
        } else {
          result = server.run_stream(stream_->source, seed_);
        }
      } else if (mode == RunMode::kTraced) {
        workload::TraceSource source(traces_[c.trace]);
        TimedSource timed(source, tracer);
        result = server.run(timed, seed_);
        out.source_s = timed.seconds;
        out.source_calls = timed.calls;
      } else {
        result = server.run(traces_[c.trace], seed_);
      }
      out.run_s = seconds_since(t0);
    }
    core::MetricsSummary summary;
    {
      Tracer::Scope span(tracer, "metrics.summarize");
      const auto t0 = Clock::now();
      summary = core::summarize(result);
      out.summarize_s = seconds_since(t0);
    }

    if (c.timed != nullptr) {
      out.assign_s = c.timed->assign_s;
      out.select_next_s = c.timed->select_next_s;
      out.assign_calls = c.timed->assign_calls;
      out.select_next_calls = c.timed->select_next_calls;
    }
    out.mean_slowdown = summary.mean_slowdown;
    out.p99_slowdown = summary.p99_slowdown;
    if (c.pk_reference) {
      // Random splits the Poisson stream into two independent Poisson
      // streams, so each host is an M/G/1 queue (Pollaczek-Khinchine).
      const workload::Trace& trace = traces_[c.trace];
      const auto moments =
          queueing::ServiceMoments::of_samples(trace.sizes());
      out.analytic_mean_slowdown =
          queueing::mg1_fcfs(trace.arrival_rate() / 2.0, moments)
              .mean_slowdown;
    }
    fill_counts(result, summary, c.gap, out.counts);
    out.digest = stream ? stream_digest(result) : records_digest(result);
    check(c, mode, result, out);
  }

  static void fill_counts(const core::RunResult& r,
                          const core::MetricsSummary& s, double gap,
                          Counts& n) {
    n.completed = s.jobs;
    n.jobs = s.jobs + s.jobs_failed;
    n.events = r.events_executed;
    n.interruptions = r.interruptions;
    if (r.control) {
      const sim::ControlStats& c = *r.control;
      n.probes = c.probes_sent;
      n.rpc_dispatches = c.rpc_dispatches;
      n.requests_sent = c.requests_sent;
      n.retries = c.retries;
      n.timeouts = c.timeouts;
      n.fallbacks = c.fallback_activations();
      n.routed = c.routed;
      n.snapshot_age_gaps = c.snapshot_age_sum / gap;
    }
    if (r.overload) {
      n.shed = r.overload->shed();
      n.reneged = r.overload->reneged;
      n.migrations = r.overload->migrated();
    }
    if (r.scaling) {
      n.evals = r.scaling->evals;
      n.powered_time = r.scaling->host_time_powered;
      n.total_time = r.scaling->host_time_total;
    }
  }

  /// The correctness gate: appends one line per failed check.
  void check(const Config& c, RunMode mode, const core::RunResult& r,
             RunOutcome& out) {
    auto& problems = out.problems;
    const Counts& n = out.counts;
    if (mode == RunMode::kChecked || mode == RunMode::kTraced) {
      if (!r.records.empty()) {
        for (std::string& p : core::validate_run(r)) {
          problems.push_back("validate_run: " + std::move(p));
        }
      }
    }
    if (mode == RunMode::kAudited && (!r.audit || !r.audit->ok())) {
      problems.push_back("audit: " +
                         (r.audit ? r.audit->to_string() : "no report"));
    }
    if (stream_ != nullptr) {
      // The source must be exhausted and every pulled job resolved once.
      if (stream_->source.next().has_value() || n.jobs != stream_->count) {
        problems.push_back("stream: " + std::to_string(n.jobs) +
                           " jobs resolved of " +
                           std::to_string(stream_->count) + " pulled");
      }
      if (mode != RunMode::kPlainTwin) {
        const std::pair<const char*, std::uint64_t> fired[] = {
            {"shed", n.shed},
            {"reneged", n.reneged},
            {"migrations", n.migrations},
            {"interruptions", n.interruptions},
            {"scaler evals", n.evals}};
        for (const auto& [what, count] : fired) {
          if (count == 0) {
            problems.push_back(std::string(what) + " never fired");
          }
        }
      }
    } else if (n.jobs != traces_[c.trace].size()) {
      problems.push_back("records: " + std::to_string(n.jobs) + " of " +
                         std::to_string(traces_[c.trace].size()) + " jobs");
    }
    if (c.control && mode != RunMode::kPlainTwin &&
        (n.probes == 0 || n.retries == 0)) {
      problems.push_back("control plane: probes or retries never fired");
    }
  }

  Kind kind_;
  std::uint64_t seed_;
  double scale_;
  std::vector<workload::Trace> traces_;
  std::unique_ptr<Stream> stream_;
  std::vector<Config> configs_;
};

/// Runs `kernel` five times and returns the median ns per operation.
template <typename Kernel>
double median_ns_per_op(std::uint64_t ops, Kernel&& kernel) {
  std::vector<double> ns;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    kernel(ops);
    ns.push_back(seconds_since(t0) * 1e9 / static_cast<double>(ops));
  }
  return median(std::move(ns));
}

/// Keeps a computed value alive so the kernel is not optimized away.
volatile double g_sink = 0.0;

double churn_ns(std::size_t pending, std::uint64_t ops) {
  return median_ns_per_op(ops, [pending](std::uint64_t n) {
    sim::EventQueue q;
    q.reserve(pending);
    dist::Rng rng(2);
    double t = 0.0;
    for (std::size_t i = 0; i < pending; ++i) {
      q.schedule(t += rng.uniform01(), sim::Event::timer());
    }
    const double span = static_cast<double>(pending);
    for (std::uint64_t i = 0; i < n; ++i) {
      const sim::Event e = q.pop();
      q.schedule(e.time + rng.uniform01() * span, sim::Event::timer());
    }
    g_sink = q.next_time();
  });
}

double host_state_ns(core::HostStateTable::Semantics semantics,
                     std::uint64_t ops) {
  constexpr std::size_t kHosts = 1024;
  return median_ns_per_op(ops, [semantics](std::uint64_t n) {
    const bool live = semantics == core::HostStateTable::Semantics::kLive;
    core::HostStateTable table;
    table.reset(kHosts, semantics);
    dist::Rng rng(3);
    double now = 0.0, acc = 0.0;
    for (std::uint64_t i = 0; i < n; ++i) {
      now += 0.01;
      const auto h = static_cast<core::HostId>(rng.below(kHosts));
      const auto queue = static_cast<std::uint32_t>(rng.below(8));
      const double work = rng.uniform01() * 100.0;
      if (live) {
        table.set_live(h, queue > 0, now + work, work * queue, queue);
      } else {
        table.set_observation(h, queue, work, queue == 0, now);
      }
      acc += static_cast<double>(*table.argmin_work(now)) +
             static_cast<double>(*table.argmin_queue_len());
    }
    g_sink = acc;
  });
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const Named& w : kWorkloads) v.emplace_back(w.name);
    return v;
  }();
  return names;
}

std::unique_ptr<Scenario> make_scenario(std::string_view name,
                                        std::uint64_t seed, double scale) {
  for (const Named& w : kWorkloads) {
    if (name == w.name) return std::make_unique<Workload>(w.kind, seed, scale);
  }
  return nullptr;
}

double calib_ns_per_op(std::uint64_t ops) { return churn_ns(256, ops); }

Micros run_micros(std::uint64_t ops) {
  Micros m;
  m.dist_sample_ns = median_ns_per_op(ops, [](std::uint64_t n) {
    const auto& d =
        workload::service_distribution(workload::find_workload("c90"));
    dist::Rng rng(7);
    double acc = 0.0;
    for (std::uint64_t i = 0; i < n; ++i) acc += d.sample(rng);
    g_sink = acc;
  });
  m.live_update_argmin_ns =
      host_state_ns(core::HostStateTable::Semantics::kLive, ops);
  m.observed_update_argmin_ns =
      host_state_ns(core::HostStateTable::Semantics::kObserved, ops);
  m.stream_fold_ns = median_ns_per_op(ops, [](std::uint64_t n) {
    std::vector<core::JobRecord> records(4096);
    dist::Rng rng(5);
    for (std::size_t i = 0; i < records.size(); ++i) {
      core::JobRecord& r = records[i];
      r.id = i;
      r.size = 1.0 + rng.uniform01() * 1000.0;
      r.start = rng.uniform01() * 5000.0;
      r.completion = r.start + r.size;
    }
    core::StreamSummary summary;
    for (std::uint64_t i = 0; i < n; ++i) summary.add(records[i & 4095]);
    g_sink = summary.slowdown().mean();
  });
  m.churn_p16_ns = churn_ns(16, ops);
  m.churn_p1024_ns = churn_ns(1024, ops);
  m.slot_map_ns = median_ns_per_op(ops, [](std::uint64_t n) {
    constexpr std::uint64_t kLive = 64;
    util::SlotMap<std::uint64_t, std::uint64_t> map;
    map.reserve(kLive);
    for (std::uint64_t k = 0; k < kLive; ++k) map.upsert(k) = k;
    for (std::uint64_t k = kLive; k < kLive + n; ++k) {
      map.upsert(k) = k;
      map.erase(k - kLive);
    }
    g_sink = static_cast<double>(map.size());
  });
  return m;
}

}  // namespace dsbench

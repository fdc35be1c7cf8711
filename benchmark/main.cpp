// The benchmark harness. Runs one workload in this process, single-threaded:
//
//   1. one untimed warm-up rep, checked (validate_run on record-mode runs);
//   2. timed reps, each a fresh setup plus one run of every config, until
//      both --min-reps reps and --seconds have passed;
//   3. with --trace 1 only: one traced rep (timing decorators and spans),
//      one audited rep, plain twins of the control configs, and the micro
//      kernels, bracketed by a fixed calibration kernel.
//
// End-to-end metrics come from the untraced reps of step 2 only; per-layer
// metrics from step 3. The last stdout line is the JSON result.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "scenarios.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace dsbench {
namespace {

using Clock = Tracer::Clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15.0;
  bool trace = false;
  double scale = 1.0;
  std::size_t min_reps = 10;
  std::string trace_dir = ".";
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "distserv_benchmark: " << error << "\n"
            << "usage: distserv_benchmark --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--scale F] [--min-reps N] "
               "[--trace-dir DIR]\nworkloads:";
  for (const std::string& w : workload_names()) std::cerr << " " << w;
  std::cerr << "\n";
  std::exit(2);
}

double parse_number(const std::string& flag, const std::string& text,
                    double lo, double hi) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || *end != '\0' || !(v >= lo && v <= hi)) {
    usage(flag + " expects a number in [" + std::to_string(lo) + ", " +
          std::to_string(hi) + "], got '" + text + "'");
  }
  return v;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = static_cast<std::uint64_t>(parse_number(flag, value, 0, 1e15));
    } else if (flag == "--seconds") {
      o.seconds = parse_number(flag, value, 0, 3600);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace expects 0 or 1");
      o.trace = value == "1";
    } else if (flag == "--scale") {
      o.scale = parse_number(flag, value, 1e-3, 10);
    } else if (flag == "--min-reps") {
      o.min_reps = static_cast<std::size_t>(parse_number(flag, value, 1, 1000));
    } else if (flag == "--trace-dir") {
      o.trace_dir = value;
    } else {
      usage("unknown option " + flag);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  return o;
}

/// Operations attempted (simulation runs) and failed (any correctness
/// check), with the first few failures reported on stderr.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(const std::vector<RunOutcome>& runs, const char* phase) {
    for (const RunOutcome& r : runs) {
      ++attempted;
      if (r.problems.empty()) continue;
      if (++failed <= 10) {
        for (const std::string& p : r.problems) {
          std::cerr << "FAILED " << phase << " " << r.config << ": " << p
                    << "\n";
        }
      }
    }
  }
};

/// A model output must not depend on how the run was observed: timed,
/// traced and audited runs reproduce the warm-up's outcome digests.
void require_digests(std::vector<RunOutcome>& runs,
                     const std::vector<RunOutcome>& reference) {
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (runs[i].digest != reference[i].digest) {
      runs[i].problems.push_back("model.digest differs from the warm-up rep");
    }
  }
}

struct Totals {
  Counts counts;
  double run_s = 0.0;
  double summarize_s = 0.0;
  double source_s = 0.0;
  double assign_s = 0.0;
  double select_next_s = 0.0;
  std::uint64_t source_calls = 0;
  std::uint64_t assign_calls = 0;
  std::uint64_t select_next_calls = 0;

  explicit Totals(const std::vector<RunOutcome>& runs) {
    for (const RunOutcome& r : runs) {
      counts.add(r.counts);
      run_s += r.run_s;
      summarize_s += r.summarize_s;
      source_s += r.source_s;
      assign_s += r.assign_s;
      select_next_s += r.select_next_s;
      source_calls += r.source_calls;
      assign_calls += r.assign_calls;
      select_next_calls += r.select_next_calls;
    }
  }
  [[nodiscard]] double work_s() const { return run_s + summarize_s; }
};

/// `num / den`, or 0 when the denominator is 0 (a layer the workload does
/// not exercise).
double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

void print_result(const Tally& tally, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              tally.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name, metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

void print_spread(const char* name, const char* unit,
                  const std::vector<double>& values) {
  const Quartiles q = quartiles(values);
  std::printf("%-12s median %.6g %s  q1 %.6g  q3 %.6g  iqr %.2f%% of median"
              "  n=%zu\n",
              name, q.median, unit, q.q1, q.q3, 100.0 * q.iqr_share(),
              values.size());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

/// Fixed op counts, scaled with the workload so a smoke run stays short.
std::uint64_t ops(double full, double scale) {
  return static_cast<std::uint64_t>(std::max(1000.0, full * scale));
}

struct Rep {
  double setup_s;
  Totals totals;
};

/// Steps 1 and 2: the checked warm-up, then the timed reps.
struct Untraced {
  std::vector<RunOutcome> warm;
  std::vector<Rep> reps;
  double peak_rss_mb = 0.0;

  [[nodiscard]] std::vector<double> per_rep(double (*f)(const Rep&)) const {
    std::vector<double> v;
    for (const Rep& r : reps) v.push_back(f(r));
    return v;
  }
};

Untraced run_untraced(Scenario& scenario, const Options& o, Tally& tally) {
  Untraced u;
  scenario.setup(nullptr);
  u.warm = scenario.run(RunMode::kChecked, nullptr);
  tally.add(u.warm, "warm-up");
  std::vector<std::vector<double>> config_work_s(u.warm.size());
  const auto start = Clock::now();
  while ((u.reps.size() < o.min_reps || seconds_since(start) < o.seconds) &&
         u.reps.size() < 1000) {
    const auto t0 = Clock::now();
    scenario.setup(nullptr);
    const double setup_s = seconds_since(t0);
    std::vector<RunOutcome> runs = scenario.run(RunMode::kTimed, nullptr);
    require_digests(runs, u.warm);
    tally.add(runs, "timed");
    for (std::size_t i = 0; i < runs.size(); ++i) {
      config_work_s[i].push_back(runs[i].run_s + runs[i].summarize_s);
    }
    u.reps.push_back({setup_s, Totals(runs)});
  }
  u.peak_rss_mb = peak_rss_mb();

  for (std::size_t i = 0; i < u.warm.size(); ++i) {
    const Counts& c = u.warm[i].counts;
    std::printf("config %-26s %8llu jobs  %6.3f events/job  %8.2f ms\n",
                u.warm[i].config.c_str(),
                static_cast<unsigned long long>(c.jobs),
                static_cast<double>(c.events) / static_cast<double>(c.jobs),
                median(config_work_s[i]) * 1e3);
  }
  return u;
}

double jobs_per_s(const Rep& r) {
  return static_cast<double>(r.totals.counts.jobs) / r.totals.work_s();
}
double setup_s(const Rep& r) { return r.setup_s; }
double work_s(const Rep& r) { return r.totals.work_s(); }
double run_s(const Rep& r) { return r.totals.run_s; }
double ns_per_event(const Rep& r) {
  return r.totals.run_s * 1e9 / static_cast<double>(r.totals.counts.events);
}

/// Step 3: the traced, audited and plain-twin reps and the micro kernels,
/// reduced to the per-layer metrics.
std::vector<Metric> run_traced(Scenario& scenario, const Options& o,
                               const Untraced& u, double calib_before,
                               Tally& tally) {
  Tracer tracer;
  {
    Tracer::Scope span(&tracer, "rep.setup");
    scenario.setup(&tracer);
  }
  std::vector<RunOutcome> traced;
  {
    Tracer::Scope span(&tracer, "rep.run");
    traced = scenario.run(RunMode::kTraced, &tracer);
  }
  require_digests(traced, u.warm);
  tally.add(traced, "traced");

  scenario.setup(nullptr);
  std::vector<RunOutcome> audited = scenario.run(RunMode::kAudited, nullptr);
  require_digests(audited, u.warm);
  tally.add(audited, "audited");

  std::vector<RunOutcome> twins;
  if (scenario.has_control()) {
    scenario.setup(nullptr);
    twins = scenario.run(RunMode::kPlainTwin, nullptr);
    tally.add(twins, "plain-twin");
  }
  const Micros micros = run_micros(ops(1e6, o.scale));
  const double calib_after = calib_ns_per_op(ops(2e6, o.scale));

  const std::string trace_path =
      o.trace_dir + "/trace-" + o.workload + ".jsonl";
  if (!tracer.write_jsonl(trace_path)) {
    throw std::runtime_error("cannot write " + trace_path);
  }

  const Totals t(traced);
  const Counts& n = t.counts;
  const double jobs = static_cast<double>(n.jobs);
  const auto per_job = [jobs](auto count) {
    return static_cast<double>(count) / jobs;
  };
  // Layer times: the traced rep's decorated calls, each less the cost of
  // its own two clock reads; a layer cheaper than the jitter of that cost
  // reads 0. The run span they sit in: the median untraced rep, so tracing
  // overhead outside the calls does not count as server time
  // (trace.overhead_ratio reports it).
  const double clock_ns = tracer.clock_read_ns();
  const auto net_ns = [clock_ns](double seconds, std::uint64_t calls) {
    return std::max(0.0, seconds * 1e9 - static_cast<double>(calls) * clock_ns);
  };
  const double source_ns = net_ns(t.source_s, t.source_calls);
  const double assign_ns = net_ns(t.assign_s, t.assign_calls);
  const double select_next_ns = net_ns(t.select_next_s, t.select_next_calls);
  const double run_ns_per_job = median(u.per_rep(run_s)) * 1e9 / jobs;
  const double untraced_work_s = median(u.per_rep(work_s));
  const Totals twin(twins);
  std::uint64_t digest = 0;
  double pk_rel_err = 0.0;
  for (const RunOutcome& r : u.warm) {
    digest = digest * 0x100000001b3ULL ^ r.digest;
    if (r.analytic_mean_slowdown > 0.0) {
      pk_rel_err = std::fabs(r.mean_slowdown - r.analytic_mean_slowdown) /
                   r.analytic_mean_slowdown;
    }
  }
  std::printf("traced: policy.assign %.1f of %.1f run ns/job (%.1f%%), "
              "clock read %.1f ns per timed call\n",
              assign_ns / jobs, run_ns_per_job,
              100.0 * assign_ns / jobs / run_ns_per_job, clock_ns);
  std::printf("calibration: %.4g ns/op before, %.4g ns/op after\n",
              calib_before, calib_after);
  std::printf("spans: %s\n", trace_path.c_str());

  return {
      {"workload.source_ns_per_job", source_ns / jobs, "ns/job"},
      {"workload.trace_build_s", tracer.total_s("workload.trace_build"), "s"},
      {"dist.sample_ns", micros.dist_sample_ns, "ns"},
      {"queueing.cutoff_search_s", tracer.total_s("queueing.cutoff_search"),
       "s"},
      {"policy.assign_ns_per_job", assign_ns / jobs, "ns/job"},
      {"policy.select_next_calls_per_job", per_job(t.select_next_calls),
       "calls/job"},
      {"policy.select_next_ns_per_call",
       ratio(select_next_ns, static_cast<double>(t.select_next_calls)),
       "ns/call"},
      {"host_state.live_update_argmin_ns", micros.live_update_argmin_ns, "ns"},
      {"host_state.observed_update_argmin_ns",
       micros.observed_update_argmin_ns, "ns"},
      {"server.run_ns_per_job", run_ns_per_job, "ns/job"},
      {"server.self_ns_per_job",
       run_ns_per_job - (source_ns + assign_ns + select_next_ns) / jobs,
       "ns/job"},
      {"server.events_per_job", per_job(n.events), "events/job"},
      {"server.ns_per_event", median(u.per_rep(ns_per_event)), "ns/event"},
      {"metrics.summarize_ns_per_job", t.summarize_s * 1e9 / jobs, "ns/job"},
      {"stream.fold_ns_per_job", micros.stream_fold_ns, "ns/job"},
      {"event_queue.churn_ns_p16", micros.churn_p16_ns, "ns"},
      {"event_queue.churn_ns_p1024", micros.churn_p1024_ns, "ns"},
      {"control.probes_per_job", per_job(n.probes), "probes/job"},
      {"control.requests_per_dispatch",
       ratio(static_cast<double>(n.requests_sent),
             static_cast<double>(n.rpc_dispatches)),
       "sends/dispatch"},
      {"control.useful_send_ratio",
       ratio(static_cast<double>(n.rpc_dispatches),
             static_cast<double>(n.requests_sent)),
       "ratio"},
      {"control.retries_per_job", per_job(n.retries), "retries/job"},
      {"control.timeouts_per_job", per_job(n.timeouts), "timeouts/job"},
      {"control.fallbacks_per_job", per_job(n.fallbacks), "fallbacks/job"},
      {"control.snapshot_age_gaps",
       ratio(n.snapshot_age_gaps, static_cast<double>(n.routed)), "gaps"},
      {"control.extra_events_per_job",
       twins.empty() ? 0.0 : per_job(n.events - twin.counts.events),
       "events/job"},
      {"control.overhead_ns_per_job",
       twins.empty() ? 0.0 : run_ns_per_job - twin.run_s * 1e9 / jobs,
       "ns/job"},
      {"slot_map.insert_erase_ns", micros.slot_map_ns, "ns"},
      {"overload.shed_share", per_job(n.shed), "ratio"},
      {"overload.renege_share", per_job(n.reneged), "ratio"},
      {"overload.migrations_per_job", per_job(n.migrations), "moves/job"},
      {"overload.goodput_share", per_job(n.completed), "ratio"},
      {"faults.interruptions_per_job", per_job(n.interruptions), "cuts/job"},
      {"autoscaler.evals_per_job", per_job(n.evals), "evals/job"},
      {"autoscaler.powered_share", ratio(n.powered_time, n.total_time),
       "ratio"},
      {"audit.overhead_ratio", Totals(audited).work_s() / untraced_work_s,
       "ratio"},
      {"trace.overhead_ratio", t.work_s() / untraced_work_s, "ratio"},
      {"env.calib_ns_per_op", (calib_before + calib_after) / 2.0, "ns"},
      {"model.mean_slowdown", u.warm.front().mean_slowdown, "ratio"},
      {"model.p99_slowdown", u.warm.front().p99_slowdown, "ratio"},
      {"model.digest",
       static_cast<double>(digest & ((std::uint64_t{1} << 53) - 1)), "id"},
      {"model.pk_rel_err", pk_rel_err, "ratio"},
  };
}

int run(const Options& o) {
  std::unique_ptr<Scenario> scenario =
      make_scenario(o.workload, o.seed, o.scale);
  if (!scenario) usage("unknown workload '" + o.workload + "'");
  std::printf("benchmark: workload=%s seed=%llu trace=%d scale=%g\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.trace ? 1 : 0, o.scale);
  const double calib_before =
      o.trace ? calib_ns_per_op(ops(2e6, o.scale)) : 0.0;
  Tally tally;
  const Untraced u = run_untraced(*scenario, o, tally);
  print_spread("jobs_per_s", "jobs/s", u.per_rep(jobs_per_s));
  print_spread("setup_s", "s", u.per_rep(setup_s));
  std::printf("peak_rss_mb  %.6g MB\n", u.peak_rss_mb);

  std::vector<Metric> metrics;
  if (o.trace) {
    metrics = run_traced(*scenario, o, u, calib_before, tally);
  } else {
    metrics = {{"jobs_per_s", median(u.per_rep(jobs_per_s)), "jobs/s"},
               {"setup_s", median(u.per_rep(setup_s)), "s"},
               {"peak_rss_mb", u.peak_rss_mb, "MB"}};
  }
  std::printf("failed_run_share %llu/%llu\n",
              static_cast<unsigned long long>(tally.failed),
              static_cast<unsigned long long>(tally.attempted));
  print_result(tally, metrics);
  return 0;
}

}  // namespace
}  // namespace dsbench

int main(int argc, char** argv) {
  const dsbench::Options options = dsbench::parse(argc, argv);
  // Pin glibc's mmap threshold at its initial 128 KiB. Left dynamic, it
  // rises each time a large mapped block is freed, so whether a rep's large
  // arrays got fresh mappings or reused heap depended on earlier frees, and
  // the peak RSS of control-lossy read 98, 103 or 119 MB by seed. Pinned,
  // large arrays are unmapped when freed and the peak is the live memory.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  try {
    return dsbench::run(options);
  } catch (const std::exception& e) {
    std::cerr << "distserv_benchmark: " << e.what() << "\n";
    return 1;
  }
}

// The benchmark's workloads and micro kernels, behind an interface that
// names no distserv type. scenarios.cpp is the only file that calls the
// library, so an API change (such as replacing the enable_* calls with one
// server config) touches that file alone.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace dsbench {

class Tracer;

/// Model-side counts of one simulation run. They are exact: two builds of
/// the same model on the same seed agree on every one.
struct Counts {
  /// Jobs resolved: completed + shed + reneged + abandoned.
  std::uint64_t jobs = 0;
  std::uint64_t completed = 0;
  std::uint64_t events = 0;
  // Control plane (zero unless the run enables it).
  std::uint64_t probes = 0;
  std::uint64_t rpc_dispatches = 0;
  std::uint64_t requests_sent = 0;
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t routed = 0;
  double snapshot_age_gaps = 0.0;  ///< summed over routed decisions
  // Overload, faults and autoscaler (zero unless enabled).
  std::uint64_t shed = 0;
  std::uint64_t reneged = 0;
  std::uint64_t migrations = 0;
  std::uint64_t interruptions = 0;
  std::uint64_t evals = 0;
  double powered_time = 0.0;
  double total_time = 0.0;

  void add(const Counts& other);
};

/// One simulation run: one config of one rep.
struct RunOutcome {
  std::string config;
  double run_s = 0.0;        ///< DistributedServer::run / run_stream
  double summarize_s = 0.0;  ///< core::summarize of its result
  Counts counts;
  std::uint64_t digest = 0;  ///< hash of the per-job outcomes
  double mean_slowdown = 0.0;
  double p99_slowdown = 0.0;
  /// Closed-form mean slowdown of this config, 0 when it has none.
  double analytic_mean_slowdown = 0.0;
  /// Failed correctness checks, one line each; empty means the run passed.
  std::vector<std::string> problems;
  // Filled by traced runs only: time inside the decorated layers, clock
  // reads included, and the number of timed calls.
  double source_s = 0.0;
  double assign_s = 0.0;
  double select_next_s = 0.0;
  std::uint64_t source_calls = 0;
  std::uint64_t assign_calls = 0;
  std::uint64_t select_next_calls = 0;
};

enum class RunMode {
  kTimed,      ///< plain run, nothing extra
  kChecked,    ///< plain run, then core::validate_run on record-mode results
  kTraced,     ///< decorated policy and source, spans, then validate_run
  kAudited,    ///< online audit layer on; its report must be clean
  kPlainTwin,  ///< the same inputs with the control plane off
};

/// One workload: a fixed list of simulation configs whose inputs derive
/// from the seed alone.
class Scenario {
 public:
  virtual ~Scenario() = default;
  /// Builds every input of one rep: traces or sources, cutoffs, policies,
  /// servers and features. Replaces the inputs of the previous rep. With a
  /// tracer, each step is a span and the policies and sources are wrapped
  /// in timing decorators for a kTraced run.
  virtual void setup(Tracer* tracer) = 0;
  /// Runs every config once over the inputs of the last setup(). Runs
  /// consume their inputs (a stream source is drained, a mode is switched
  /// on in the servers), so every run() needs a setup() of its own.
  [[nodiscard]] virtual std::vector<RunOutcome> run(RunMode mode,
                                                    Tracer* tracer) = 0;
  /// True when some config enables the control plane, so kPlainTwin runs
  /// measure something.
  [[nodiscard]] virtual bool has_control() const = 0;
};

/// The workload names, in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Null for an unknown name. `scale` multiplies every job count.
[[nodiscard]] std::unique_ptr<Scenario> make_scenario(std::string_view name,
                                                      std::uint64_t seed,
                                                      double scale);

/// A fixed EventQueue churn kernel (256 pending events): ns per pop plus
/// schedule. Timed before and after each workload to expose machine drift.
[[nodiscard]] double calib_ns_per_op(std::uint64_t ops);

/// Per-layer micro kernels, each the median of a few repetitions of
/// `ops` operations; ns per operation.
struct Micros {
  double dist_sample_ns = 0.0;             ///< c90 service-time draw
  double live_update_argmin_ns = 0.0;      ///< h=1024 kLive set + argmins
  double observed_update_argmin_ns = 0.0;  ///< h=1024 kObserved set + argmins
  double stream_fold_ns = 0.0;             ///< StreamSummary::add
  double churn_p16_ns = 0.0;    ///< EventQueue pop + schedule, 16 pending
  double churn_p1024_ns = 0.0;  ///< ... 1024 pending
  double slot_map_ns = 0.0;     ///< SlotMap insert + erase, 64 live
};
[[nodiscard]] Micros run_micros(std::uint64_t ops);

}  // namespace dsbench

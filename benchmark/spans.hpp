// In-memory span recorder for the benchmark's traced phase.
//
// Coarse spans (setup steps, one simulation run, its summarize) are opened
// with Tracer::span and always logged; each names the span that was open
// when it began as its parent. Per-job spans (a source pull, a policy call)
// are too many to keep: their durations are totalled by the decorators that
// time them, and only jobs whose id is a multiple of kJobSample are logged,
// under the run span, sharing the job id across layers. Nothing is written
// until write_jsonl, after the measurements end.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace dsbench {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;
  static constexpr std::uint64_t kJobSample = 1024;
  static constexpr std::uint64_t kClockSample = 64;
  static constexpr std::uint64_t kNoJob = ~std::uint64_t{0};

  /// RAII coarse span; ends when destroyed. A Scope over a null tracer is a
  /// no-op, so untraced code paths can open spans unconditionally.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::size_t index_ = 0;
  };

  Tracer() : epoch_(Clock::now()) {}

  /// Logs one per-job span when `job` is sampled (id % kJobSample == 0),
  /// and times an empty span on every kClockSample-th job.
  void job_span(const char* name, std::uint64_t job, Clock::time_point start,
                Clock::time_point end);

  /// Mean duration of an empty span (two back-to-back clock reads), ns:
  /// the part of every timed call that is the timing itself, which the
  /// harness subtracts per call from the decorated layers' totals. Sampled
  /// in place by job_span, under the same conditions as the timed calls.
  [[nodiscard]] double clock_read_ns() const;

  /// Summed duration of every finished coarse span called `name`, seconds.
  [[nodiscard]] double total_s(std::string_view name) const;

  /// Writes one JSON object per span: name, id, parent (0 = root), job
  /// (absent for coarse spans), start_ns and end_ns from tracer creation.
  /// Returns false when the file cannot be written.
  [[nodiscard]] bool write_jsonl(const std::string& path) const;

 private:
  struct Record {
    const char* name;
    std::uint64_t parent;  ///< 1-based index of the parent record, 0 = root
    std::uint64_t job;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  [[nodiscard]] std::int64_t since_epoch(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }

  Clock::time_point epoch_;
  std::vector<Record> log_;
  std::vector<std::size_t> open_;  ///< 1-based indices of open coarse spans
  std::map<std::string, double, std::less<>> totals_s_;
  Clock::duration clock_sum_{};
  std::uint64_t clock_samples_ = 0;
};

}  // namespace dsbench

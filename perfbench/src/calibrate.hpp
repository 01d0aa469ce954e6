#pragma once
// Host-speed calibration.  The shared hosts this benchmark runs on change
// speed by up to 2x over seconds to minutes (other tenants), more than the
// difference a change must be resolved at, and no hardware counters are
// exposed to count work instead of time.
// So every host time is reported at a reference speed: a fixed kernel,
// independent of the program under test, is timed next to the samples, and
// a sample is scaled by kReferenceMs / (kernel time around it).  The kernel
// does what the f90d run path spends host time on: string-keyed map
// lookups, small allocations, and virtual dispatch over expression trees.
// Raw (unscaled) medians are printed beside the metrics.
#include <memory>
#include <utility>
#include <vector>

namespace perfbench {

/// The kernel's time on the host this benchmark was tuned on, at its usual
/// speed: a scaled sample reads as it would have there.
inline constexpr double kReferenceMs = 4.4;

/// How often the measuring loops time the kernel between samples.
inline constexpr double kCalibrateEvery_s = 0.1;

class Calibrator {
 public:
  Calibrator();
  ~Calibrator();
  Calibrator(const Calibrator&) = delete;
  Calibrator& operator=(const Calibrator&) = delete;

  /// Time the kernel (twice, keeping the warm run) and record it at time
  /// `t_s` on the caller's clock.
  void record(double t_s);

  /// kReferenceMs over the median kernel time recorded within a second of
  /// `t_s` (the nearest reading when none is that close).
  [[nodiscard]] double factor(double t_s) const;

  /// Median of all readings (ms).
  [[nodiscard]] double median_ms() const;

 private:
  struct Kernel;
  std::unique_ptr<Kernel> kernel_;
  std::vector<std::pair<double, double>> readings_;  ///< (t_s, kernel ms)
};

/// The kernel's median time over a few runs, taken right after set-up:
/// run.py scales setup_s by kReferenceMs over it.
[[nodiscard]] double setup_calibration();

}  // namespace perfbench

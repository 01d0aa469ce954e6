#include "calibrate.hpp"

#include <cmath>
#include <map>
#include <string>

#include "common.hpp"

namespace perfbench {

namespace {

/// A node of an expression tree evaluated through virtual calls.
struct Node {
  virtual ~Node() = default;
  virtual double eval(const std::vector<double>& env) const = 0;
};

struct Leaf final : Node {
  std::size_t slot;
  explicit Leaf(std::size_t s) : slot(s) {}
  double eval(const std::vector<double>& env) const override { return env[slot]; }
};

struct Bin final : Node {
  int op;
  std::unique_ptr<Node> l, r;
  Bin(int o, std::unique_ptr<Node> a, std::unique_ptr<Node> b)
      : op(o), l(std::move(a)), r(std::move(b)) {}
  double eval(const std::vector<double>& env) const override {
    const double a = l->eval(env), b = r->eval(env);
    switch (op) {
      case 0: return a + b;
      case 1: return a - b;
      case 2: return a * b * 0.5;
      default: return a < b ? a : b;
    }
  }
};

std::unique_ptr<Node> random_tree(Rng& rng, int depth) {
  if (depth == 0) return std::make_unique<Leaf>(static_cast<std::size_t>(rng.uniform(0, 63)));
  return std::make_unique<Bin>(static_cast<int>(rng.uniform(0, 3)), random_tree(rng, depth - 1),
                               random_tree(rng, depth - 1));
}

}  // namespace

struct Calibrator::Kernel {
  std::map<std::string, double> symbols;
  std::vector<std::string> keys;
  std::vector<std::unique_ptr<Node>> trees;
  std::vector<double> env = std::vector<double>(64, 1.0);
  double sink = 0;

  Kernel() {
    Rng rng(12345);
    for (int i = 0; i < 4096; ++i) {
      keys.push_back("ARRAY_" + std::to_string(rng.next() % 100000));
      symbols[keys.back()] = i;
    }
    for (int i = 0; i < 16; ++i) trees.push_back(random_tree(rng, 9));
  }

  double run_ms() {
    const auto t0 = Clock::now();
    double acc = 0;
    for (int rep = 0; rep < 8; ++rep) {
      for (std::size_t k = 0; k < keys.size(); k += 3) {
        acc += symbols.find(keys[(k * 7 + static_cast<std::size_t>(rep)) % keys.size()])->second;
        std::vector<double> tmp(8 + (k & 15), acc);
        env[k & 63] = tmp.back() * 1e-9;
      }
      for (const auto& t : trees) acc += t->eval(env) * 1e-12;
    }
    sink += acc;  // keeps the work observable
    return ms_between(t0, Clock::now());
  }
};

Calibrator::Calibrator() : kernel_(std::make_unique<Kernel>()) {}

Calibrator::~Calibrator() = default;

void Calibrator::record(double t_s) {
  // The first run refills caches the measured work evicted; the second
  // measures the host.
  (void)kernel_->run_ms();
  readings_.emplace_back(t_s, kernel_->run_ms());
}

double Calibrator::factor(double t_s) const {
  std::vector<double> near;
  double nearest = 0, best = INFINITY;
  for (const auto& [t, ms] : readings_) {
    if (std::fabs(t - t_s) <= 1.0) near.push_back(ms);
    if (std::fabs(t - t_s) < best) {
      best = std::fabs(t - t_s);
      nearest = ms;
    }
  }
  const double ms = near.empty() ? nearest : percentile(near, 0.5);
  return ms > 0 ? kReferenceMs / ms : 1.0;
}

double Calibrator::median_ms() const {
  std::vector<double> v;
  for (const auto& r : readings_) v.push_back(r.second);
  return percentile(v, 0.5);
}

double setup_calibration() {
  Calibrator cal;
  for (int i = 0; i < 3; ++i) cal.record(0.0);
  return cal.median_ms();
}

}  // namespace perfbench

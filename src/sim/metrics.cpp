#include "sim/metrics.hpp"

#include <sstream>

namespace hkws::sim {

void Metrics::count(const std::string& name, std::uint64_t delta) {
  counters_[name] += delta;
}

std::uint64_t Metrics::counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

void Metrics::observe(const std::string& name, double value) {
  auto [it, created] = series_.try_emplace(name);
  Series& s = it->second;
  if (created) s.cap = default_cap_;
  ++s.n;
  s.sum += value;
  if (s.cap == 0 || s.values.size() < s.cap) {
    s.values.push_back(value);
    return;
  }
  // Reservoir replacement (algorithm R): keep each of the n observations
  // with equal probability cap/n.
  const std::uint64_t j = reservoir_rng_.next_below(s.n);
  if (j < s.cap) s.values[static_cast<std::size_t>(j)] = value;
}

const std::vector<double>& Metrics::samples(const std::string& name) const {
  static const std::vector<double> kEmpty;
  const auto it = series_.find(name);
  return it == series_.end() ? kEmpty : it->second.values;
}

std::uint64_t Metrics::sample_count(const std::string& name) const {
  const auto it = series_.find(name);
  return it == series_.end() ? 0 : it->second.n;
}

double Metrics::sample_mean(const std::string& name) const {
  const auto it = series_.find(name);
  if (it == series_.end() || it->second.n == 0) return 0.0;
  return it->second.sum / static_cast<double>(it->second.n);
}

void Metrics::set_reservoir(const std::string& name, std::size_t cap) {
  Series& s = series_[name];
  s.cap = cap;
  if (cap == 0 || s.values.size() <= cap) return;
  // Subsample the existing series down to the cap (uniform without
  // replacement via partial Fisher-Yates).
  for (std::size_t i = 0; i < cap; ++i) {
    const std::size_t j =
        i + static_cast<std::size_t>(
                reservoir_rng_.next_below(s.values.size() - i));
    std::swap(s.values[i], s.values[j]);
  }
  s.values.resize(cap);
  s.values.shrink_to_fit();
}

void Metrics::reset() {
  slots_.clear();
  counters_.clear();
  series_.clear();
  reservoir_rng_ = Rng(kReservoirSeed);
}

std::string Metrics::to_string() const {
  std::ostringstream out;
  for (const auto& [name, value] : counters_)
    out << name << " = " << value << "\n";
  for (const auto& [name, s] : series_) {
    out << name << " (samples) = " << s.n;
    if (s.cap != 0 && s.n > s.values.size())
      out << " (reservoir of " << s.values.size() << ")";
    out << ", mean = " << sample_mean(name) << "\n";
  }
  return out.str();
}

}  // namespace hkws::sim

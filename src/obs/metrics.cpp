#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <ostream>

#include "obs/json.hpp"

namespace aacc::obs {

void Histogram::record(std::uint64_t v) {
  if (count == 0) {
    min = max = v;
  } else {
    min = std::min(min, v);
    max = std::max(max, v);
  }
  ++count;
  sum += v;
  const int b = v <= 1 ? 0 : std::bit_width(v);  // 2^(b-1) <= v < 2^b
  ++buckets[std::min(b, kBuckets - 1)];
}

void Histogram::merge(const Histogram& o) {
  if (o.count == 0) return;
  if (count == 0) {
    min = o.min;
    max = o.max;
  } else {
    min = std::min(min, o.min);
    max = std::max(max, o.max);
  }
  count += o.count;
  sum += o.sum;
  for (int b = 0; b < kBuckets; ++b) buckets[b] += o.buckets[b];
}

double histogram_quantile(const Histogram& h, double q) {
  if (h.count == 0) return 0.0;
  q = std::min(std::max(q, 0.0), 1.0);
  const double target = q * static_cast<double>(h.count);
  std::uint64_t cum = 0;
  for (int b = 0; b < Histogram::kBuckets; ++b) {
    if (h.buckets[b] == 0) continue;
    const double in_bucket = static_cast<double>(h.buckets[b]);
    if (static_cast<double>(cum) + in_bucket >= target) {
      // Bucket 0 holds {0, 1}; bucket b holds [2^(b-1), 2^b).
      const double lo = b == 0 ? 0.0 : std::ldexp(1.0, b - 1);
      const double hi = std::ldexp(1.0, b == 0 ? 1 : b);
      const double frac =
          std::max(0.0, (target - static_cast<double>(cum)) / in_bucket);
      const double v = lo + frac * (hi - lo);
      return std::min(std::max(v, static_cast<double>(h.min)),
                      static_cast<double>(h.max));
    }
    cum += h.buckets[b];
  }
  return static_cast<double>(h.max);
}

std::uint64_t MetricsRegistry::counter_value(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second.value;
}

double MetricsRegistry::gauge_value(const std::string& name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second.value;
}

const Histogram* MetricsRegistry::find_histogram(
    const std::string& name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

void MetricsRegistry::merge(const MetricsRegistry& o) {
  for (const auto& [name, c] : o.counters_) counters_[name].add(c.value);
  for (const auto& [name, g] : o.gauges_) gauges_[name].add(g.value);
  for (const auto& [name, h] : o.histograms_) histograms_[name].merge(h);
}

void MetricsRegistry::to_json(std::ostream& os) const {
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) os << ",";
    first = false;
    write_json_string(os, name);
    os << ":" << c.value;
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) os << ",";
    first = false;
    write_json_string(os, name);
    os << ":";
    write_json_number(os, g.value);
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) os << ",";
    first = false;
    write_json_string(os, name);
    os << ":{\"count\":" << h.count << ",\"sum\":" << h.sum
       << ",\"min\":" << h.min << ",\"max\":" << h.max << ",\"p50\":";
    write_json_number(os, histogram_quantile(h, 0.50));
    os << ",\"p95\":";
    write_json_number(os, histogram_quantile(h, 0.95));
    os << ",\"p99\":";
    write_json_number(os, histogram_quantile(h, 0.99));
    os << ",\"buckets\":[";
    int last = Histogram::kBuckets - 1;
    while (last > 0 && h.buckets[last] == 0) --last;
    for (int b = 0; b <= last; ++b) {
      if (b != 0) os << ",";
      os << h.buckets[b];
    }
    os << "]}";
  }
  os << "}}";
}

}  // namespace aacc::obs

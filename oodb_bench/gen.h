// Seeded input generators for the benchmark. The benchmark hands the
// engine only what these produce, and keeps the in-memory copy as the
// oracle every result is checked against.

#ifndef OODB_BENCH_GEN_H_
#define OODB_BENCH_GEN_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace oodb_bench {

/// splitmix64: small, fast and fully determined by its seed, so a seed
/// names the same inputs on every host and every commit.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t Next() {
    uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  uint64_t Uniform(uint64_t n) { return Next() % n; }
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t s_;
};

/// The OO1 part graph (Cattell's "simple database operations"): every
/// part has exactly 3 outgoing connections, 90% of them to one of the
/// nearest 1% of parts, 10% uniform.
struct Oo1Graph {
  size_t n = 0;
  std::vector<std::array<uint32_t, 3>> connections;
  std::vector<int64_t> x, y;

  static Oo1Graph Generate(size_t n, uint64_t seed) {
    Oo1Graph g;
    g.n = n;
    g.connections.resize(n);
    g.x.resize(n);
    g.y.resize(n);
    Rng rng(seed);
    const int64_t zone = std::max<int64_t>(1, static_cast<int64_t>(n) / 100);
    const int64_t sn = static_cast<int64_t>(n);
    for (size_t i = 0; i < n; ++i) {
      g.x[i] = static_cast<int64_t>(rng.Uniform(100000));
      g.y[i] = static_cast<int64_t>(rng.Uniform(100000));
      for (auto& c : g.connections[i]) {
        int64_t t;
        if (rng.NextDouble() < 0.9) {
          int64_t off = static_cast<int64_t>(rng.Uniform(2 * zone + 1)) - zone;
          t = ((static_cast<int64_t>(i) + off) % sn + sn) % sn;
        } else {
          t = static_cast<int64_t>(rng.Uniform(n));
        }
        c = static_cast<uint32_t>(t);
      }
    }
    return g;
  }

  /// The OO1 traversal from `root` to `depth` levels, counting every path
  /// (3280 visits at depth 7). Returns visits and the sum of visited part
  /// indexes, which the benchmark compares with what the engine returned.
  void Traverse(uint32_t root, int depth, uint64_t* visits,
                uint64_t* id_sum) const {
    std::vector<uint32_t> level{root}, next;
    *visits = 0;
    *id_sum = 0;
    for (int d = 0; d <= depth; ++d) {
      next.clear();
      for (uint32_t p : level) {
        ++*visits;
        *id_sum += p;
        if (d < depth) {
          for (uint32_t c : connections[p]) next.push_back(c);
        }
      }
      level.swap(next);
    }
  }
};

/// The paper's Figure 1: companies in a 4-class Company hierarchy and
/// vehicles spread round-robin over {Vehicle, Automobile,
/// DomesticAutomobile, Truck}; uniform weights in [0, 10000), a uniformly
/// chosen manufacturer, and a Payload on trucks.
struct VehicleSet {
  static constexpr const char* kCompanyClasses[4] = {
      "Company", "AutoCompany", "TruckCompany", "JapaneseAutoCompany"};
  static constexpr const char* kVehicleClasses[4] = {
      "Vehicle", "Automobile", "DomesticAutomobile", "Truck"};

  std::vector<std::string> company_location;
  std::vector<int64_t> weight;
  std::vector<uint32_t> manufacturer;  // company index
  std::vector<int64_t> payload;        // trucks only (else -1)

  static VehicleSet Generate(size_t n_companies, size_t n_vehicles,
                             double detroit_fraction, uint64_t seed) {
    VehicleSet v;
    Rng rng(seed);
    for (size_t i = 0; i < n_companies; ++i) {
      bool detroit = rng.NextDouble() < detroit_fraction;
      v.company_location.push_back(
          detroit ? "Detroit" : "City-" + std::to_string(rng.Uniform(100)));
    }
    for (size_t i = 0; i < n_vehicles; ++i) {
      v.weight.push_back(static_cast<int64_t>(rng.Uniform(10000)));
      v.manufacturer.push_back(static_cast<uint32_t>(rng.Uniform(n_companies)));
      v.payload.push_back(i % 4 == 3 ? static_cast<int64_t>(rng.Uniform(5000))
                                     : -1);
    }
    return v;
  }

  static std::string CompanyName(size_t i) {
    return "company-" + std::to_string(i);
  }
  bool InDetroit(size_t vehicle) const {
    return company_location[manufacturer[vehicle]] == "Detroit";
  }
};

}  // namespace oodb_bench

#endif  // OODB_BENCH_GEN_H_

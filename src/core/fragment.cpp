#include "src/core/fragment.hpp"

#include <cmath>

#include "src/util/check.hpp"

namespace vapro::core {

const char* fragment_kind_name(FragmentKind k) {
  switch (k) {
    case FragmentKind::kComputation: return "computation";
    case FragmentKind::kCommunication: return "communication";
    case FragmentKind::kIo: return "io";
  }
  return "?";
}

double WorkloadVector::norm() const {
  double s = 0.0;
  for (double d : dims) s += d * d;
  return std::sqrt(s);
}

double WorkloadVector::distance(const WorkloadVector& other) const {
  VAPRO_DCHECK(dims.size() == other.dims.size());
  double s = 0.0;
  for (std::size_t i = 0; i < dims.size(); ++i) {
    double d = dims[i] - other.dims[i];
    s += d * d;
  }
  return std::sqrt(s);
}

std::size_t workload_dim_count(FragmentKind kind, std::size_t proxy_count) {
  return kind == FragmentKind::kComputation ? proxy_count : 3;
}

namespace {

// One Fragment in the (source, row) shape write_workload_dims reads.
struct SingleFragment {
  const Fragment& f;
  double counter(std::size_t, pmu::Counter c) const { return f.counters[c]; }
  double bytes(std::size_t) const { return f.args.bytes; }
  int peer(std::size_t) const { return f.args.peer; }
  int fd(std::size_t) const { return f.args.fd; }
  sim::OpKind op(std::size_t) const { return f.op; }
};

}  // namespace

WorkloadVector make_workload_vector(
    const Fragment& f, const std::vector<pmu::Counter>& proxies) {
  WorkloadVector v;
  v.dims.resize(workload_dim_count(f.kind, proxies.size()));
  write_workload_dims(f.kind, SingleFragment{f}, 0, proxies, v.dims.data());
  return v;
}

}  // namespace vapro::core

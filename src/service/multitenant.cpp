#include "service/multitenant.hpp"

#include <algorithm>
#include <limits>

#include "quotient/quotient.hpp"

namespace dagpm::service {

CoScheduleResult coSchedule(const std::vector<Tenant>& tenants,
                            const platform::Cluster& cluster,
                            const comm::CommCostModel& model) {
  CoScheduleResult out;
  out.tenants.resize(tenants.size());

  // One combined fluid problem: per-tenant problems are appended with an id
  // offset; there are no cross-tenant edges, so the concatenation keeps the
  // FluidProblem layout. All transfers share the links, which is where the
  // models differ.
  comm::FluidProblem combined;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> nodeRange(
      tenants.size());  // [first, last) combined-node range per tenant

  for (std::size_t t = 0; t < tenants.size(); ++t) {
    const Tenant& tenant = tenants[t];
    if (tenant.dag == nullptr || tenant.schedule == nullptr ||
        !tenant.schedule->feasible) {
      return out;  // ok stays false
    }
    const quotient::QuotientGraph q =
        scheduler::quotientOf(*tenant.dag, *tenant.schedule);
    const std::optional<quotient::QuotientFluid> fluid =
        quotient::buildQuotientFluid(q, cluster);
    if (!fluid.has_value()) return out;  // cyclic quotient: unusable

    // Solo reference: the tenant alone on the cluster, same model.
    const comm::FluidResult solo =
        model.evaluate(fluid->problem, cluster.bandwidth());
    if (!solo.ok) return out;
    out.tenants[t].soloMakespan = solo.makespan;

    const std::uint32_t offset =
        static_cast<std::uint32_t>(combined.nodes.size());
    nodeRange[t] = {offset,
                    offset + static_cast<std::uint32_t>(
                                 fluid->problem.nodes.size())};
    for (comm::FluidNode node : fluid->problem.nodes) {
      // The arrival offset delays the tenant's sources; downstream nodes
      // are already bound by their parents, so raising every earliestStart
      // is equivalent and simpler.
      node.earliestStart = std::max(node.earliestStart, tenant.arrival);
      combined.nodes.push_back(node);
    }
    for (comm::FluidEdge edge : fluid->problem.edges) {
      edge.src += offset;
      edge.dst += offset;
      combined.edges.push_back(edge);
    }
    for (comm::FluidInjection injection : fluid->problem.injections) {
      injection.dst += offset;
      combined.injections.push_back(injection);
    }
  }

  const comm::FluidResult result =
      model.evaluate(combined, cluster.bandwidth());
  if (!result.ok) return out;

  out.ok = true;
  out.combinedMakespan = 0.0;
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    TenantOutcome& outcome = out.tenants[t];
    outcome.ok = true;
    outcome.start = std::numeric_limits<double>::infinity();
    outcome.finish = 0.0;
    for (std::uint32_t n = nodeRange[t].first; n < nodeRange[t].second; ++n) {
      outcome.start = std::min(outcome.start, result.start[n]);
      outcome.finish = std::max(outcome.finish, result.finish[n]);
    }
    if (nodeRange[t].first == nodeRange[t].second) {  // empty workflow
      outcome.start = tenants[t].arrival;
      outcome.finish = tenants[t].arrival;
    }
    outcome.responseTime = outcome.finish - tenants[t].arrival;
    outcome.stretch = outcome.soloMakespan > 0.0
                          ? outcome.responseTime / outcome.soloMakespan
                          : 1.0;
    out.combinedMakespan = std::max(out.combinedMakespan, outcome.finish);
  }
  return out;
}

}  // namespace dagpm::service

#pragma once
// Umbrella header: the full public API of the dagpm library.
//
// Typical usage needs only a few of these; include individual headers to
// keep compile times down in larger projects.

// Support utilities.
#include "support/csv.hpp"      // CSV writer
#include "support/env.hpp"      // bench scale environment
#include "support/json.hpp"     // JSON parser/writer
#include "support/rng.hpp"      // deterministic SplitMix64 RNG
#include "support/stats.hpp"    // geometric means & friends
#include "support/table.hpp"    // aligned text tables

// Workflow graphs.
#include "graph/dag.hpp"         // the weighted DAG
#include "graph/dot_io.hpp"      // Graphviz interchange
#include "graph/generators.hpp"  // random DAGs for testing
#include "graph/subgraph.hpp"    // induced subgraphs + boundaries
#include "graph/topology.hpp"    // topological utilities

// Peak-memory model and the memDag-style traversal oracle.
#include "memory/exact_dp.hpp"
#include "memory/greedy.hpp"
#include "memory/oracle.hpp"
#include "memory/profile.hpp"
#include "memory/simulate.hpp"
#include "memory/sp_schedule.hpp"
#include "memory/sp_tree.hpp"
#include "memory/spization.hpp"

// Acyclic partitioning (dagP substitute + chunking baseline).
#include "partition/chunking.hpp"
#include "partition/partitioner.hpp"

// Heterogeneous platform model (paper Tables 2-3).
#include "platform/cluster.hpp"

// Quotient graphs, makespan, timelines.
#include "quotient/quotient.hpp"
#include "quotient/timeline.hpp"

// Schedulers: the paper's two algorithms + reference comparator.
#include "scheduler/daghetmem.hpp"
#include "scheduler/daghetpart.hpp"
#include "scheduler/list_scheduler.hpp"
#include "scheduler/solution.hpp"

// Discrete-event execution simulator + Monte-Carlo robustness evaluation.
#include "sim/engine.hpp"
#include "sim/perturbation.hpp"
#include "sim/robustness.hpp"

// Workflow instances: WfGen-like families, real-world-like suite, JSON.
#include "workflows/families.hpp"
#include "workflows/json_io.hpp"
#include "workflows/real_world.hpp"

// Experiment harness.
#include "experiments/export.hpp"
#include "experiments/harness.hpp"
#include "experiments/robustness.hpp"

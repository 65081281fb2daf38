/**
 * @file
 * Intel MPI Benchmarks (IMB) style harness over the Collectives, in
 * "off_cache" mode (rotating buffer pools), plus the effective
 * bandwidth benchmark (beff) of Koniges et al. — the §6.2 workloads.
 */

#ifndef NPF_HPC_IMB_HH
#define NPF_HPC_IMB_HH

#include <cstdint>
#include <string>
#include <vector>

#include "hpc/collectives.hh"

namespace npf::hpc {

/** Which IMB benchmark to run. */
enum class ImbBenchmark { Sendrecv, Bcast, Alltoall, Allreduce };

const char *imbName(ImbBenchmark b);

/**
 * Run @p iterations of one IMB benchmark at one message size.
 * @return the simulated elapsed seconds.
 */
double runImb(Cluster &cluster, ImbBenchmark bench, std::size_t msg_bytes,
              unsigned iterations, unsigned pool_depth = 8);

/** beff result for one registration mode. */
struct BeffResult
{
    double beffMBps = 0.0;   ///< accumulated effective bandwidth
    double stddevMBps = 0.0; ///< across pattern repetitions
};

/**
 * Effective-bandwidth benchmark: rings at several neighbor
 * distances plus random permutations, swept over a geometric ladder
 * of message sizes; b_eff accumulates per-rank bandwidth over the
 * whole cluster.
 */
BeffResult runBeff(sim::EventQueue &eq, const ClusterConfig &cfg,
                   core::RegMode mode, unsigned repetitions = 3);

} // namespace npf::hpc

#endif // NPF_HPC_IMB_HH

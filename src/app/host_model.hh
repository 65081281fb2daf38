/**
 * @file
 * Coarse host CPU model: per-operation service times scale with the
 * number of co-located active instances, reproducing the sublinear
 * aggregate scaling of the paper's Table 5 (shared NIC/PCIe/memory
 * bandwidth on the 4-core testbed).
 */

#ifndef NPF_APP_HOST_MODEL_HH
#define NPF_APP_HOST_MODEL_HH

#include "sim/time.hh"

namespace npf::app {

/** Shared-host contention model. */
class HostModel
{
  public:
    /**
     * @param alpha interference factor: service times are scaled by
     *   (1 + alpha * (instances - 1)). 0.18 reproduces Table 5.
     */
    explicit HostModel(double alpha = 0.18) : alpha_(alpha) {}

    void addInstance() { ++instances_; }

    /** Scale a base service time by the current contention. */
    sim::Time
    scaled(sim::Time base) const
    {
        if (instances_ <= 1)
            return base;
        double f = 1.0 + alpha_ * double(instances_ - 1);
        return static_cast<sim::Time>(double(base) * f);
    }

  private:
    double alpha_;
    unsigned instances_ = 0;
};

} // namespace npf::app

#endif // NPF_APP_HOST_MODEL_HH

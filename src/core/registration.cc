#include "core/registration.hh"

namespace npf::core {

const char *
regModeName(RegMode m)
{
    switch (m) {
      case RegMode::Copy:
        return "copy";
      case RegMode::PinDownCache:
        return "pin";
      case RegMode::Npf:
        return "npf";
      case RegMode::NpRdma:
        return "np-rdma";
    }
    return "?";
}

Registration::Registration(RegMode mode, NpfController &npfc,
                           ChannelId ch, std::size_t pin_down_bytes)
    : copies_(mode == RegMode::Copy)
{
    if (mode == RegMode::PinDownCache)
        cache_ = std::make_unique<PinDownCache>(npfc, ch, pin_down_bytes);
    else if (mode == RegMode::NpRdma)
        map_ = std::make_unique<NpRdmaMapping>(npfc, ch);
}

sim::Time
Registration::beforeDma(mem::VirtAddr addr, std::size_t len)
{
    if (cache_)
        return cache_->beforeDma(addr, len);
    if (map_)
        return map_->beforeDma(addr, len);
    return 0;
}

sim::Time
Registration::afterDma(mem::VirtAddr addr, std::size_t len)
{
    return map_ ? map_->afterDma(addr, len) : 0;
}

std::uint64_t
Registration::regOps() const
{
    if (cache_)
        return cache_->misses();
    if (map_)
        return map_->stats().maps;
    return 0;
}

sim::Time
InflightDma::complete(Registration &reg)
{
    if (ring_.empty())
        return 0;
    Extent e = ring_.front();
    ring_.pop_front();
    return e.len != 0 ? reg.afterDma(e.addr, e.len) : 0;
}

} // namespace npf::core

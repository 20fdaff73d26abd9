#include "driver/system_setup.hh"

namespace starnuma
{
namespace driver
{

SystemSetup
SystemSetup::baseline()
{
    return {"baseline", topology::SystemConfig::baseline16()};
}

SystemSetup
SystemSetup::starnuma()
{
    return {"starnuma-t16", topology::SystemConfig::starnuma16()};
}

SystemSetup
SystemSetup::starnumaT0()
{
    SystemSetup s{"starnuma-t0", topology::SystemConfig::starnuma16()};
    s.migration.counterBits = 0;
    return s;
}

SystemSetup
SystemSetup::starnumaSwitched()
{
    return {"starnuma-switched", topology::SystemConfig::starnumaSwitched()};
}

SystemSetup
SystemSetup::baselineIsoBW()
{
    return {"baseline-iso-bw", topology::SystemConfig::baselineIsoBW()};
}

SystemSetup
SystemSetup::baseline2xBW()
{
    return {"baseline-2x-bw", topology::SystemConfig::baseline2xBW()};
}

SystemSetup
SystemSetup::starnumaHalfBW()
{
    return {"starnuma-half-bw", topology::SystemConfig::starnumaHalfBW()};
}

SystemSetup
SystemSetup::starnumaSmallPool()
{
    return {"starnuma-small-pool",
            topology::SystemConfig::starnumaSmallPool()};
}

SystemSetup
SystemSetup::baselineStatic()
{
    SystemSetup s = baseline();
    s.name = "baseline-static-oracle";
    s.placement = Placement::StaticOracle;
    return s;
}

SystemSetup
SystemSetup::starnumaStatic()
{
    SystemSetup s = starnuma();
    s.name = "starnuma-static-oracle";
    s.placement = Placement::StaticOracle;
    return s;
}

SystemSetup
SystemSetup::baselineReplication()
{
    SystemSetup s = baseline();
    s.name = "baseline-replication";
    s.replicateReadOnly = true;
    return s;
}

} // namespace driver
} // namespace starnuma

#include "driver/artifact_key.hh"

#include <bit>
#include <concepts>
#include <cstdint>

#include "sim/cas/code_epoch.hh"
#include "sim/rng.hh"
#include "trace/columnar.hh"

namespace starnuma
{
namespace driver
{

namespace
{

/**
 * Doubles are keyed by their exact IEEE-754 bit pattern (16 hex
 * digits): any textual rounding would be a second representation
 * decision and a source of spurious key collisions or splits.
 */
std::string
hexBits(double v)
{
    std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
    static const char digits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] =
            digits[bits & 0xF];
        bits >>= 4;
    }
    return out;
}

void
field(std::string &out, const std::string &name,
      const std::string &value)
{
    out += name;
    out += '=';
    out += value;
    out += '\n';
}

template <typename T>
    requires std::integral<T>
void
field(std::string &out, const std::string &name, T v)
{
    field(out, name, std::to_string(v));
}

void
field(std::string &out, const std::string &name, double v)
{
    field(out, name, hexBits(v));
}

/** Fingerprint of a canonical field text (32 hex digits). */
std::string
fingerprint(const std::string &text)
{
    return cas::hashString(text).hex();
}

/**
 * Every SimScale field. One opaque "scale" fingerprint keeps the
 * key vocabulary stable while staying conservative: any scale knob
 * change invalidates, matching the trace memo's behaviour.
 */
std::string
scaleFingerprint(const SimScale &scale)
{
    std::string t;
    field(t, "sockets", static_cast<std::uint64_t>(scale.sockets));
    field(t, "socketsPerChassis",
          static_cast<std::uint64_t>(scale.socketsPerChassis));
    field(t, "coresPerSocket",
          static_cast<std::uint64_t>(scale.coresPerSocket));
    field(t, "phases", static_cast<std::uint64_t>(scale.phases));
    field(t, "phaseInstructions", scale.phaseInstructions);
    field(t, "detailFraction", scale.detailFraction);
    field(t, "warmupFraction", scale.warmupFraction);
    return fingerprint(t);
}

/** Every topology::SystemConfig field (hardware identity). */
std::string
topologyFingerprint(const topology::SystemConfig &sys)
{
    std::string t;
    field(t, "sockets", static_cast<std::uint64_t>(sys.sockets));
    field(t, "socketsPerChassis",
          static_cast<std::uint64_t>(sys.socketsPerChassis));
    field(t, "hasPool",
          static_cast<std::uint64_t>(sys.hasPool ? 1 : 0));
    field(t, "upiGbps", sys.upiGbps);
    field(t, "numalinkGbps", sys.numalinkGbps);
    field(t, "cxlGbps", sys.cxlGbps);
    field(t, "upiNs", sys.upiNs);
    field(t, "flexAsicNs", sys.flexAsicNs);
    field(t, "numalinkNs", sys.numalinkNs);
    field(t, "cxlOneWayNs", sys.cxlOneWayNs);
    field(t, "onChipNs", sys.onChipNs);
    field(t, "dramNs", sys.dramNs);
    field(t, "channelsPerSocket",
          static_cast<std::uint64_t>(sys.channelsPerSocket));
    field(t, "poolChannels",
          static_cast<std::uint64_t>(sys.poolChannels));
    field(t, "channelGbps", sys.channelGbps);
    field(t, "banksPerChannel",
          static_cast<std::uint64_t>(sys.banksPerChannel));
    field(t, "poolCapacityFraction", sys.poolCapacityFraction);
    return fingerprint(t);
}

/**
 * Placement/migration policy identity: every core::MigrationConfig
 * knob plus the setup-level region size, placement mode and
 * replication policy. The deliberately excluded field is the
 * setup's display *name* — identical configurations under
 * different names share artifacts.
 */
std::string
policyFingerprint(const SystemSetup &setup)
{
    const core::MigrationConfig &m = setup.migration;
    std::string t;
    field(t, "counterBits",
          static_cast<std::uint64_t>(m.counterBits));
    field(t, "hiThresholdStart", m.hiThresholdStart);
    field(t, "hiThresholdMin", m.hiThresholdMin);
    field(t, "hiThresholdMax", m.hiThresholdMax);
    field(t, "loThresholdStart", m.loThresholdStart);
    field(t, "loThresholdMax", m.loThresholdMax);
    field(t, "migrationLimitPages", m.migrationLimitPages);
    field(t, "migrationLimitFraction", m.migrationLimitFraction);
    field(t, "scaleLimitToFootprint",
          static_cast<std::uint64_t>(
              m.scaleLimitToFootprint ? 1 : 0));
    field(t, "poolSharerThreshold",
          static_cast<std::uint64_t>(m.poolSharerThreshold));
    field(t, "poolEnabled",
          static_cast<std::uint64_t>(m.poolEnabled ? 1 : 0));
    field(t, "randomSharerReshuffle",
          static_cast<std::uint64_t>(
              m.randomSharerReshuffle ? 1 : 0));
    field(t, "regionBytes", setup.regionBytes);
    field(t, "placement",
          static_cast<std::uint64_t>(setup.placement));
    field(t, "replicateReadOnly",
          static_cast<std::uint64_t>(
              setup.replicateReadOnly ? 1 : 0));
    field(t, "replicationSharerThreshold",
          static_cast<std::uint64_t>(
              setup.replication.sharerThreshold));
    field(t, "replicationCapacityBudget",
          setup.replication.capacityBudget);
    return fingerprint(t);
}

/**
 * Declared environment gates (the manifest's declared_env list).
 * Both are byte-invariant by the determinism contract — the worker
 * pool size and the artifact store's own location cannot change
 * any artifact byte — so they key as the literal "invariant" and warm
 * hits survive pool-size changes (Golden.WarmEqualsCold sweeps
 * STARNUMA_THREADS over {1,4,8} against one store).
 */
void
envFields(std::string &out)
{
    field(out, "env.STARNUMA_CACHE_DIR", std::string("invariant"));
    field(out, "env.STARNUMA_THREADS", std::string("invariant"));
}

} // anonymous namespace

// lint: artifact-root cache_key
std::string
traceKeyText(const std::string &workload, const SimScale &scale)
{
    std::string k;
    field(k, "kind", std::string("step_a_trace"));
    field(k, "workload.name", workload);
    field(k, "workload.parameters", std::string("builtin"));
    field(k, "scale", scaleFingerprint(scale));
    field(k, "trace.format_version", trace::columnarVersion);
    field(k, "code.epoch", cas::codeEpoch());
    envFields(k);
    return k;
}

// lint: artifact-root cache_key
std::string
resultKeyText(const std::string &workload,
              const SystemSetup &setup, const SimScale &scale,
              const cas::Hash128 &trace_content)
{
    std::string k;
    field(k, "kind", std::string("experiment_result"));
    field(k, "workload.name", workload);
    field(k, "trace.content", trace_content.hex());
    field(k, "setup.topology", topologyFingerprint(setup.sys));
    field(k, "setup.policy", policyFingerprint(setup));
    field(k, "scale", scaleFingerprint(scale));
    field(k, "rng.seed", taskSeed({workload, setup.name}));
    field(k, "checkpoint.format_version",
          static_cast<std::uint64_t>(2));
    field(k, "result.format_version",
          static_cast<std::uint64_t>(2));
    field(k, "code.epoch", cas::codeEpoch());
    envFields(k);
    return k;
}

std::string
keyField(const std::string &keyText, const std::string &name)
{
    const std::string prefix = name + "=";
    for (std::size_t pos = 0; pos < keyText.size();) {
        std::size_t end = keyText.find('\n', pos);
        if (end == std::string::npos)
            end = keyText.size();
        if (keyText.compare(pos, prefix.size(), prefix) == 0)
            return keyText.substr(pos + prefix.size(),
                                  end - pos - prefix.size());
        pos = end + 1;
    }
    return "";
}

} // namespace driver
} // namespace starnuma

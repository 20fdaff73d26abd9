/**
 * @file
 * Canonical cache-key texts for the content-addressed artifact
 * store (DESIGN.md §16). Each artifact kind's key is a multi-line
 * "field=value" text whose field names follow the CACHE_KEYS schema
 * in scripts/starnuma_taint.py (D13 checks every literal field name
 * here against it): the declared workload/scale/setup inputs, the
 * whole-tree code epoch (sim/cas/code_epoch.hh, the same value in
 * every kind), and one line per declared STARNUMA_* environment
 * gate. Env gates that are byte-invariant by contract (pool size,
 * artifact store location) record the literal value "invariant" so
 * warm hits work across STARNUMA_THREADS settings.
 */

#ifndef STARNUMA_DRIVER_ARTIFACT_KEY_HH
#define STARNUMA_DRIVER_ARTIFACT_KEY_HH

#include <string>

#include "driver/system_setup.hh"
#include "sim/cas/hash.hh"
#include "sim/scale.hh"

namespace starnuma
{
namespace driver
{

/** Key text of the step-A columnar trace bytes for a workload. */
std::string traceKeyText(const std::string &workload,
                         const SimScale &scale);

/**
 * Key text of a full experiment-result bundle (metrics + step-B
 * checkpoints). Observed runs never use this tier, so no
 * observability setting is part of the key.
 */
std::string resultKeyText(const std::string &workload,
                          const SystemSetup &setup,
                          const SimScale &scale,
                          const cas::Hash128 &trace_content);

/**
 * Value of the "@p name=value" line of @p keyText, or "" when the
 * key has no such field.
 */
std::string keyField(const std::string &keyText,
                     const std::string &name);

} // namespace driver
} // namespace starnuma

#endif // STARNUMA_DRIVER_ARTIFACT_KEY_HH

/**
 * @file
 * The build-time code epoch carried by every artifact-store key
 * (DESIGN.md §16): a digest of the relative path and contents of
 * every .cc and .hh file under src/, so an edit to any simulator
 * source file changes every key and stored objects from older code
 * can only miss.
 *
 * The implementation is generated into the build tree by
 * src/code_epoch.cmake whenever a source file changes.
 */

#ifndef STARNUMA_SIM_CAS_CODE_EPOCH_HH
#define STARNUMA_SIM_CAS_CODE_EPOCH_HH

#include <string>

namespace starnuma
{
namespace cas
{

/** The whole-tree epoch: 32 lowercase hex digits. */
std::string codeEpoch();

} // namespace cas
} // namespace starnuma

#endif // STARNUMA_SIM_CAS_CODE_EPOCH_HH

/**
 * @file
 * Persistent content-addressed artifact store (DESIGN.md §16).
 *
 * Objects are addressed by the FNV-1a-128 hash of their *key text* —
 * a canonical multi-line "field=value" description of the artifact's
 * declared cache-key inputs (driver/artifact_key.cc). The payload's own
 * content hash is stored alongside and re-verified on every fetch,
 * so corruption, truncation or a key-hash collision all demote to a
 * clean miss — never a wrong artifact, never undefined behaviour.
 *
 * On-disk layout (all integers little-endian; audited by
 * driver::auditStore behind `example_starnuma_cli cache`):
 *
 *     <dir>/objects/<kk>/<keyhash128hex>.cas
 *       magic   8 bytes  "STARCAS1"
 *       u64     format version (1)
 *       u64     key text length in bytes
 *       u64     payload length in bytes
 *       u64     payload content hash, high half
 *       u64     payload content hash, low half
 *       key text bytes (UTF-8, embedded for audit + collision check)
 *       payload bytes
 *
 * Writes go to a ".tmp" sibling and rename into place, so readers
 * never observe a half-written object. Method names are deliberately
 * store-specific (putObject/fetchObject/...) so the D9/D12 analyzers
 * never conflate them with hot-path container traffic.
 */

#ifndef STARNUMA_SIM_CAS_STORE_HH
#define STARNUMA_SIM_CAS_STORE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/cas/hash.hh"

namespace starnuma
{
namespace cas
{

class Store
{
  public:
    /** Open (creating if needed) the store rooted at @p dir. */
    explicit Store(std::string dir);

    const std::string &directory() const { return dir_; }

    /**
     * Write @p payload under @p keyText (atomic tmp+rename).
     * @return false on any IO failure.
     */
    bool putObject(const std::string &keyText,
                   const std::vector<std::uint8_t> &payload);

    /**
     * Load the object stored under @p keyText into @p payload.
     * Verifies magic, version, embedded key text, sizes and the
     * payload content hash; any mismatch is a clean miss.
     * @return true only when the payload is verified intact.
     */
    bool fetchObject(const std::string &keyText,
                     std::vector<std::uint8_t> &payload);

    /** Cheap existence probe (no payload verification). */
    bool containsObject(const std::string &keyText) const;

    /** Sorted relative paths of every *.cas object in the store. */
    std::vector<std::string> listObjects() const;

    /**
     * Garbage-collect towards @p maxBytes total payload+header
     * size, evicting oldest-modification-time objects first
     * (trim(0) empties the store).
     * @return bytes removed.
     */
    std::uint64_t trim(std::uint64_t maxBytes);

    /** Absolute object path for @p keyText (exists or not). */
    std::string objectPath(const std::string &keyText) const;

    /**
     * Standalone integrity check of one object file: header,
     * embedded key, payload hash. When @p keyText is given it
     * receives the embedded key text of an intact object.
     * @return false when the file is missing, truncated or corrupt.
     */
    static bool verifyObject(const std::string &path,
                             std::string *keyText = nullptr);

  private:
    std::string dir_;
};

} // namespace cas
} // namespace starnuma

#endif // STARNUMA_SIM_CAS_STORE_HH

#include "sim/cas/store.hh"

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>

#include "sim/bytes.hh"

namespace starnuma
{
namespace cas
{
namespace
{

constexpr char MAGIC[8] = {'S', 'T', 'A', 'R', 'C', 'A', 'S', '1'};
constexpr std::uint64_t FORMAT_VERSION = 1;
// Header: magic + version + keyLen + payloadLen + hash.hi + hash.lo.
constexpr std::size_t HEADER_BYTES = 8 + 5 * 8;
// Key texts are short field=value blocks; anything larger is corrupt.
constexpr std::uint64_t MAX_KEY_BYTES = 1 << 20;

bool
ensureDir(const std::string &path)
{
    struct ::stat st;
    if (::stat(path.c_str(), &st) == 0)
        return S_ISDIR(st.st_mode);
    return ::mkdir(path.c_str(), 0755) == 0 ||
           (::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode));
}

bool
readWholeFile(const std::string &path, std::vector<std::uint8_t> &out)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    std::fseek(f, 0, SEEK_END);
    long len = std::ftell(f);
    std::fseek(f, 0, SEEK_SET);
    if (len < 0) {
        std::fclose(f);
        return false;
    }
    out.assign(static_cast<std::size_t>(len), 0);
    bool ok =
        out.empty() ||
        // lint: raw-read the one bulk transfer into the owned
        // buffer; all parsing then goes through ByteReader.
        std::fread(out.data(), 1, out.size(), f) == out.size();
    std::fclose(f);
    return ok;
}

/**
 * Parse + verify one encoded object. On success fills @p keyText
 * and @p payload. Every failure mode (bad magic, unknown version,
 * truncation, trailing garbage, hash mismatch) returns false.
 */
bool
decodeObject(const std::vector<std::uint8_t> &bytes,
             std::string &keyText, std::vector<std::uint8_t> &payload)
{
    if (bytes.size() < HEADER_BYTES)
        return false;
    ByteReader r(bytes.data(), bytes.size());
    char magic[8];
    if (!r.getBytes(magic, 8) || std::memcmp(magic, MAGIC, 8) != 0)
        return false;
    std::uint64_t version = 0, keyLen = 0, payloadLen = 0;
    Hash128 stored;
    if (!r.getU64(version) || version != FORMAT_VERSION)
        return false;
    if (!r.getU64(keyLen) || !r.getU64(payloadLen) ||
        !r.getU64(stored.hi) || !r.getU64(stored.lo))
        return false;
    if (keyLen > MAX_KEY_BYTES || keyLen > r.remaining())
        return false;
    keyText.assign(static_cast<std::size_t>(keyLen), '\0');
    if (!r.getBytes(keyText.data(), keyText.size()))
        return false;
    if (payloadLen != r.remaining())
        return false;
    payload.assign(static_cast<std::size_t>(payloadLen), 0);
    if (!payload.empty() &&
        !r.getBytes(payload.data(), payload.size()))
        return false;
    return hashBytes(payload) == stored;
}

} // namespace

Store::Store(std::string dir) : dir_(std::move(dir))
{
    ensureDir(dir_);
    ensureDir(dir_ + "/objects");
}

std::string
Store::objectPath(const std::string &keyText) const
{
    std::string hex = hashString(keyText).hex();
    return dir_ + "/objects/" + hex.substr(0, 2) + "/" + hex +
           ".cas";
}

bool
Store::putObject(const std::string &keyText,
                 const std::vector<std::uint8_t> &payload)
{
    std::string path = objectPath(keyText);
    std::string shard = path.substr(0, path.rfind('/'));
    if (!ensureDir(dir_) || !ensureDir(dir_ + "/objects") ||
        !ensureDir(shard))
        return false;

    std::vector<std::uint8_t> bytes;
    bytes.reserve(HEADER_BYTES + keyText.size() + payload.size());
    bytes.insert(bytes.end(), MAGIC, MAGIC + 8);
    putU64(bytes, FORMAT_VERSION);
    putU64(bytes, keyText.size());
    putU64(bytes, payload.size());
    Hash128 content = hashBytes(payload);
    putU64(bytes, content.hi);
    putU64(bytes, content.lo);
    bytes.insert(bytes.end(), keyText.begin(), keyText.end());
    bytes.insert(bytes.end(), payload.begin(), payload.end());

    std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        return false;
    bool ok = std::fwrite(bytes.data(), 1, bytes.size(), f) ==
              bytes.size();
    ok = std::fclose(f) == 0 && ok;
    if (!ok) {
        ::remove(tmp.c_str());
        return false;
    }
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        ::remove(tmp.c_str());
        return false;
    }
    return true;
}

bool
Store::fetchObject(const std::string &keyText,
                   std::vector<std::uint8_t> &payload)
{
    std::vector<std::uint8_t> bytes;
    if (!readWholeFile(objectPath(keyText), bytes))
        return false;
    std::string storedKey;
    if (!decodeObject(bytes, storedKey, payload))
        return false;
    // Embedded key text must match byte for byte: a 128-bit key-hash
    // collision demotes to a miss instead of serving a wrong object.
    return storedKey == keyText;
}

bool
Store::containsObject(const std::string &keyText) const
{
    struct ::stat st;
    return ::stat(objectPath(keyText).c_str(), &st) == 0 &&
           S_ISREG(st.st_mode);
}

std::vector<std::string>
Store::listObjects() const
{
    std::vector<std::string> out;
    std::string objects = dir_ + "/objects";
    DIR *top = ::opendir(objects.c_str());
    if (!top)
        return out;
    while (struct dirent *shard = ::readdir(top)) {
        if (shard->d_name[0] == '.')
            continue;
        std::string sub = objects + "/" + shard->d_name;
        DIR *inner = ::opendir(sub.c_str());
        if (!inner)
            continue;
        while (struct dirent *obj = ::readdir(inner)) {
            std::string name = obj->d_name;
            if (name.size() > 4 &&
                name.compare(name.size() - 4, 4, ".cas") == 0)
                out.push_back(std::string("objects/") +
                              shard->d_name + "/" + name);
        }
        ::closedir(inner);
    }
    ::closedir(top);
    std::sort(out.begin(), out.end());
    return out;
}

std::uint64_t
Store::trim(std::uint64_t maxBytes)
{
    struct Entry {
        std::string rel;
        std::uint64_t size;
        std::int64_t mtime;
    };
    std::vector<Entry> entries;
    std::uint64_t total = 0;
    for (const std::string &rel : listObjects()) {
        struct ::stat st;
        if (::stat((dir_ + "/" + rel).c_str(), &st) != 0)
            continue;
        entries.push_back({rel,
                           static_cast<std::uint64_t>(st.st_size),
                           static_cast<std::int64_t>(st.st_mtime)});
        total += static_cast<std::uint64_t>(st.st_size);
    }
    // Oldest first; relative path breaks mtime ties so eviction
    // order is stable on coarse-granularity filesystems.
    std::sort(entries.begin(), entries.end(),
              [](const Entry &a, const Entry &b) {
                  if (a.mtime != b.mtime)
                      return a.mtime < b.mtime;
                  return a.rel < b.rel;
              });
    std::uint64_t removed = 0;
    for (const Entry &e : entries) {
        if (total <= maxBytes)
            break;
        if (::remove((dir_ + "/" + e.rel).c_str()) == 0) {
            total -= e.size;
            removed += e.size;
        }
    }
    return removed;
}

bool
Store::verifyObject(const std::string &path, std::string *keyText)
{
    std::vector<std::uint8_t> bytes, payload;
    std::string key;
    if (!readWholeFile(path, bytes) ||
        !decodeObject(bytes, key, payload))
        return false;
    if (keyText)
        *keyText = std::move(key);
    return true;
}

} // namespace cas
} // namespace starnuma

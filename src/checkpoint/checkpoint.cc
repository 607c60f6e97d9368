#include "checkpoint/checkpoint.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <dirent.h>
#include <vector>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "sweep/journal.hh"

namespace dsp {
namespace ckpt {

namespace {

/** Fixed-size on-disk header preceding the payload. */
struct FileHeader {
    std::uint32_t magic;
    std::uint32_t version;
    std::uint64_t payloadLen;
    std::uint32_t payloadCrc;
    std::uint32_t pad;  // keeps the header at a stable 24 bytes
};
static_assert(sizeof(FileHeader) == 24, "checkpoint header layout drifted");

} // namespace

bool
atomicWriteFile(const std::string &path, const std::string &data)
{
    // Temp file in the same directory so the final rename cannot cross
    // a filesystem boundary (rename is only atomic within one fs).
    std::string tmp = path + ".tmp." + std::to_string(::getpid());
    int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) {
        dsp_warn("atomicWriteFile: open %s failed: %s", tmp.c_str(),
                 std::strerror(errno));
        return false;
    }

    const char *p = data.data();
    std::size_t left = data.size();
    while (left > 0) {
        ssize_t n = ::write(fd, p, left);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            dsp_warn("atomicWriteFile: write %s failed: %s", tmp.c_str(),
                     std::strerror(errno));
            ::close(fd);
            ::unlink(tmp.c_str());
            return false;
        }
        p += n;
        left -= static_cast<std::size_t>(n);
    }

    if (::fsync(fd) != 0) {
        dsp_warn("atomicWriteFile: fsync %s failed: %s", tmp.c_str(),
                 std::strerror(errno));
        ::close(fd);
        ::unlink(tmp.c_str());
        return false;
    }
    ::close(fd);

    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        dsp_warn("atomicWriteFile: rename %s -> %s failed: %s", tmp.c_str(),
                 path.c_str(), std::strerror(errno));
        ::unlink(tmp.c_str());
        return false;
    }
    return true;
}

bool
writeCheckpointFile(const std::string &path, const std::string &payload)
{
    FileHeader hdr{};
    hdr.magic = fileMagic;
    hdr.version = formatVersion;
    hdr.payloadLen = payload.size();
    hdr.payloadCrc = sweep::crc32(payload);
    hdr.pad = 0;

    std::string blob;
    blob.reserve(sizeof(hdr) + payload.size());
    blob.append(reinterpret_cast<const char *>(&hdr), sizeof(hdr));
    blob.append(payload);
    return atomicWriteFile(path, blob);
}

bool
readCheckpointFile(const std::string &path, std::string &payload)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;

    // The declared length must be exactly what follows the header
    // before it sizes the buffer: a torn or garbled header is an
    // invalid file, not an allocation of whatever it claims.
    FileHeader hdr{};
    struct stat st;
    bool ok = ::fstat(::fileno(f), &st) == 0 &&
              std::fread(&hdr, sizeof(hdr), 1, f) == 1 &&
              hdr.magic == fileMagic && hdr.version == formatVersion &&
              hdr.payloadLen ==
                  static_cast<std::uint64_t>(st.st_size) - sizeof(hdr);
    if (ok) {
        std::string body(hdr.payloadLen, '\0');
        ok = hdr.payloadLen == 0 ||
             std::fread(body.data(), 1, body.size(), f) == body.size();
        if (ok && sweep::crc32(body) != hdr.payloadCrc)
            ok = false;
        if (ok)
            payload = std::move(body);
    }
    std::fclose(f);
    return ok;
}

std::string
checkpointPath(const std::string &dir, std::uint64_t tick)
{
    return dir + "/ckpt_" + std::to_string(tick) + ".dsp";
}

namespace {

struct CkptFile {
    std::uint64_t tick;
    std::string path;
};

/**
 * Enumerate the valid ckpt_<tick>.dsp files under `dir` (unsorted),
 * quarantining every candidate that fails validation by renaming it
 * to <name>.corrupt -- shared by the newest-scan and the pruner so
 * both agree on what "valid" means.
 */
std::vector<CkptFile>
scanValidCheckpoints(const std::string &dir)
{
    std::vector<CkptFile> found;
    DIR *d = ::opendir(dir.c_str());
    if (!d)
        return found;

    while (struct dirent *e = ::readdir(d)) {
        std::string name = e->d_name;
        if (name.rfind("ckpt_", 0) != 0)
            continue;
        auto dot = name.rfind(".dsp");
        if (dot == std::string::npos || dot + 4 != name.size())
            continue;

        std::string tickText = name.substr(5, dot - 5);
        if (tickText.empty() ||
            tickText.find_first_not_of("0123456789") != std::string::npos) {
            continue;
        }
        std::uint64_t tick = std::strtoull(tickText.c_str(), nullptr, 10);

        std::string path = dir + "/" + name;
        std::string payload;
        if (!readCheckpointFile(path, payload)) {
            std::string quarantined = path + ".corrupt";
            if (::rename(path.c_str(), quarantined.c_str()) == 0) {
                dsp_warn("checkpoint %s failed validation; quarantined as %s",
                         path.c_str(), quarantined.c_str());
            }
            continue;
        }
        found.push_back(CkptFile{tick, std::move(path)});
    }
    ::closedir(d);
    return found;
}

} // namespace

std::string
newestValidCheckpoint(const std::string &dir)
{
    std::vector<CkptFile> valid = scanValidCheckpoints(dir);
    std::uint64_t bestTick = 0;
    std::string best;
    for (CkptFile &f : valid) {
        if (best.empty() || f.tick > bestTick) {
            bestTick = f.tick;
            best = std::move(f.path);
        }
    }
    return best;
}

std::size_t
pruneCheckpoints(const std::string &dir, unsigned keep)
{
    if (keep == 0)
        return 0;
    std::vector<CkptFile> valid = scanValidCheckpoints(dir);
    if (valid.size() <= keep)
        return 0;
    // Newest first; everything past the first `keep` goes.
    std::sort(valid.begin(), valid.end(),
              [](const CkptFile &a, const CkptFile &b) {
                  return a.tick > b.tick;
              });
    std::size_t removed = 0;
    for (std::size_t i = keep; i < valid.size(); ++i) {
        if (::unlink(valid[i].path.c_str()) == 0) {
            ++removed;
        } else {
            dsp_warn("pruneCheckpoints: unlink %s failed: %s",
                     valid[i].path.c_str(), std::strerror(errno));
        }
    }
    return removed;
}

void
makeDirs(const std::string &path)
{
    std::string::size_type slash = path.rfind('/');
    if (slash != std::string::npos && slash > 0)
        ::mkdir(path.substr(0, slash).c_str(), 0777);
    if (::mkdir(path.c_str(), 0777) != 0 && errno != EEXIST)
        dsp_warn("cannot create checkpoint dir '%s'", path.c_str());
}

unsigned
killAfterFromEnv()
{
    const char *v = std::getenv("DSP_CKPT_KILL_AFTER");
    if (!v || !*v)
        return 0;
    char *end = nullptr;
    unsigned long n = std::strtoul(v, &end, 10);
    if (end == v || (end && *end))
        return 0;
    return static_cast<unsigned>(n);
}

} // namespace ckpt
} // namespace dsp

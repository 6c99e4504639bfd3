#include "fsio.hh"

#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>

namespace vsmooth {

bool
writeFileAtomic(const std::string &path,
                const std::function<bool(std::ostream &)> &writer,
                std::string *error)
{
    auto fail = [&](const std::string &msg) {
        if (error)
            *error = msg;
        return false;
    };

    // The pid suffix keeps concurrent updaters off each other's temp
    // files; same-directory placement keeps the rename atomic (no
    // cross-filesystem fallback copy).
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid());
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os)
            return fail("cannot open temp file '" + tmp + "'");
        if (!writer(os)) {
            os.close();
            std::remove(tmp.c_str());
            return fail("writer aborted for '" + path + "'");
        }
        os.flush();
        if (!os.good()) {
            os.close();
            std::remove(tmp.c_str());
            return fail("write error on temp file '" + tmp + "'");
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return fail("cannot rename '" + tmp + "' over '" + path + "'");
    }
    return true;
}

namespace {

/** Create `dir` (0700) if missing; true when it is safe to share a
 *  cache through: a real directory owned by this user, owner rwx, no
 *  group or other write permission. */
bool
usableCacheDir(const std::filesystem::path &dir)
{
    if (::mkdir(dir.c_str(), 0700) != 0 && errno != EEXIST)
        return false;
    struct stat st;
    if (::lstat(dir.c_str(), &st) != 0)
        return false;
    return S_ISDIR(st.st_mode) && st.st_uid == ::geteuid() &&
        (st.st_mode & S_IRWXU) == S_IRWXU &&
        (st.st_mode & (S_IWGRP | S_IWOTH)) == 0;
}

} // namespace

CacheOutcome
loadOrBuild(const std::string &file,
            const std::function<bool(std::istream &)> &load,
            const std::function<void()> &build,
            const std::function<bool(std::ostream &)> &save)
{
    if (!usableCacheDir(std::filesystem::path(file).parent_path())) {
        build();
        return CacheOutcome::Unusable;
    }
    if (std::ifstream in(file, std::ios::binary); in && load(in))
        return CacheOutcome::Hit;
    build();
    return writeFileAtomic(file, save) ? CacheOutcome::Miss
                                       : CacheOutcome::Unusable;
}

} // namespace vsmooth

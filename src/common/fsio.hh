/**
 * @file
 * Small filesystem helpers shared by the CLI tools.
 *
 * The one that matters is writeFileAtomic: golden baselines and other
 * checked-in artifacts must never be half-written — a Ctrl-C (or a
 * crashing writer) in the middle of `vsmooth verify --update` used to
 * leave a truncated golden in place, which the next verify run then
 * reported as unparseable drift. Writing to a temp file in the same
 * directory and rename(2)-ing over the target makes the replacement
 * all-or-nothing.
 *
 * loadOrBuild keeps an expensive value in a one-file cache on top of
 * it.
 */

#ifndef VSMOOTH_COMMON_FSIO_HH
#define VSMOOTH_COMMON_FSIO_HH

#include <functional>
#include <istream>
#include <ostream>
#include <string>

namespace vsmooth {

/**
 * Atomically replace (or create) `path` with content produced by
 * `writer`. The writer streams into a `<path>.tmp.<pid>` sibling; only
 * after it returns true and every byte is flushed is the temp file
 * renamed over `path`. On any failure — temp unopenable, writer
 * returned false, flush error, rename error — the original file is
 * left untouched and the temp file is removed.
 *
 * Returns true on success; on failure stores a human-readable message
 * in `*error` when given.
 */
bool writeFileAtomic(const std::string &path,
                     const std::function<bool(std::ostream &)> &writer,
                     std::string *error = nullptr);

/** How loadOrBuild() obtained its value. */
enum class CacheOutcome
{
    /** Loaded from the cache file. */
    Hit,
    /** Built, then written to the cache file. */
    Miss,
    /** Built; the cache directory failed its checks or the write
     *  failed, so nothing was read or kept. */
    Unusable,
};

/**
 * A value kept in the one-file cache `file`: `load` reads it from the
 * file and returns true when the file held a usable one; otherwise
 * `build` makes it and `save` writes it to `file` through
 * writeFileAtomic, replacing whatever the file held. `load` must
 * accept only a whole file written for the same inputs.
 *
 * The directory holding `file` is created 0700 if missing and used
 * only if it is a directory (not a symlink) owned by this user, with
 * owner rwx and no group or other write permission. When it fails that
 * check, `build` runs and nothing is read or written.
 */
CacheOutcome loadOrBuild(const std::string &file,
                         const std::function<bool(std::istream &)> &load,
                         const std::function<void()> &build,
                         const std::function<bool(std::ostream &)> &save);

} // namespace vsmooth

#endif // VSMOOTH_COMMON_FSIO_HH

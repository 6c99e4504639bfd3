#include "protocol.hh"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace vsmooth::serve {

LineReader::Status
LineReader::next(std::string *line)
{
    bool discarding = false;
    for (;;) {
        const std::size_t nl = buf_.find('\n');
        if (nl != std::string::npos) {
            if (nl > kMaxLineBytes) {
                buf_.erase(0, nl + 1);
                return Status::Oversized;
            }
            line->assign(buf_, 0, nl);
            buf_.erase(0, nl + 1);
            return Status::Line;
        }
        if (buf_.size() > kMaxLineBytes) {
            // Stop accumulating an unbounded frame: drop what we
            // have and discard until its terminating newline, then
            // report one Oversized status for the whole frame.
            buf_.clear();
            discarding = true;
        }
        if (eof_)
            return Status::Eof; // partial trailing frame is dropped
        char chunk[4096];
        const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return Status::Error;
        }
        if (n == 0) {
            eof_ = true;
            continue;
        }
        if (!discarding) {
            buf_.append(chunk, static_cast<std::size_t>(n));
            continue;
        }
        const auto *p = static_cast<const char *>(
            std::memchr(chunk, '\n', static_cast<std::size_t>(n)));
        if (p) {
            // Keep whatever followed the oversized frame's newline.
            buf_.assign(p + 1, static_cast<std::size_t>(
                                   chunk + n - (p + 1)));
            return Status::Oversized;
        }
    }
}

bool
sendLine(int fd, std::string_view payload)
{
    std::string frame(payload);
    frame.push_back('\n');
    std::size_t off = 0;
    while (off < frame.size()) {
        const ssize_t n = ::send(fd, frame.data() + off,
                                 frame.size() - off, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

Json
makeError(std::string_view code, std::string_view message,
          bool retryable)
{
    Json j = Json::object();
    j.set("type", "error");
    j.set("code", std::string(code));
    j.set("message", std::string(message));
    j.set("retryable", retryable);
    return j;
}

} // namespace vsmooth::serve

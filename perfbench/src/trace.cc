#include "trace.hh"

#include <fstream>

#include "common/json.hh"

namespace perfbench {

std::uint64_t
Tracer::add(std::string name, std::uint64_t parent, std::uint64_t request,
            double start, double end)
{
    if (!on_)
        return 0;
    const std::uint64_t id = spans_.size() + 1;
    spans_.push_back({std::move(name), id, parent, request, start, end});
    return id;
}

bool
Tracer::write(const std::string &path) const
{
    using vsmooth::Json;
    Json all = Json::array();
    for (const Span &s : spans_) {
        Json j = Json::object();
        j.set("name", s.name);
        j.set("id", Json(s.id));
        j.set("parent", Json(s.parent));
        j.set("request", Json(s.request));
        j.set("start", s.start);
        j.set("end", s.end);
        all.push(std::move(j));
    }
    std::ofstream out(path);
    all.write(out);
    out << "\n";
    return out.good();
}

} // namespace perfbench

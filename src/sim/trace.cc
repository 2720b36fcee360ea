/**
 * @file
 * Tracer implementation and Chrome trace_event emission.
 */

#include "sim/trace.hh"

#include <array>
#include <cinttypes>

namespace dolos::trace
{

namespace
{

struct StageInfo
{
    const char *name;
    const char *category;
    unsigned lane;
};

constexpr std::array<StageInfo, std::size_t(Stage::NumStages)>
    stageTable{{
        {"clwb", "core", 0},
        {"sfence", "core", 0},
        {"wpqStall", "wpq", 1},
        {"wpqInsert", "wpq", 1},
        {"wpqCoalesce", "wpq", 1},
        {"wpqDrain", "wpq", 1},
        {"misuPadXor", "misu", 2},
        {"misuMac", "misu", 2},
        {"masuCtrFetch", "masu", 3},
        {"masuAes", "masu", 3},
        {"masuMac", "masu", 3},
        {"masuBmt", "masu", 3},
        {"nvmRead", "nvm", 4},
        {"nvmWrite", "nvm", 4},
    }};

constexpr const char *laneNames[] = {"core", "wpq", "mi-su", "ma-su",
                                     "nvm"};

} // namespace

const char *
stageName(Stage s)
{
    return stageTable[std::size_t(s)].name;
}

const char *
stageCategory(Stage s)
{
    return stageTable[std::size_t(s)].category;
}

unsigned
stageLane(Stage s)
{
    return stageTable[std::size_t(s)].lane;
}

Tracer &
Tracer::instance()
{
    // Per-thread ring: each parallel sweep worker traces its own
    // System; interleaving two machines in one ring would be noise.
    static thread_local Tracer tracer;
    return tracer;
}

void
Tracer::enable(std::size_t capacity)
{
    if (capacity == 0)
        capacity = 1;
    if (ring.size() != capacity) {
        ring.assign(capacity, Event{});
        head = 0;
        count = 0;
    }
    active_ = true;
}

void
Tracer::clear()
{
    head = 0;
    count = 0;
    dropped_ = 0;
}

void
Tracer::dump(std::ostream &os) const
{
    os << "[";
    // Lane-naming metadata so the viewer shows pipeline-stage rows.
    bool first = true;
    for (unsigned lane = 0; lane < 5; ++lane) {
        if (!first)
            os << ",";
        first = false;
        os << "\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
           << "\"tid\":" << lane << ",\"ts\":0,"
           << "\"args\":{\"name\":\"" << laneNames[lane] << "\"}}";
    }
    // One simulated tick renders as one microsecond.
    forEach([&](const Event &e) {
        const StageInfo &info = stageTable[std::size_t(e.stage)];
        const Tick dur = e.end > e.start ? e.end - e.start : 0;
        if (!first)
            os << ",";
        first = false;
        os << "\n{\"name\":\"" << info.name << "\",\"cat\":\""
           << info.category << "\",\"ph\":\"X\",\"pid\":0,\"tid\":"
           << info.lane << ",\"ts\":" << e.start << ",\"dur\":" << dur
           << ",\"args\":{\"addr\":" << e.addr << ",\"id\":" << e.id
           << "}}";
    });
    os << "\n]\n";
}

} // namespace dolos::trace
